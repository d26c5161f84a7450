"""Shared draw distributions, brute-force oracles, a 50-digit reference
for the CF optimum, plain scheduling references and one-lane adapters for
the test suite.

Randomized checks draw power gains log-uniform over [1e-2, 1e2] with the
two BS gains swapped into degraded order, alpha uniform on [0, 1], and keep
p0 = p1 = 10, n1 = n2 = 1 (the reference operating point).

The plain references (``near_far_reference``, ``nearest_reference``)
restate the scheduling module's pairing rules lane by lane and block by
block in Python loops.  ``run_lanes_recorded`` runs the lane engine and
records the pair that every lane served in every block, by a spy on the
engine's ``schedule_lanes``.  The one-lane adapters (``relay_rate_bits``
... ``run_trial``) call the lane scheduler, the lane engine and the rate
kernel on a single lane and unwrap the result to Python scalars and
tuples, so that tests can state one block, interval or trial at a time.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import mpmath
import numpy as np

from noma_rbc import simulation
from noma_rbc.core import LN2, ChannelParams, LinkGains, PowerSplit, Scheme
from noma_rbc.rates import N_HAT_BRACKET, rate_kernel, relay_rate
from noma_rbc.scheduling import (NearestStages, NearFarStages, distance_order, near_far_tables,
                                 schedule_lanes)
from noma_rbc.simulation import SimConfig, run_lanes

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

N_HAT_GRID = np.logspace(-6.0, 12.0, 10_000)

# numpy evaluates ``log1p`` and the complex absolute value with CPU-specific
# vector code, which may round differently in the last bit: engine outputs
# are compared bit for bit only with numpy 2.4 on an x86-64 CPU with
# AVX-512, where the pinned outputs were printed, and to 1e-12 relative
# elsewhere (the pinned-output rule).
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    __cpu_features__ = {}
BIT_EXACT = np.__version__.startswith("2.4.") and __cpu_features__.get("AVX512_SKX", False)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def rayleigh_power(rng, size=None):
    """|f|^2 for f ~ CN(0, 1): real parts, then imaginary parts."""
    re, im = rng.standard_normal(size), rng.standard_normal(size)
    return np.abs((re + 1j * im) / np.sqrt(2.0)) ** 2


def mean_radius_analytic(config: SimConfig) -> float:
    """Exact mean user distance of the area-uniform annular placement."""
    r0, r1 = config.inner_radius_m, config.edge_radius_m
    return (2.0 / 3.0) * (r1 ** 3 - r0 ** 3) / (r1 ** 2 - r0 ** 2)


def stack_draws(draws):
    """Typed ``(gains, params, split, n_hat)`` draws that share one
    ``ChannelParams`` as the stacked arguments of ``verify_terms``: ``(g01,
    g02, g12, params, alpha, n_hat)``, one array entry per draw."""
    gains, params, splits, n_hats = zip(*draws)
    return (np.array([g.g01 for g in gains]), np.array([g.g02 for g in gains]),
            np.array([g.g12 for g in gains]), params[0],
            np.array([s.alpha for s in splits]), np.array([n.n_hat for n in n_hats]))


def random_ordered_setup(rng, p0=10.0, p1=10.0, n1=1.0, n2=1.0):
    g = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
    g01, g02 = (g[0], g[1]) if g[0] * n2 >= g[1] * n1 else (g[1], g[0])
    gains = LinkGains(float(g01), float(g02), float(g[2]))
    params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
    split = PowerSplit(float(rng.uniform()))
    return gains, params, split


def cf_bounds_bits(gains, params, split, n_hat):
    """Independent transcription of the CF bounds (bits) as functions of
    the compression noise: the cut-set bound, and the forwarding bound
    minus the compression loss, which is below 0 where r2's clamp acts;
    accepts scalar or array n_hat."""
    a, ab = split.alpha, split.alpha_bar
    n1, n2 = params.n1, params.n2
    s1 = gains.g01 * a * params.p0
    s2 = gains.g02 * a * params.p0
    t1 = gains.g01 * ab * params.p0
    t2 = gains.g02 * ab * params.p0
    m2 = s2 + n2
    w = gains.g12 * params.p1
    x = np.asarray(n_hat, dtype=float)
    first = np.log2(1.0 + t1 / (n1 + x) + t2 / m2)
    loss = np.log2(
        1.0 + n1 * n1 * m2 / (x * (n1 * n2 + n2 * s1 + n1 * s2) + n1 * n2 * s1)
    )
    return first, np.log2(1.0 + (t2 + w) / m2) - loss


def cf_objective(gains, params, split, n_hat):
    """The CF second-user rate (bits) as a function of the compression
    noise, from ``cf_bounds_bits``; accepts scalar or array n_hat."""
    return np.maximum(0.0, np.minimum(*cf_bounds_bits(gains, params, split, n_hat)))


def grid_optimal_cf_r2(gains, params, split, grid=N_HAT_GRID):
    """Brute-force optimum of the CF second-user rate over the compression
    noise: vectorized sweep of the log grid, then golden-section refinement
    (objective evaluations only) inside the two cells around the best grid
    point."""
    vals = cf_objective(gains, params, split, grid)
    k = int(np.argmax(vals))
    lo = np.log10(grid[max(k - 1, 0)])
    hi = np.log10(grid[min(k + 1, len(grid) - 1)])

    def f(u):
        return float(cf_objective(gains, params, split, 10.0 ** u))

    a_, b_ = lo, hi
    x1 = b_ - _INV_PHI * (b_ - a_)
    x2 = a_ + _INV_PHI * (b_ - a_)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if f1 >= f2:
            b_, x2, f2 = x2, x1, f1
            x1 = b_ - _INV_PHI * (b_ - a_)
            f1 = f(x1)
        else:
            a_, x1, f1 = x1, x2, f2
            x2 = a_ + _INV_PHI * (b_ - a_)
            f2 = f(x2)
    refined = f(0.5 * (a_ + b_))
    return max(float(vals[k]), refined)


def linear_root(cf):
    """The crossing of a ``rates._CFBounds``'s two bounds, written out apart
    from the kernel: the root of (c*(x + n1) + t1) / (x + e) = F, with
    c = 1 + t2/m2, F = 1 + (t2 + w)/m2 and e = n1*n2*s1/dd, that is
    (n1*c + t1 - e*F) / (w/m2).  Not finite, or not positive, where the
    bounds never cross."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.divide(cf.n1 * (1.0 + cf.t2_m2) + cf.t1
                         - cf.loss_off / cf.dd * (1.0 + cf.forward_ratio), cf.w / cf.m2)


def both_ends_optimum(cf):
    """(r2, n_hat, clamped) of a ``rates._CFBounds`` by the rule that
    scored the high end of ``N_HAT_BRACKET`` wherever the bounds do not
    cross, in ratio space: ``linear_root`` where it is finite and positive,
    r2 there from the cut-set ratio alone, else the better bracket end in
    units of n1 by the smaller ratio clamped at 0 (the low end on ties),
    n_hat = n1 at alpha = 1; ``clamped`` where the forwarding-minus-loss
    ratio is below 0.  The reference for ``_CFBounds.optimum``, which
    scores the high end only where the forwarding-minus-loss ratio binds at
    the low end."""
    root = linear_root(cf)
    has = np.isfinite(root) & (root > 0.0)
    lo, hi = (end * cf.n1 for end in N_HAT_BRACKET)
    n_hat = np.where(has, root, lo)
    at_one = np.asarray(cf.alpha) == 1.0
    n_hat, has = np.where(at_one, cf.n1, n_hat), has | at_one
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cut, fml = cf._ratios(n_hat)
        cut_hi, fml_hi = cf._ratios(hi)
    ratio = np.where(has, cut, np.maximum(np.minimum(cut, fml), 0.0))
    ratio_hi = np.maximum(np.minimum(cut_hi, fml_hi), 0.0)
    take = ~has & (ratio_hi > ratio)
    return (np.log1p(np.where(take, ratio_hi, ratio)) / LN2, np.where(take, hi, n_hat),
            np.where(take, fml_hi, fml) < 0.0)


def two_log_second_rate(scheme, g01, g02, g12, params, alpha):
    """GBC or RBC-DF r2 as the min of its bounds in bits, one ``log1p`` per
    bound: the reference for the kernel's one log of the smaller ratio."""
    relay = 0.0 if scheme is Scheme.GBC else g12 * params.p1
    forward = np.log1p((g02 * (1.0 - alpha) * params.p0 + relay)
                       / (g02 * alpha * params.p0 + params.n2)) / LN2
    if scheme is Scheme.GBC:
        return forward
    decode = np.log1p(g01 * (1.0 - alpha) * params.p0 / (g01 * alpha * params.p0 + params.n1))
    return np.minimum(forward, decode / LN2)


def exact_cf_optimum(g01, g02, g12, p0, p1, alpha, n1=1.0, n2=1.0):
    """The CF optimum at 50 significant digits, the float inputs taken as
    exact: ``(crossing, r2, spread)``.  ``crossing`` is the n_hat > 0 where
    the cut-set and forwarding-minus-loss bounds cross, None where they do
    not (or alpha = 1, where r2 is 0 for every n_hat); ``r2`` the clamped
    rate in bits at the crossing, or at the better end of ``N_HAT_BRACKET``
    in units of n1 without one.  The crossing is (n1*c + t1 - e*F) / (w/m2)
    (see ``linear_root``), checked here to make the bounds equal to 40
    digits; ``spread`` is e*F / (w/m2), the part of n1*c + t1 that e*F
    cancels, over the divisor: a float root is off by a few ulp of it where
    the crossing is much smaller."""
    with mpmath.workdps(50):
        g01, g02, g12, p0, p1, alpha, n1, n2 = (mpmath.mpf(float(v)) for v in
                                                (g01, g02, g12, p0, p1, alpha, n1, n2))
        ab = 1 - alpha
        s1, s2, t1, t2 = g01 * alpha * p0, g02 * alpha * p0, g01 * ab * p0, g02 * ab * p0
        m2, w = s2 + n2, g12 * p1
        dd = n1 * n2 + n2 * s1 + n1 * s2

        def bounds(x):
            cutset = mpmath.log(1 + t1 / (n1 + x) + t2 / m2, 2)
            loss = mpmath.log(1 + n1 * n1 * m2 / (x * dd + n1 * n2 * s1), 2)
            return cutset, mpmath.log(1 + (t2 + w) / m2, 2) - loss

        def r2(x):
            return float(max(mpmath.mpf(0), min(bounds(x))))

        if alpha == 1:
            return None, 0.0, 0.0
        spread = 0.0
        if w > 0:
            c, f, e = 1 + t2 / m2, 1 + (t2 + w) / m2, n1 * n2 * s1 / dd
            x, spread = (n1 * c + t1 - e * f) / (w / m2), float(e * f / (w / m2))
            if x > 0:
                cutset, second = bounds(x)
                assert abs(cutset - second) <= mpmath.mpf(10) ** -40 * (1 + abs(cutset))
                return float(x), r2(x), spread
        return None, max(r2(end * n1) for end in N_HAT_BRACKET), spread


# ---------------------------------------------------------------------------
# one-lane adapters

def relay_rate_bits(scheme: Scheme, g01: float, params: ChannelParams, split: PowerSplit) -> float:
    """r1 of a candidate relay user, a function of its own BS gain only."""
    return float(relay_rate(scheme, g01, params, split.alpha))


def second_rate_bits(scheme: Scheme, g01: float, g02: float, g12: float,
                     params: ChannelParams, split: PowerSplit) -> float:
    """r2 of a candidate pair (relay gain g01, second-user gain g02, cross
    gain g12); CF schemes evaluate at the optimal compression noise."""
    return float(rate_kernel(scheme, g01, g02, g12, params, split.alpha)[1])


def split_groups(block_gains: np.ndarray, ids=None):
    """Strong-gain half (ceil(n/2)) and weak half of the given users, all
    users by default or the subset ``ids``, as ascending index arrays; gain
    ties break to the lower index."""
    gains = np.asarray(block_gains, dtype=float)
    order = np.argsort(-gains, kind="stable")
    if ids is not None:
        order = order[np.isin(order, ids)]
    n_strong = (len(order) + 1) // 2
    return np.sort(order[:n_strong]), np.sort(order[n_strong:])


def nearest_available(avail: np.ndarray, dist_matrix: np.ndarray) -> np.ndarray:
    """(L, K) nearest available neighbour of every user of each lane,
    Euclidean distance, ties to the lower index, by a masked argmin over
    ``dist_matrix`` (L, K, K); the reference for ``_NeighborCursor``.  Rows
    of users without an available neighbour hold an arbitrary index."""
    n_users = avail.shape[1]
    others = avail[:, None, :] & ~np.eye(n_users, dtype=bool)
    return np.argmin(np.where(others, dist_matrix, np.inf), axis=2)


def nearest_remaining(ids, dist_matrix: np.ndarray) -> dict[int, int]:
    """Nearest neighbour of each listed user among the listed users,
    Euclidean distance, ties to the lower index."""
    ids = np.sort(np.asarray(ids, dtype=int))
    if len(ids) < 2:
        raise ValueError("need at least two users to form neighbours")
    dist = np.asarray(dist_matrix)
    nearest = nearest_available(_lane_mask(len(dist), ids), dist[None])[0]
    return dict(zip(ids.tolist(), nearest[ids].tolist()))


def _lane_mask(n_users: int, ids) -> np.ndarray:
    mask = np.zeros((1, n_users), dtype=bool)
    mask[0, np.asarray(ids, dtype=int)] = True
    return mask


def near_far_pair(g1_ids, g2_ids, block_gains: np.ndarray, avg_rates: np.ndarray,
                  est_gain: np.ndarray, scheme: Scheme, params: ChannelParams,
                  split: PowerSplit) -> tuple[int, int]:
    """(relay, second) for one block under near-far pairing, the relay from
    the candidates ``g1_ids`` and the second user from ``g2_ids``;
    ``est_gain[i, j]`` is the distance-based inter-user gain estimate."""
    if len(g1_ids) == 0 or len(g2_ids) == 0:
        raise ValueError("empty candidate group")
    gains = np.asarray(block_gains, dtype=float)[None, :, None]
    avg = np.asarray(avg_rates, dtype=float)[None]
    n_users = gains.shape[1]
    # one near-far table row: each group in ascending order, padded to its
    # half's width with users of neither group, which are unavailable
    strong, weak = np.sort(g1_ids), np.sort(g2_ids)
    others = np.setdiff1d(np.arange(n_users), np.concatenate((strong, weak)))
    pad = n_users // 2 - len(weak)
    if pad < 0 or len(others) < pad:
        raise ValueError("a candidate group does not fit its half of the users")
    row = np.concatenate((weak, others[:pad], strong, others[pad:]))
    tables = NearFarStages(row[None, None], np.arange(1),
                           relay_rate(scheme, gains, params, split.alpha), gains, avg)
    k1, k2 = tables.select(0, _lane_mask(n_users, np.concatenate((strong, weak))),
                           np.asarray(est_gain)[None], [(scheme, 0, 1)], params, split.alpha,
                           np.array([[params.p1]]))
    return int(k1[0]), int(k2[0])


def nearest_neighbor_pair(ids, dist_matrix: np.ndarray, block_gains: np.ndarray,
                          avg_rates: np.ndarray, est_gain: np.ndarray, scheme: Scheme,
                          params: ChannelParams, split: PowerSplit,
                          neighbor_of: Optional[dict] = None) -> tuple[int, int]:
    """(relay, second) for one block under nearest-neighbour pairing among
    the remaining users ``ids``; ``neighbor_of`` is the static neighbour
    map of every user, None to use the nearest remaining neighbours."""
    if len(ids) < 2:
        raise ValueError("fewer than two remaining users")
    gains = np.asarray(block_gains, dtype=float)
    mapped = None
    if neighbor_of is not None:
        mapped = np.array([[neighbor_of[i] for i in range(len(gains))]])
    gains, avg = gains[None, :, None], np.asarray(avg_rates, dtype=float)[None]
    stages = NearestStages(distance_order(np.asarray(dist_matrix)[None]), np.arange(1),
                           relay_rate(scheme, gains, params, split.alpha), gains, avg, mapped)
    k1, k2 = stages.select(0, _lane_mask(gains.shape[1], ids), np.asarray(est_gain)[None],
                           [(scheme, 0, 1)], params, split.alpha, np.array([[params.p1]]))
    return int(k1[0]), int(k2[0])


def near_far_reference(segments, gains, avg, est, trial_of, relay_power, params, split):
    """(L, B, 2) served (relay, second) of every lane and block under
    near-far pairing, and the counts of re-splits and role swaps, by the
    rules of the scheduling module's docstring in plain Python, lane by
    lane and block by block.  Each block splits all K users by that
    block's BS gains into a strong half of ceil(K/2) users and a weak half,
    ranked by gain with ties to the lower index; a lane whose strong or
    weak half has no available user left splits its available users the
    same way.  The relay is the available strong user with the largest
    r1/avg, the second user the available weak user with the largest
    r2/avg given that relay, ties to the lower index; the pair serves in
    degraded role order.  Lane l's relay power is ``relay_power[l]``, in
    place of ``params.p1``."""
    n_lanes, n_users, n_blocks = gains.shape
    served = np.empty((n_lanes, n_blocks, 2), dtype=int)
    resplits = swaps = 0
    for scheme, start, stop in segments:
        for lane in range(start, stop):
            lane_params = replace(params, p1=float(relay_power[lane]))
            taken = set()
            for b in range(n_blocks):
                g, pf = gains[lane, :, b].tolist(), avg[lane].tolist()

                def halves(users):
                    ranked = sorted(users, key=lambda u: -g[u])  # a stable sort
                    cut = (len(ranked) + 1) // 2
                    return sorted(ranked[:cut]), sorted(ranked[cut:])

                def best(users, score):
                    pick = users[0]
                    for u in users[1:]:
                        if score(u) > score(pick):
                            pick = u
                    return pick

                strong, weak = ([u for u in half if u not in taken]
                                for half in halves(range(n_users)))
                if not strong or not weak:
                    resplits += 1
                    strong, weak = halves([u for u in range(n_users) if u not in taken])
                relay = best(strong, lambda u: relay_rate_bits(scheme, g[u], lane_params,
                                                               split) / pf[u])
                second = best(weak, lambda u: second_rate_bits(
                    scheme, g[relay], g[u], est[trial_of[lane], relay, u], lane_params,
                    split) / pf[u])
                taken |= {relay, second}
                if g[relay] * params.n2 < g[second] * params.n1:
                    relay, second = second, relay
                    swaps += 1
                served[lane, b] = relay, second
    return served, (resplits, swaps)


def nearest_reference(segments, gains, avg, est, dist, trial_of, relay_power, params, split,
                      static):
    """(L, B, 2) served (relay, second) of every lane and block under
    nearest pairing, and the counts of stale neighbours, static fallbacks
    and role swaps, by the rules of the scheduling module's docstring in
    plain Python, lane by lane and block by block.  N(i) is user i's
    nearest available user by distance in the lane's trial, ties to the
    lower index; a stale neighbour is an available user whose nearest user
    overall is taken.  With ``static``, N(i) is i's nearest user overall,
    and only users whose N(i) is available are candidates; a block
    without such a user falls back to every available user and the
    nearest available N.  Each candidate i scores r1(i)/avg(i) +
    r2(N(i)|i)/avg(N(i)) on the estimated inter-user gain; the best
    becomes the relay, ties to the lower index, N of it the second user,
    and the pair serves in degraded role order.  Lane l's relay power is
    ``relay_power[l]``, in place of ``params.p1``."""
    n_lanes, n_users, n_blocks = gains.shape
    served = np.empty((n_lanes, n_blocks, 2), dtype=int)
    stale = fallbacks = swaps = 0
    for scheme, start, stop in segments:
        for lane in range(start, stop):
            lane_params = replace(params, p1=float(relay_power[lane]))
            d, e = dist[trial_of[lane]].tolist(), est[trial_of[lane]].tolist()
            pf = avg[lane].tolist()

            def nearest(i, users):
                return min((u for u in users if u != i), key=lambda u: (d[i][u], u))

            overall = [nearest(i, range(n_users)) for i in range(n_users)]
            taken = set()
            for b in range(n_blocks):
                g = gains[lane, :, b].tolist()
                available = [u for u in range(n_users) if u not in taken]
                stale += sum(overall[i] in taken for i in available)
                candidates = [i for i in available if overall[i] not in taken] \
                    if static else []
                if candidates:
                    neighbor = overall
                else:
                    fallbacks += static
                    candidates = available
                    neighbor = {i: nearest(i, available) for i in available}

                def score(i):
                    j = neighbor[i]
                    return (relay_rate_bits(scheme, g[i], lane_params, split) / pf[i]
                            + second_rate_bits(scheme, g[i], g[j], e[i][j], lane_params,
                                               split) / pf[j])

                relay = candidates[0]
                for i in candidates[1:]:
                    if score(i) > score(relay):
                        relay = i
                second = neighbor[relay]
                taken |= {relay, second}
                if g[relay] * params.n2 < g[second] * params.n1:
                    relay, second = second, relay
                    swaps += 1
                served[lane, b] = relay, second
    return served, (stale, fallbacks, swaps)


@dataclass(frozen=True)
class RecordedLanes:
    """``run_lanes``'s per-lane result with the pairs each lane served."""

    mean_sum_rate: np.ndarray
    role_swaps: np.ndarray
    r2_clamps: np.ndarray
    assignments: np.ndarray  # (intervals, L, B, 2) served (relay, second)


def run_lanes_recorded(config: SimConfig, trials: range) -> RecordedLanes:
    """``run_lanes(config, trials)`` and the (relay, second) that every
    result lane served in every block, recorded by a spy on
    ``simulation.schedule_lanes``.  A scheme that does not use the relay
    schedules one lane per trial, which stands for every relay-power point
    of the result; the others one lane per trial and point."""
    recorded = []
    schedule = simulation.schedule_lanes

    def spy(*args, **kwargs):
        res = schedule(*args, **kwargs)
        recorded.append(np.stack((res.relays, res.seconds), axis=-1))
        return res
    simulation.schedule_lanes = spy
    try:
        res = run_lanes(config, trials)
    finally:
        simulation.schedule_lanes = schedule
    # result lane (c * T + t) * S + s is scheduled lane start_c + t * points + s % points
    n_points, lanes, start = len(config.p1_over_p0_db), [], 0
    at = np.arange(len(trials) * n_points)
    for scheme in config.schemes:
        points = n_points if scheme.uses_relay else 1
        lanes.append(start + at // n_points * points + at % points)
        start += len(trials) * points
    return RecordedLanes(res.mean_sum_rate, res.role_swaps, res.r2_clamps,
                         np.stack(recorded)[:, np.concatenate(lanes)])


@dataclass(frozen=True)
class IntervalResult:
    """Outcome of scheduling one interval of one lane."""

    assignment: tuple     # ((relay, second), ...) per block, roles as served
    block_rates: tuple    # ((r1, r2), ...) per block
    served: np.ndarray    # (K,) per-user served rate this interval
    sum_rate: float
    role_swaps: int
    r2_clamps: int


def schedule_interval(scheme: Scheme, pairing: str, bs_gains: np.ndarray,
                      dist_matrix: np.ndarray, avg_rates: np.ndarray, params: ChannelParams,
                      split: PowerSplit, est_gain: np.ndarray,
                      draw_pair_gain: Callable[[int, int], float], neighbors: str = "recompute",
                      cross_check: bool = False) -> IntervalResult:
    """``schedule_lanes`` on one lane at ``params.p1``: ``bs_gains`` is
    (K, B), ``avg_rates`` (K,), ``est_gain`` (K, K), and
    ``draw_pair_gain(i, j)`` gives the true inter-user gain at serve time,
    called once per block in block order."""
    bs_gains = np.asarray(bs_gains, dtype=float)[None]
    lanes = np.arange(1)
    if pairing == "near-far":
        stages = partial(NearFarStages, near_far_tables(np.moveaxis(bs_gains, -1, 0)), lanes)
    else:
        order = distance_order(np.asarray(dist_matrix)[None])
        stages = partial(NearestStages, order, lanes,
                         neighbor_of=order[:, :, 0] if neighbors == "static" else None)

    def pair_gains(relays, seconds):
        return np.array([[draw_pair_gain(i, j)
                          for i, j in zip(relays[0].tolist(), seconds[0].tolist())]])

    res = schedule_lanes([(scheme, 0, 1)], stages, bs_gains,
                         np.asarray(avg_rates, dtype=float)[None],
                         params, split.alpha, np.asarray(est_gain)[None], pair_gains,
                         relay_power=np.array([params.p1]),
                         relay_r1=relay_rate(scheme, bs_gains, params, split.alpha),
                         cross_check=cross_check)
    return IntervalResult(
        assignment=tuple(zip(res.relays[0].tolist(), res.seconds[0].tolist())),
        block_rates=tuple(zip(res.r1[0].tolist(), res.r2[0].tolist())),
        served=res.served[0],
        sum_rate=float(res.sum_rate[0]),
        role_swaps=int(res.role_swaps[0]),
        r2_clamps=int(res.r2_clamps[0]),
    )


@dataclass(frozen=True)
class TrialResult:
    mean_sum_rate: float
    role_swaps: int
    r2_clamps: int
    assignments: Optional[tuple] = None  # per-interval assignments when recorded


def run_trial(config: SimConfig, trial: int, keep_assignments: bool = False) -> TrialResult:
    """``run_lanes`` on one lane: trial ``trial`` of ``config``, which holds
    one scheme, pairing and relay power; ``keep_assignments`` records the
    served pairs through ``run_lanes_recorded``."""
    trials = range(trial, trial + 1)
    if keep_assignments:
        res = run_lanes_recorded(config, trials)
        assignments = tuple(tuple(map(tuple, a[0].tolist())) for a in res.assignments)
    else:
        res, assignments = run_lanes(config, trials), None
    return TrialResult(
        mean_sum_rate=float(res.mean_sum_rate[0]),
        role_swaps=int(res.role_swaps[0]),
        r2_clamps=int(res.r2_clamps[0]),
        assignments=assignments,
    )
