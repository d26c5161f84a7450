"""Shared draw distributions, brute-force oracles and one-lane adapters
for the test suite.

Randomized checks draw power gains log-uniform over [1e-2, 1e2] with the
two BS gains swapped into degraded order, alpha uniform on [0, 1], and keep
p0 = p1 = 10, n1 = n2 = 1 (the reference operating point).

The one-lane adapters (``relay_rate_bits`` ... ``run_trial``) call the lane
scheduler, the lane engine and the rate kernel on a single lane and unwrap
the result to Python scalars and tuples, so that tests can state one
block, interval or trial at a time.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from noma_rbc.core import ChannelParams, LinkGains, PowerSplit, Scheme
from noma_rbc.rates import N_HAT_BRACKET, rate_kernel, relay_rate
from noma_rbc.scheduling import (NearestStages, NearFarStages, distance_order, near_far_tables,
                                 schedule_lanes)
from noma_rbc.simulation import SimConfig, run_lanes

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0

N_HAT_GRID = np.logspace(-6.0, 12.0, 10_000)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


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


def cf_objective(gains, params, split, n_hat):
    """Independent transcription of the CF second-user rate (bits) as a
    function of the compression noise; accepts scalar or array n_hat."""
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
    second = np.log2(1.0 + (t2 + w) / m2) - loss
    return np.maximum(0.0, np.minimum(first, second))


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


def two_candidate_optimum(cf):
    """(n_hat, clamped r2, forwarding-minus-loss argument) of a
    ``rates._CFBounds`` by the rule that allowed two crossings: the better
    of two candidates scored on one stacked objective call, namely both
    positive roots (the first on ties), or the one positive root twice, or
    without one both ends of ``N_HAT_BRACKET`` in units of n1 (the low end
    on ties).  The reference for the one-crossing rule of
    ``_CFBounds.optimum``."""
    root0, root1 = cf.crossing_roots()
    ok0 = np.isfinite(root0) & (root0 > 0.0)
    ok1 = np.isfinite(root1) & (root1 > 0.0)
    lo, hi = (end * cf.n1 for end in N_HAT_BRACKET)
    first = np.where(ok0, root0, np.where(ok1, root1, lo))
    other = np.where(ok0 & ok1, root1, np.where(ok0 | ok1, first, hi))
    at_one = cf.alpha == 1.0  # r2 is 0 for every n_hat; report n_hat = n1
    if np.any(at_one):
        first, other = np.where(at_one, cf.n1, first), np.where(at_one, cf.n1, other)
    r2s, seconds, _ = cf.objective(np.stack((first, other)))
    take = r2s[1] > r2s[0]
    return (np.where(take, other, first), np.where(take, r2s[1], r2s[0]),
            np.where(take, seconds[1], seconds[0]))


def both_ends_optimum(cf):
    """(n_hat, clamped r2, forwarding-minus-loss argument) of a
    ``rates._CFBounds`` by the rule that scored the high end of
    ``N_HAT_BRACKET`` wherever the crossing quadratic has no positive
    root: the positive root (the first of two), else the better bracket
    end in units of n1 (the low end on ties), n_hat = n1 at alpha = 1.  The
    roots come from the quadratic's coefficients with both the linear and
    the quadratic formula evaluated everywhere.  The reference for
    ``_CFBounds.optimum``, which scores the high end only where the
    forwarding-minus-loss bound binds at the low end."""
    la1 = cf.m2 + cf.t2
    la0 = cf.n1 * la1 + cf.t1 * cf.m2
    rr = la1 + cf.w
    qa = la1 * cf.dd - rr * cf.dd
    qb = la1 * (cf.loss_off + cf.loss_num) + la0 * cf.dd - rr * (cf.n1 * cf.dd + cf.loss_off)
    qc = la0 * (cf.loss_off + cf.loss_num) - rr * (cf.n1 * cf.n1 * cf.n2 * cf.s1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
        linear = qa == 0.0
        root0 = np.where(linear, np.divide(-qc, qb), q / qa)
        root1 = np.where(linear | (q == 0.0), np.nan, qc / q)
    ok0 = np.isfinite(root0) & (root0 > 0.0)
    has = ok0 | (np.isfinite(root1) & (root1 > 0.0))
    lo, hi = (end * cf.n1 for end in N_HAT_BRACKET)
    n_hat = np.where(ok0, root0, np.where(has, root1, lo))
    at_one = np.asarray(cf.alpha) == 1.0
    n_hat, has = np.where(at_one, cf.n1, n_hat), has | at_one
    r2, second, _ = cf.objective(n_hat)
    r2_hi, second_hi, _ = cf.objective(hi)
    take = ~has & (r2_hi > r2)
    return (np.where(take, hi, n_hat), np.where(take, r2_hi, r2),
            np.where(take, second_hi, second))


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
                         params, split, np.asarray(est_gain)[None], pair_gains,
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
    one scheme, pairing and relay power."""
    res = run_lanes(config, range(trial, trial + 1), keep_assignments)
    assignments = None
    if res.assignments is not None:
        assignments = tuple(tuple(map(tuple, a[0].tolist())) for a in res.assignments)
    return TrialResult(
        mean_sum_rate=float(res.mean_sum_rate[0]),
        role_swaps=int(res.role_swaps[0]),
        r2_clamps=int(res.r2_clamps[0]),
        assignments=assignments,
    )
