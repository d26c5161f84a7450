"""User pairing and proportional-fair scheduling over simulation lanes.

A lane is one independent scheduling problem: its own scheme, per-block
BS gains, inter-user gain estimates, PF ledger and relay power.
``schedule_lanes``, the only scheduler, schedules one interval of L lanes
at once and does the work that depends on the PF ledger: the PF argmaxes,
r2 given the chosen relay, serving.  It names no scheme, as ``rates``
holds the formulas, and no pairing, as the engine hands it the interval's
stages: a ``NearFarStages`` or a ``NearestStages``, whose ``select`` scores
the candidates of all lanes as masked (L, K//2) or (L, K) arrays.  Every
stage, serving included, evaluates r2 with one ``rates.second_rates`` call
over the lanes' scheme segments.

What depends on the gains or positions alone comes in precomputed, once
per trial rather than per lane and interval: every user's r1
(``rates.relay_rate``), which depends on its own BS gain only and from
which both pairings score and serve, ``near_far_tables`` each block's weak
and strong half as user tables, ``distance_order`` each user's other users
by distance.  Near-far gathers what it reads through the tables once per
interval, for all blocks, and scores r2 over the weak half, the users
already served in it scored and masked.  Nearest pairing walks the
distance order with a pointer per (lane, user) that skips the users
already served this interval.

Two pairing policies fill the per-interval resource blocks:

* near-far: for each block the users are split into a strong-gain half and
  a weak-gain half by that block's BS gains; the relay user is picked from
  the strong half by the proportional-fair ratio of its achievable r1, then
  the second user from the weak half by the PF ratio of r2 given that
  relay.
* nearest: every candidate relay is scored jointly with its nearest
  remaining neighbour (PF ratio of its own r1 plus the PF ratio of the
  neighbour's r2) and the best-scoring candidate becomes the relay, its
  neighbour the second user.

Selection metrics use true BS-link gains but only a distance-based
estimate of the inter-user gain (the scheduler knows positions, not the
inter-user fading).  Served rates are then computed with true gains on all
links, the inter-user fading being drawn per served pair.  Roles are
decided after the block loop, for all blocks at once: where a selected
pair violates the degraded role ordering on its true BS gains (possible
under nearest pairing), they are swapped before serving and counted.

Blocks are processed in order with cumulative removals, so no user is
scheduled twice within one interval.  Every tie-break picks the lowest
user index, a NaN score never wins and a lane without a finite score is an
error; identical inputs give identical assignments, and lanes never
interact.

Gains and the power split ``alpha`` come in as plain arrays and floats,
which ``config`` has checked; ``core``'s ``LinkGains``, ``PowerSplit`` and
``CompressionNoise`` are the benchmark's API only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import ChannelParams, Scheme, is_degraded_ordered
from .rates import dominance_violation, second_rates


# ---------------------------------------------------------------------------
# lane stages: every array leads with the lane axis L

def _half_tables(ranked: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Near-far user tables along the last axis, from the n candidates
    ``ranked`` (..., n) by gain, strongest first, and 2b other users
    ``pad`` (..., 2b): the weak half, floor(n/2) users, then b of ``pad``,
    then the strong half, ceil(n/2) users, then the other b.  Each half
    lists its candidates in ascending user index."""
    strong, b = (ranked.shape[-1] + 1) // 2, pad.shape[-1] // 2
    return np.concatenate((np.sort(ranked[..., strong:]), pad[..., :b],
                           np.sort(ranked[..., :strong]), pad[..., b:]), axis=-1)


def _pf_argmax(scores: np.ndarray, candidates: np.ndarray, lane_base: np.ndarray) -> np.ndarray:
    """Per lane, the flat position lane·K + k of the candidate k with the
    largest PF score in the (L, K) ``scores``; ``lane_base`` (L,) is each
    lane's lane·K.  The lowest index wins ties and a NaN score never wins.
    Raises when a lane has no candidate with a finite score, which would
    leave the choice to the order of the candidates."""
    masked = np.where(candidates, scores, -np.inf)
    at = lane_base + masked.argmax(axis=1)
    # argmax picks a lane's first NaN, so finite winners are candidates with
    # finite scores and no NaN; scan only otherwise
    if not np.isfinite(masked.take(at)).all():
        usable = (np.isfinite(scores) & candidates).any(axis=1)
        if not usable.all():
            lane = int(np.argmin(usable))
            raise ValueError(f"no candidate has a finite PF score in lane {lane}: "
                             f"{scores[lane][candidates[lane]]}")
        np.fmax(masked, -np.inf, out=masked)  # NaN -> -inf
        at = lane_base + masked.argmax(axis=1)
    return at


class NearFarStages:
    """Near-far selection of one interval through its per-block user tables
    ``halves`` (B, L, K), rows of ``near_far_tables``: the weak half, W =
    K//2 users, then the strong half.  Lane l reads the gain estimates of
    trial ``trial_of[l]``.  What the stages read through the tables is
    gathered once, for all blocks: both halves' flat positions lane·K +
    user into (L, K) arrays, the strong users' PF ratios r1/avg from
    ``relay_r1`` (L, K, B) and the ledger ``avg`` (L, K), and the weak
    users' BS gains ``bs_gains`` (L, K, B) and ledger entries."""

    def __init__(self, halves, trial_of, relay_r1, bs_gains, avg):
        n_blocks, n_lanes, n_users = halves.shape
        self.width, strong = n_users // 2, n_users - n_users // 2
        self.relay_r1, self.bs_gains, self.avg = relay_r1, bs_gains, avg
        lanes = np.arange(n_lanes)
        # a weak user's estimate from relay k sits at (row·K + k)·K + user,
        # which is weak_at + relay_at·K + est_base
        self.est_base = (trial_of - lanes) * n_users * n_users - lanes * n_users
        self.weak_base = np.arange(0, n_lanes * self.width, self.width)
        self.strong_base = np.arange(0, n_lanes * strong, strong)
        self.reads = self._read(halves, lanes[:, None], np.arange(n_blocks)[:, None, None])

    def _read(self, rows, lanes, block):
        """The reads through table ``rows`` (..., L', K) of lanes ``lanes``
        (L', 1) in blocks ``block``."""
        n_users, n_blocks = self.bs_gains.shape[1:]
        weak_at = lanes * n_users + rows[..., :self.width]
        strong_at = lanes * n_users + rows[..., self.width:]
        strong_kb, weak_kb = strong_at * n_blocks, weak_at * n_blocks
        strong_kb += block
        weak_kb += block
        return [weak_at, strong_at, self.relay_r1.take(strong_kb) / self.avg.take(strong_at),
                self.bs_gains.take(weak_kb), self.avg.take(weak_at)]

    def select(self, block, avail, est_gain, segments, params, alpha, p1):
        """Flat positions lane·K + user of (relay, second) per lane in
        ``block``: the relay from the strong half by its PF ratio r1/avg,
        which needs only its own BS gain, then the second user from the
        weak half by the PF ratio of r2 given that relay, from one
        ``second_rates`` call over the scheme ``segments`` of the lanes.
        Users that ``avail`` (L, K) excludes are scored and never win; each
        half lists its candidates in ascending user index, so the lowest
        index wins ties."""
        weak_at, strong_at, scores, weak_gains, weak_avg = (read[block] for read in self.reads)
        n_lanes, n_users = avail.shape
        # 2b removals can exhaust a half only once it has at most 2b users
        # (small K relative to B); such a lane re-splits the K - 2b remaining
        # users for this block, padding each half with b removed users
        if self.width <= 2 * block:
            lanes = np.flatnonzero(~(avail.take(weak_at).any(axis=1)
                                     & avail.take(strong_at).any(axis=1)))
            if len(lanes):
                order = np.argsort(-self.bs_gains[lanes, :, block], axis=1, kind="stable")
                kept = np.take_along_axis(avail[lanes], order, axis=1)
                rows = _half_tables(order[kept].reshape(len(lanes), -1),
                                    order[~kept].reshape(len(lanes), 2 * block))
                for read, row in zip(self.reads, self._read(rows, lanes[:, None], block)):
                    read[block, lanes] = row
        relay = strong_at.take(_pf_argmax(scores, avail.take(strong_at), self.strong_base))
        # the relay's gain as a full (L, W) array: the kernel takes longer
        # over a broadcast column
        g01 = np.repeat(self.bs_gains.take(relay * self.bs_gains.shape[2] + block), self.width)
        est = est_gain.take(weak_at + (relay * n_users + self.est_base)[:, None])
        r2 = second_rates(segments, g01.reshape(n_lanes, self.width), weak_gains, est, params,
                          alpha, p1)[0]
        return relay, weak_at.take(_pf_argmax(r2 / weak_avg, avail.take(weak_at),
                                              self.weak_base))


def near_far_tables(gains: np.ndarray) -> np.ndarray:
    """Near-far user tables for BS gains (..., K) of one block, users on the
    last axis: the weak half, K//2 users, then the strong half, ceil(K/2)
    users, ranked by gain with ties to the lower index, each half in
    ascending user index.  The engine builds them once per trial for a
    chunk of intervals."""
    order = np.argsort(-gains, axis=-1, kind="stable")
    return _half_tables(order, order[..., :0])


def distance_order(dist_matrix: np.ndarray) -> np.ndarray:
    """(..., K, K-1) order of every user's other users by distance, ties
    to the lower index (a stable sort), for distances (..., K, K).  Its
    first column is the nearest-neighbour map of all users."""
    n_users = dist_matrix.shape[-1]
    order = np.argsort(dist_matrix, axis=-1, kind="stable")
    return order[order != np.arange(n_users)[:, None]].reshape(*dist_matrix.shape[:-1],
                                                                n_users - 1)


class _NeighborCursor:
    """Nearest available neighbour of every (lane, user) within one
    interval, from the ``distance_order`` tables (T, K, K-1) of the lanes'
    ``rows`` (L,) and a pointer per (lane, user).  Availability only
    shrinks, so a pointer only moves forward: ``nearest`` advances just the
    available users whose neighbour was removed, past every unavailable
    user.  Rows of users without an available neighbour hold any index.
    Built once per interval, it holds the flat bases that nearest pairing
    reads through in every block: ``lane_base`` (L, 1), lane·K into (L, K)
    arrays, and ``gain_base`` (L, K), (row·K + user)·K into the (T, K, K)
    gain estimates.  A pointer is a flat position in ``order``."""

    def __init__(self, order: np.ndarray, rows: np.ndarray):
        n_users = order.shape[1]
        self.order = order
        self.lane_base = np.arange(0, len(rows) * n_users, n_users)[:, None]
        row_users = rows[:, None] * n_users + np.arange(n_users)
        self.gain_base = row_users * n_users
        self.at = row_users * (n_users - 1)
        self.neighbors = self.order.take(self.at)

    def nearest(self, avail: np.ndarray) -> np.ndarray:
        stale = np.flatnonzero(avail & ~avail.take(self.lane_base + self.neighbors))
        lane_base = stale - stale % avail.shape[1]
        columns = self.order.shape[2]
        while len(stale):
            at = self.at.take(stale) + 1
            neighbor = self.order.take(at)
            self.at.put(stale, at)
            self.neighbors.put(stale, neighbor)
            again = ~avail.take(lane_base + neighbor) & (at % columns < columns - 1)
            stale, lane_base = stale[again], lane_base[again]
        return self.neighbors


class NearestStages:
    """Nearest-neighbour selection of one interval: each candidate i is
    scored as the relay with its neighbour N(i) as the second user by
    r1(i)/avg(i) + r2(N(i)|i)/avg(N(i)), from ``relay_r1`` and the BS gains
    ``bs_gains`` (L, K, B) and the ledger ``avg`` (L, K).  N is the nearest
    remaining neighbour from a ``_NeighborCursor`` over the tables ``order``
    of ``distance_order``, lane l walking table ``trial_of[l]``, whose flat
    bases index the neighbours' reads.  A static map ``neighbor_of`` (L, K)
    overrides N: candidates whose mapped neighbour is unavailable are
    skipped, and a lane left without candidates uses the nearest remaining
    neighbours for the block."""

    def __init__(self, order, trial_of, relay_r1, bs_gains, avg, neighbor_of=None):
        self.cursor = _NeighborCursor(order, trial_of)
        self.relay_scores = relay_r1 / avg[:, :, None]
        self.bs_gains, self.avg, self.neighbor_of = bs_gains, avg, neighbor_of

    def select(self, block, avail, est_gain, segments, params, alpha, p1):
        """Flat positions lane·K + user of (relay, second) per lane in
        ``block``, among the users that ``avail`` (L, K) holds."""
        cursor, neighbors, candidates = self.cursor, self.neighbor_of, avail
        if neighbors is None:
            neighbors = cursor.nearest(avail)
        else:
            usable = avail & avail.take(cursor.lane_base + neighbors)
            mapped = usable.any(axis=1)
            candidates = np.where(mapped[:, None], usable, avail)
            if not mapped.all():
                neighbors = np.where(mapped[:, None], neighbors, cursor.nearest(avail))
        gains = self.bs_gains[:, :, block]
        at = cursor.lane_base + neighbors
        est = est_gain.take(cursor.gain_base + neighbors)
        r2 = second_rates(segments, gains, np.take(gains, at), est, params, alpha, p1)[0]
        lane_base = cursor.lane_base[:, 0]
        relay = _pf_argmax(self.relay_scores[:, :, block] + r2 / self.avg.take(at), candidates,
                           lane_base)
        return relay, lane_base + neighbors.take(relay)


def pf_update(avg_rates: np.ndarray, served_rates: np.ndarray, tau: float) -> np.ndarray:
    """One forgetting-factor update of the average-rate ledger, of any
    shape; unscheduled users contribute a served rate of zero."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    avg = np.asarray(avg_rates, dtype=float)
    served = np.asarray(served_rates, dtype=float)
    return (1.0 - tau) * avg + tau * served


@dataclass(frozen=True)
class LaneInterval:
    """Outcome of one scheduling interval over L lanes and B blocks."""

    relays: np.ndarray      # (L, B) relay user per block, roles as served
    seconds: np.ndarray     # (L, B) second user per block
    r1: np.ndarray          # (L, B) served rates
    r2: np.ndarray
    served: np.ndarray      # (L, K) per-user served rate this interval
    sum_rate: np.ndarray    # (L,)
    role_swaps: np.ndarray  # (L,)
    r2_clamps: np.ndarray   # (L,)


def schedule_lanes(
    segments: Sequence[tuple[Scheme, int, int]],
    stages: Callable[[np.ndarray, np.ndarray, np.ndarray], NearFarStages | NearestStages],
    bs_gains: np.ndarray,
    avg_rates: np.ndarray,
    params: ChannelParams,
    alpha: float,
    est_gain: np.ndarray,
    pair_gains: Callable[[np.ndarray, np.ndarray], np.ndarray],
    relay_power: np.ndarray,
    relay_r1: np.ndarray,
    cross_check: bool = False,
) -> LaneInterval:
    """Assign and serve all blocks of one scheduling interval in every lane.

    The scheme ``segments`` (scheme, start, stop) cut the lanes into
    contiguous runs, of any lengths, in order from lane 0 to lane L; every
    stage evaluates r2 over them with one ``rates.second_rates`` call.
    ``bs_gains`` is (L, K, B) with this interval's true BS power gains,
    ``est_gain`` the (T, K, K) inter-user power-gain estimates of T
    trials, ``avg_rates`` the (L, K) PF ledger, finite and positive.
    ``relay_power`` (L,) is each lane's relay power, in place of
    ``params.p1``, and ``relay_r1`` (L, K, B) each lane's
    ``rates.relay_rate`` of ``bs_gains`` under its scheme at the power
    split ``alpha``, from which both pairings score and serve the relays.

    ``stages(relay_r1, bs_gains, avg_rates)``, called once the inputs are
    checked, returns the interval's ``NearFarStages`` or ``NearestStages``,
    the pairing's tables and each lane's table of ``est_gain`` bound.  The
    block loop records each block's (relay, second) from its ``select``,
    and the roles after it over (L, B) by ``core.is_degraded_ordered``.
    ``pair_gains(relays, seconds)`` then returns the (L, B) true inter-user
    gains of the served pairs, in one call and none when no scheme uses the
    relay.  ``cross_check`` raises on a served pair that breaks
    ``rates.dominance_violation``.
    """
    n_lanes, n_users, n_blocks = bs_gains.shape
    bounds = [0] + [stop for _, _, stop in segments]
    if not segments or [start for _, start, _ in segments] != bounds[:-1] \
            or bounds[-1] != n_lanes or any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"scheme segments {[(s.label, a, b) for s, a, b in segments]} do not "
                         f"cut the {n_lanes} lanes into contiguous non-empty runs")
    if n_users < 2 * n_blocks:
        raise ValueError(f"{n_users} users cannot fill {n_blocks} blocks with pairs")
    avg_rates = np.asarray(avg_rates, dtype=float)
    if avg_rates.shape != (n_lanes, n_users) or not (
            np.isfinite(avg_rates).all() and avg_rates.min() > 0.0):
        raise ValueError("the PF ledger avg_rates must hold one finite, positive "
                         f"rate per user, got {avg_rates}")
    if relay_r1.shape != bs_gains.shape:
        raise ValueError(f"relay_r1 must have the shape {bs_gains.shape} of bs_gains, "
                         f"got {relay_r1.shape}")
    p1 = np.asarray(relay_power, dtype=float)[:, None]

    avail = np.ones((n_lanes, n_users), dtype=bool)
    picked = np.empty((2, n_lanes, n_blocks), dtype=int)  # flat (relay, second) as selected
    select = stages(relay_r1, bs_gains, avg_rates).select
    for b in range(n_blocks):
        picked[:, :, b] = select(b, avail, est_gain, segments, params, alpha, p1)
        avail.put(picked[:, :, b], False)

    # roles, for all blocks at once: a selected pair out of the degraded
    # order on its true BS gains serves with the roles swapped
    at = picked * n_blocks + np.arange(n_blocks)  # into (L, K, B)
    gains = bs_gains.take(at)
    swap = ~is_degraded_ordered(gains[0], gains[1], params)
    picked = np.where(swap, picked[::-1], picked)
    relays, seconds = picked % n_users
    g01, g02 = np.where(swap, gains[::-1], gains)
    g12 = pair_gains(relays, seconds) if any(s.uses_relay for s, _, _ in segments) \
        else np.zeros((n_lanes, n_blocks))
    r1 = relay_r1.take(np.where(swap, at[1], at[0]))
    r2, clamped = second_rates(segments, g01, g02, g12, params, alpha, p1)
    if cross_check:
        violation = dominance_violation(segments, g01, g02, g12, params, alpha, r1, r2)
        if violation:
            raise RuntimeError(violation)
    served = np.zeros((n_lanes, n_users))
    served.put(picked[0], r1)
    served.put(picked[1], r2)
    rates = r1 + r2
    sum_rate = rates[:, 0]
    for b in range(1, n_blocks):  # block order, as a running float sum
        sum_rate = sum_rate + rates[:, b]
    return LaneInterval(
        relays=relays, seconds=seconds, r1=r1, r2=r2, served=served, sum_rate=sum_rate,
        role_swaps=swap.sum(axis=1), r2_clamps=clamped.sum(axis=1),
    )
