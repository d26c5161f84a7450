"""User pairing and proportional-fair scheduling.

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
links, the inter-user fading being drawn per served pair.  If a selected
pair violates the degraded role ordering on its true BS gains (possible
under nearest pairing), roles are swapped before serving and the event is
counted.

Blocks are processed in order with cumulative removals, so no user is
scheduled twice within one interval.  Each selection stage scores all its
candidates in one call of the rate kernel.  Every tie-break picks the
lowest user index, a NaN score never wins and a stage without a finite
score is an error; identical inputs give identical assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ChannelParams, PowerSplit, Scheme
from .rates import rate_kernel, relay_rate, serve_pair

PAIRINGS = ("near-far", "nearest")
NEIGHBOR_MODES = ("recompute", "static")


def split_groups(block_gains: np.ndarray, ids=None):
    """Strong-gain half (ceil(n/2)) and weak half of the given users.

    Operates on all users by default or on the subset ``ids``.  Both halves
    come back as ascending index arrays; gain ties break to the lower
    index.
    """
    gains = np.asarray(block_gains, dtype=float)
    ids = np.arange(gains.shape[0]) if ids is None else np.asarray(ids, dtype=int)
    order = ids[np.lexsort((ids, -gains[ids]))]
    n_strong = (len(ids) + 1) // 2
    return np.sort(order[:n_strong]), np.sort(order[n_strong:])


def _pf_argmax(scores: np.ndarray) -> int:
    """Position of the largest PF score; the first (lowest) position wins
    ties and a NaN score never wins.  Raises when no score is finite, which
    would leave the choice to the order of the candidates."""
    if not np.isfinite(scores).any():
        raise ValueError(f"no candidate has a finite PF score: {scores}")
    return int(np.argmax(np.where(np.isnan(scores), -np.inf, scores)))


def near_far_pair(
    g1_ids,
    g2_ids,
    block_gains: np.ndarray,
    avg_rates: np.ndarray,
    est_gain: np.ndarray,
    scheme: Scheme,
    params: ChannelParams,
    split: PowerSplit,
) -> tuple[int, int]:
    """(relay, second) for one block under near-far pairing.

    ``block_gains`` holds that block's true per-user BS power gains,
    ``est_gain[i, j]`` the distance-based inter-user power-gain estimate.
    The relay stage needs only each candidate's own BS gain; the second
    stage scores r2 given the chosen relay.  Each stage scores all its
    candidates in one kernel call.
    """
    g1_ids, g2_ids = np.asarray(g1_ids, dtype=int), np.asarray(g2_ids, dtype=int)
    if len(g1_ids) == 0 or len(g2_ids) == 0:
        raise ValueError("empty candidate group")
    gains, avg = np.asarray(block_gains), np.asarray(avg_rates)
    r1 = relay_rate(scheme, gains[g1_ids], params, split.alpha)
    k1 = int(g1_ids[_pf_argmax(r1 / avg[g1_ids])])
    _, r2, _, _ = rate_kernel(
        scheme, gains[k1], gains[g2_ids], est_gain[k1, g2_ids], params, split.alpha
    )
    return k1, int(g2_ids[_pf_argmax(r2 / avg[g2_ids])])


def _nearest(ids: np.ndarray, dist_matrix: np.ndarray) -> np.ndarray:
    """Nearest neighbour of each of the ascending ``ids`` among them."""
    if len(ids) < 2:
        raise ValueError("need at least two users to form neighbours")
    sub = dist_matrix[np.ix_(ids, ids)].copy()
    np.fill_diagonal(sub, np.inf)
    return ids[np.argmin(sub, axis=1)]  # argmin returns the first (lowest id) tie


def nearest_remaining(ids, dist_matrix: np.ndarray) -> dict[int, int]:
    """Nearest neighbour of each listed user among the listed users,
    Euclidean distance, ties to the lower index."""
    ids = np.sort(np.asarray(ids, dtype=int))
    return dict(zip(ids.tolist(), _nearest(ids, dist_matrix).tolist()))


def nearest_neighbor_pair(
    ids,
    dist_matrix: np.ndarray,
    block_gains: np.ndarray,
    avg_rates: np.ndarray,
    est_gain: np.ndarray,
    scheme: Scheme,
    params: ChannelParams,
    split: PowerSplit,
    neighbor_of: Optional[dict] = None,
) -> tuple[int, int]:
    """(relay, second) for one block under nearest-neighbour pairing.

    Each candidate i is evaluated as the relay with its neighbour N(i) as
    the second user; the joint PF metric r1(i)/avg(i) + r2(N(i)|i)/avg(N(i))
    decides, all candidates being scored in one kernel call.
    ``neighbor_of`` overrides the nearest-remaining map (static neighbour
    mode): candidates whose mapped neighbour is unavailable are skipped, and
    when that leaves none the nearest-remaining map is used for the block.
    """
    ids = np.sort(np.asarray(ids, dtype=int))
    if len(ids) < 2:
        raise ValueError("fewer than two remaining users")
    candidates, neighbors = ids, None
    if neighbor_of is not None:
        mapped = np.array([neighbor_of.get(i, -1) for i in ids.tolist()])
        usable = np.isin(mapped, ids) & (mapped != ids)
        if usable.any():
            candidates, neighbors = ids[usable], mapped[usable]
    if neighbors is None:
        neighbors = _nearest(ids, dist_matrix)
    gains, avg = np.asarray(block_gains), np.asarray(avg_rates)
    r1, r2, _, _ = rate_kernel(
        scheme, gains[candidates], gains[neighbors], est_gain[candidates, neighbors],
        params, split.alpha,
    )
    k = _pf_argmax(r1 / avg[candidates] + r2 / avg[neighbors])
    return int(candidates[k]), int(neighbors[k])


def pf_update(avg_rates: np.ndarray, served_rates: np.ndarray, tau: float) -> np.ndarray:
    """One forgetting-factor update of the average-rate ledger; unscheduled
    users contribute a served rate of zero."""
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau!r}")
    avg = np.asarray(avg_rates, dtype=float)
    served = np.asarray(served_rates, dtype=float)
    return (1.0 - tau) * avg + tau * served


@dataclass(frozen=True)
class IntervalResult:
    """Outcome of scheduling one interval."""

    assignment: tuple     # ((relay, second), ...) per block, roles as served
    block_rates: tuple    # ((r1, r2), ...) per block
    served: np.ndarray    # (K,) per-user served rate this interval
    sum_rate: float
    role_swaps: int
    r2_clamps: int


def _cross_check_pair(scheme, g01, g02, g12, params, split, sr) -> None:
    """Per-pair dominance checks of served pairs against the plain
    superposition baseline."""
    if scheme is Scheme.GBC:
        return
    base = serve_pair(Scheme.GBC, g01, g02, 0.0, params, split)
    ok = sr.r2 >= base.r2 - (1e-12 if scheme is Scheme.RBC_DF else 1e-6)
    if scheme is not Scheme.RBC_CF:
        ok &= sr.r1 == base.r1
    if not ok.all():
        b = int(np.argmin(ok))
        raise RuntimeError(
            f"per-pair dominance violated for {scheme.label}: "
            f"served=({sr.r1[b]}, {sr.r2[b]}) baseline=({base.r1[b]}, {base.r2[b]}) "
            f"g01={g01[b]} g02={g02[b]} g12={g12[b]} alpha={split.alpha}"
        )


def schedule_interval(
    scheme: Scheme,
    pairing: str,
    bs_gains: np.ndarray,
    dist_matrix: np.ndarray,
    avg_rates: np.ndarray,
    params: ChannelParams,
    split: PowerSplit,
    est_gain: np.ndarray,
    draw_pair_gain: Callable[[int, int], float],
    neighbors: str = "recompute",
    cross_check: bool = False,
) -> IntervalResult:
    """Assign and serve all blocks of one scheduling interval.

    ``bs_gains`` is (K, B) with this interval's true BS power gains,
    ``avg_rates`` the (K,) PF ledger, finite and positive, ``est_gain`` the
    (K, K) inter-user power-gain estimates and ``draw_pair_gain(i, j)`` the
    true inter-user gain sampler used at serve time, called once per block
    in block order.  Blocks run in order with cumulative removals.  When
    removals exhaust one near-far half for a block (possible only for small
    K relative to B, since group membership is per block), the remaining
    users are re-split for that block.  All pairs are then served in one
    call.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}; expected one of {PAIRINGS}")
    if neighbors not in NEIGHBOR_MODES:
        raise ValueError(f"unknown neighbour mode {neighbors!r}; expected one of {NEIGHBOR_MODES}")
    n_users, n_blocks = bs_gains.shape
    if n_users < 2 * n_blocks:
        raise ValueError(f"{n_users} users cannot fill {n_blocks} blocks with pairs")
    avg_rates = np.asarray(avg_rates, dtype=float)
    if avg_rates.shape != (n_users,) or not (
            np.isfinite(avg_rates).all() and avg_rates.min() > 0.0):
        raise ValueError("the PF ledger avg_rates must hold one finite, positive "
                         f"rate per user, got {avg_rates}")

    available = np.ones(n_users, dtype=bool)
    static_map = None
    if pairing == "nearest" and neighbors == "static":
        static_map = nearest_remaining(np.arange(n_users), dist_matrix)

    assignment = []
    role_swaps = 0
    for b in range(n_blocks):
        ids = np.flatnonzero(available)
        if pairing == "near-far":
            g1_ids, g2_ids = split_groups(bs_gains[:, b])
            g1_ids = g1_ids[available[g1_ids]]
            g2_ids = g2_ids[available[g2_ids]]
            if len(g1_ids) == 0 or len(g2_ids) == 0:
                g1_ids, g2_ids = split_groups(bs_gains[:, b], ids=ids)
            k1, k2 = near_far_pair(
                g1_ids, g2_ids, bs_gains[:, b], avg_rates, est_gain,
                scheme, params, split,
            )
        else:
            k1, k2 = nearest_neighbor_pair(
                ids, dist_matrix, bs_gains[:, b], avg_rates, est_gain,
                scheme, params, split, neighbor_of=static_map,
            )
        available[k1] = False
        available[k2] = False
        if bs_gains[k1, b] * params.n2 < bs_gains[k2, b] * params.n1:
            k1, k2 = k2, k1
            role_swaps += 1
        assignment.append((k1, k2))

    relays, seconds = np.array(assignment).T
    blocks = np.arange(n_blocks)
    g01, g02 = bs_gains[relays, blocks], bs_gains[seconds, blocks]
    g12 = np.zeros(n_blocks) if scheme is Scheme.GBC else \
        np.array([draw_pair_gain(relay, second) for relay, second in assignment])
    sr = serve_pair(scheme, g01, g02, g12, params, split)
    if cross_check:
        _cross_check_pair(scheme, g01, g02, g12, params, split, sr)
    served = np.zeros(n_users)
    served[relays] = sr.r1
    served[seconds] = sr.r2
    block_rates = tuple(zip(sr.r1.tolist(), sr.r2.tolist()))
    return IntervalResult(
        assignment=tuple(assignment),
        block_rates=block_rates,
        served=served,
        sum_rate=float(sum(r1 + r2 for r1, r2 in block_rates)),
        role_swaps=role_swaps,
        r2_clamps=int(np.count_nonzero(sr.r2_clamped)),
    )
