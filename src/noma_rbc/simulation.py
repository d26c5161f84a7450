"""Single-cell downlink Monte-Carlo engine.

Topology, Rayleigh-fading gain draws, per-interval proportional-fair
scheduling and sum-rate aggregation over intervals and trials.

Gain model: the BS sits at the origin of a 120-degree annular sector; a
user at distance d has power gain |f|^2 * (d / De)^(-gamma) with Rayleigh
power fading |f|^2 ~ Exp(1).  Path loss applies to POWER, calibrated so a
cell-edge user has unit expected gain and therefore sees exactly the
configured edge SNR.  Inter-user links use the same model with independent
fading, drawn per served pair per block.

Lanes.  A lane is one (scheme, trial, relay-power point) of a pairing,
scheme-major: lane (c * T + t) * S + s.  ``run_lanes`` advances all lanes
of a task together, one interval at a time: ``schedule_lanes`` runs each
selection stage and serving for all lanes, each with one
``rates.second_rates`` call over the lanes' scheme segments, and the PF
ledger is an (L, K) array.  Neither module names a scheme: ``rates`` and
the ``Scheme`` properties say what differs between them.  Only the engine
reads the pairing, to bind the stages that ``schedule_lanes`` selects
through: ``NearestStages`` once per task, ``NearFarStages`` per BS draw.
Only the interval loop is sequential, because each PF update depends on
the previous interval, and it does only the work that depends on the
ledger.  What depends on a trial's draws alone is computed on the T trial
rows, for all schemes at once: the inter-user gain estimates and the
distance order of nearest pairing once per trial, which the stages read
through ``trial_of``, and per chunk of ``BS_CHUNK_INTERVALS`` intervals
the BS gains, the relay rates r1 of each distinct r1 formula
(``rates.relay_rate_formulas``), from which both pairings score and serve
their relays, and near-far's per-block user tables of the weak and the
strong half, gathered to the lanes.  Lanes never interact, so a lane's
result does not depend on which other lanes share its batch.

Randomness uses the counter-based Philox generator.  Trial t's three
streams are the children (t, k), k = 0, 1, 2, of the master seed, so they
depend on (master seed, trial index) only; they are drawn in this order
and shared by the trial's lanes:

* topology: the user positions, once per trial, hence the distance matrix
  and the inter-user gain estimates;
* BS fading: per interval a (K, B) draw of real parts, then one of
  imaginary parts, drawn per trial in chunks of ``BS_CHUNK_INTERVALS``
  intervals as one (n, 2, K, B) draw, which keeps that stream order and
  so the values of one draw per interval; with ``fading: static`` one
  interval's draw per trial serves every interval;
* inter-user fading: one (B, 2) draw per interval, real and imaginary part
  block by block, the order of one scalar draw per served pair (none
  when no scheme of the task uses the relay link).

Any two runs with the same master seed therefore see identical topologies
and fading regardless of scheme, pairing, relay power, chunking or
parallel degree (common random numbers).

Experiment spec.  A ``SimConfig`` (``config``, beside the table of config
keys that checks it) holds the lists an experiment runs over, its schemes,
pairings and relay-power points.  ``run_experiment`` clamps ``parallel``
to the usable CPUs and plans for that degree: ``plan_tasks`` puts the
schemes into ``min(degree, schemes)`` groups of whole r2-formula runs and
cuts the trials into as few contiguous chunks as keep the workers busy; a
task is the config narrowed to one scheme group and one pairing, with a
range of trial indices at all relay-power points.  The tasks run on
``min(degree, tasks)`` workers, the calling process among them: with more
than one, it forks a pool of the others.  Every worker
runs ``_claim_tasks``, claiming tasks in plan order from one counter.
"""

from __future__ import annotations

import csv
import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .config import SimConfig
from .core import ChannelParams, PowerSplit
from .rates import relay_rate, relay_rate_formulas, second_rate_runs
from .scheduling import (NearestStages, NearFarStages, distance_order, near_far_tables,
                         pf_update, schedule_lanes)

SECTOR_HALF_ANGLE = math.pi / 3.0  # 120-degree sector, centred on the x axis
AVG_RATE_INIT = 1e-3               # PF ledger start value; washed out within tens of intervals
AVG_RATE_FLOOR = 1e-300            # PF ledger floor: r/avg stays finite for any float rate
BS_CHUNK_INTERVALS = 32            # intervals of i.i.d. BS fading drawn per trial at once


def _check(config: SimConfig) -> None:
    """Raise listing every violated constraint of ``config``."""
    errors = config.validate()
    if errors:
        raise ValueError("invalid config: " + "; ".join(errors))


def generate_topology(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """(K, 2) user positions as (radius_m, angle_rad), uniform by area over
    the annular sector (radius pdf proportional to r)."""
    r0, r1 = config.inner_radius_m, config.edge_radius_m
    u = rng.uniform(size=config.users)
    radius = np.sqrt(r0 * r0 + u * (r1 * r1 - r0 * r0))
    angle = rng.uniform(-SECTOR_HALF_ANGLE, SECTOR_HALF_ANGLE, size=config.users)
    return np.column_stack([radius, angle])


def positions_xy(polar: np.ndarray) -> np.ndarray:
    """Cartesian (x, y) for (radius, angle) rows, BS at the origin."""
    return np.column_stack([polar[:, 0] * np.cos(polar[:, 1]),
                            polar[:, 0] * np.sin(polar[:, 1])])


def mean_radius_analytic(config: SimConfig) -> float:
    """Exact mean user distance of the area-uniform annular placement."""
    r0, r1 = config.inner_radius_m, config.edge_radius_m
    return (2.0 / 3.0) * (r1 ** 3 - r0 ** 3) / (r1 ** 2 - r0 ** 2)


def rayleigh_power(rng: np.random.Generator, size=None):
    """|f|^2 for f ~ CN(0, 1): real parts, then imaginary parts."""
    return _fading_power(rng.standard_normal(size), rng.standard_normal(size))


def _fading_power(re, im):
    """|f|^2 for f = (re + j im) / sqrt(2); the complex factor exists only
    here."""
    return np.abs((re + 1j * im) / np.sqrt(2.0)) ** 2


def path_gain(distance_m, config: SimConfig):
    """Expected power gain (d / De)^(-gamma); unity at the cell edge."""
    return (np.asarray(distance_m, dtype=float) / config.edge_radius_m) ** (-config.path_loss_exp)


def draw_bs_gains(radii: np.ndarray, config: SimConfig, rng: np.random.Generator,
                  intervals: int = 1) -> np.ndarray:
    """(intervals, K, B) true BS power gains of consecutive intervals:
    Rayleigh power fading times the distance path gain, i.i.d. per
    (interval, user, block).  One (intervals, 2, K, B) standard-normal
    draw gives per interval the real parts, then the imaginary parts: the
    stream order, and the values, of one ``rayleigh_power`` call per
    interval."""
    pl = path_gain(radii, config)
    z = rng.standard_normal((intervals, 2, len(radii), config.blocks))
    return _fading_power(z[:, 0], z[:, 1]) * pl[:, None]


def pair_fading(rng: np.random.Generator, intervals: int, blocks: int) -> np.ndarray:
    """(intervals, blocks) Rayleigh power fading of the served pairs' inter-user
    links for one trial: per interval one (blocks, 2) standard-normal draw,
    real part then imaginary part, block by block.  Each |f|^2 is squared
    as a Python float, so that a seed gives the same gains as one scalar
    draw per served pair did; numpy's array square rounds a few draws in
    10^4 differently."""
    f = np.abs((rng.standard_normal((intervals, blocks, 2)) / np.sqrt(2.0)).view(complex))
    return np.array([x ** 2 for x in f.ravel().tolist()]).reshape(intervals, blocks)


class PairPathGains:
    """Expected inter-user power gains (d / De)^(-gamma) for the (T, K, K)
    distances of T trials, looked up as ``gains(trials, i, j)`` with
    broadcastable index arrays.  A gain is computed at its first lookup, so
    only the pairs ever served are, each as one scalar power of its
    distance over De, like the per-pair path gains it replaces (numpy's
    array power rounds some distances differently).  Symmetric distances
    give (i, j) and (j, i) the same gain.  A user's gain to itself is 1."""

    def __init__(self, dist: np.ndarray, config: SimConfig):
        self.ratio, self.exponent = dist / config.edge_radius_m, -config.path_loss_exp
        users = np.arange(dist.shape[-1])
        self.table = np.full(dist.shape, np.nan)  # NaN: not computed yet
        self.table[:, users, users] = 1.0

    def __call__(self, trials, firsts, seconds) -> np.ndarray:
        n_users = self.table.shape[-1]
        flat = np.asarray((trials * n_users + firsts) * n_users + seconds)
        gains = np.asarray(self.table.take(flat))
        if np.isnan(gains.sum()):
            new = np.isnan(gains)
            at = flat[new]
            gains[new] = [math.pow(x, self.exponent) for x in self.ratio.take(at).tolist()]
            self.table.put(at, gains[new])
        return gains


def _trial_streams(seed: int, trial: int):
    """Topology, BS-fading and inter-user-fading generators of trial
    ``trial``: the children (trial, k), k = 0, 1, 2, of master seed ``seed``."""
    return tuple(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(trial, k)))) for k in range(3))


def _lane_points(config: SimConfig) -> list[int]:
    """The relay-power points at which each scheme of ``config`` runs a lane
    per trial: all of them, or one for a scheme that does not use the relay,
    whose lanes are the same at every point."""
    return [len(config.p1_over_p0_db) if s.uses_relay else 1 for s in config.schemes]


@dataclass(frozen=True)
class LaneResult:
    """Per-lane outcome of ``run_lanes``; lane (c * T + t) * S + s is
    scheme c, trial t at relay-power point s."""

    mean_sum_rate: np.ndarray   # (L,) time-averaged sum rate
    role_swaps: np.ndarray      # (L,)
    r2_clamps: np.ndarray       # (L,)
    assignments: Optional[np.ndarray] = None  # (intervals, L, B, 2) when recorded


def run_lanes(config: SimConfig, trials: range,
              keep_assignments: bool = False) -> LaneResult:
    """Every (scheme, trial, relay-power point) lane of the config's one
    pairing, advanced together one interval at a time.

    What depends on a trial's draws only is computed on trial rows and
    shared by all its lanes: the topology, inter-user gain estimates and
    distance order once, and the BS gains, relay rates and near-far user
    tables per chunk of ``BS_CHUNK_INTERVALS`` intervals, the relay rates
    once per distinct r1 formula of the schemes, for both pairings.  The
    interval loop does the ledger-dependent work.  ``trials`` are trial
    indices; trial t draws from the children (t, k) of ``config.seed``.
    """
    if not len(trials):
        raise ValueError("trials must not be empty")
    _check(config)
    if len(config.pairings) != 1:
        raise ValueError(f"run_lanes runs one pairing, got {config.pairings!r}")
    schemes, n_points, n_trials = config.schemes, len(config.p1_over_p0_db), len(trials)
    points = _lane_points(config)
    starts = np.cumsum([0] + [n_trials * p for p in points]).tolist()
    segments = list(zip(schemes, starts, starts[1:]))
    trial_of = np.concatenate([np.repeat(np.arange(n_trials), p) for p in points])
    result_lanes = np.concatenate([a + np.repeat(np.arange(b - a), n_points // p)
                                   for (_, a, b), p in zip(segments, points)])
    # schemes that share an r1 formula share its rows of relay rates
    r1_schemes, formula_of = relay_rate_formulas(schemes)
    r1_row = np.repeat(formula_of, np.diff(starts)) * n_trials + trial_of
    # powers are in units of the noise power, the units of the CF n_hat bracket
    relay_power = np.concatenate([np.tile(config.relay_powers[:p], n_trials) for p in points])
    params = ChannelParams(p0=config.p0, p1=float(relay_power[0]), n1=1.0, n2=1.0)
    split = PowerSplit(config.alpha)
    has_relay_link = any(scheme.uses_relay for scheme in schemes)
    near_far = config.pairings[0] == "near-far"

    streams = [_trial_streams(config.seed, t) for t in trials]
    radii, dist, est_gain, fading = [], [], [], []
    for rng_topo, _, rng_pair in streams:
        polar = generate_topology(config, rng_topo)
        radii.append(polar[:, 0])
        xy = positions_xy(polar)
        diff = xy[:, None, :] - xy[None, :, :]
        d = np.sqrt((diff ** 2).sum(axis=2))
        dist.append(d)
        # inter-user gain estimate C0 * d^(-gamma) with C0 = De^gamma, so the
        # estimate equals the expected power gain of the fading model
        d_safe = d.copy()
        np.fill_diagonal(d_safe, 1.0)
        est = path_gain(d_safe, config)
        np.fill_diagonal(est, 0.0)
        est_gain.append(est)
        if has_relay_link:
            fading.append(pair_fading(rng_pair, config.intervals, config.blocks))
    est_gain, dist = np.stack(est_gain), np.stack(dist)
    if has_relay_link:
        path, fading = PairPathGains(dist, config), np.stack(fading)
    if not near_far:  # nearest pairing's stages, bound once for the task
        order = distance_order(dist)
        neighbor_of = order[trial_of, :, 0] if config.neighbors == "static" else None
        stages = partial(NearestStages, order, trial_of, neighbor_of=neighbor_of)

    n_lanes = len(trial_of)
    lane_trial = trial_of[:, None]
    avg = np.full((n_lanes, config.users), AVG_RATE_INIT)
    total = np.zeros(n_lanes)
    role_swaps = np.zeros(n_lanes, dtype=int)
    r2_clamps = np.zeros(n_lanes, dtype=int)
    assignments = [] if keep_assignments else None
    # static fading: one chunk of all intervals, drawn once for all of them
    static = config.fading == "static"
    step = config.intervals if static else BS_CHUNK_INTERVALS
    for first in range(0, config.intervals, step):
        n = min(step, config.intervals - first)
        chunk = np.stack([draw_bs_gains(r, config, rng_fading, 1 if static else n)
                          for r, (_, rng_fading, _) in zip(radii, streams)])  # (T, n or 1, K, B)
        r1 = np.concatenate([relay_rate(s, chunk, params, config.alpha) for s in r1_schemes])
        if near_far:  # (n or 1, B, T, K)
            tables = near_far_tables(chunk.transpose(1, 3, 0, 2))
        for interval in range(first, first + n):
            i = interval - first
            if i < chunk.shape[1]:
                gains, relay_r1 = chunk[trial_of, i], r1[r1_row, i]
                if near_far:
                    stages = partial(NearFarStages, tables[i][:, trial_of], trial_of)

            def pair_gains(relays, seconds):
                return path(lane_trial, relays, seconds) * fading[trial_of, interval]

            res = schedule_lanes(
                segments=segments,
                stages=stages,
                bs_gains=gains,
                avg_rates=avg,
                params=params,
                split=split,
                est_gain=est_gain,
                pair_gains=pair_gains,
                relay_power=relay_power,
                relay_r1=relay_r1,
                cross_check=config.cross_check,
            )
            total += res.sum_rate
            role_swaps += res.role_swaps
            r2_clamps += res.r2_clamps
            if assignments is not None:
                assignments.append(np.stack((res.relays, res.seconds), axis=-1))
            # a user served only as a relay of r1 = 0 (alpha = 0) decays
            # towards 0, where r/avg would overflow; the floor stops it
            avg = np.maximum(pf_update(avg, res.served, config.tau), AVG_RATE_FLOOR)

    return LaneResult(
        mean_sum_rate=(total / config.intervals)[result_lanes],
        role_swaps=role_swaps[result_lanes],
        r2_clamps=r2_clamps[result_lanes],
        assignments=np.stack(assignments)[:, result_lanes] if assignments is not None else None,
    )


@dataclass(frozen=True)
class SimResult:
    """Aggregate of one (scheme, pairing, sweep point) combination."""

    scheme: str
    pairing: str
    p1_over_p0_db: float
    mean_sum_rate: float
    stderr: float
    trials: int
    intervals: int
    seed: int
    role_swaps: int
    r2_clamps: int
    trial_means: tuple


CSV_COLUMNS = ("scheme", "pairing", "p1_over_p0_db", "mean_sum_rate",
               "stderr", "trials", "intervals", "seed")


@dataclass(frozen=True)
class LaneTask:
    """One unit of pool work: the trials of range ``trials`` of ``config``,
    which holds the task's schemes and its one pairing, at every
    relay-power point."""

    config: SimConfig
    trials: range


def _claim_tasks(tasks: Sequence[LaneTask], claims, start: float,
                 progress: Optional[Callable[[str], None]], where: str) -> list:
    """Runs the next unclaimed task of ``tasks``, its index claimed from
    the counter ``claims``, until none is left, and says through
    ``progress`` that ``where`` ran each as soon as it ends.  Returns
    (index, result) of every task it ran.  On any exception it sets the
    counter past the end, so that no process claims another task, and
    re-raises."""
    ran = []
    try:
        while True:
            with claims.get_lock():
                k = claims.value
                claims.value = k + 1
            if k >= len(tasks):
                return ran
            task = tasks[k]
            ran.append((k, run_lanes(task.config, task.trials)))
            if progress is not None:
                progress(f"done {'+'.join(s.label for s in task.config.schemes)} / "
                         f"{task.config.pairings[0]}, trials "
                         f"{task.trials[0]}-{task.trials[-1]} "
                         f"({k + 1}/{len(tasks)}) in {where} at "
                         f"{time.monotonic() - start:.2f} s")
    except BaseException:
        claims.value = len(tasks)  # a shared counter's setter takes its lock
        raise


_pool_claims = _pool_progress = None  # a pool worker's, set by ``_join_pool``


def _join_pool(claims, progress) -> None:
    global _pool_claims, _pool_progress
    _pool_claims, _pool_progress = claims, progress


def _pool_share(tasks: Sequence[LaneTask], start: float) -> list:
    """A pool worker's share of ``tasks``, as ``_claim_tasks`` returns it."""
    return _claim_tasks(tasks, _pool_claims, start, _pool_progress, "a pool worker")


def plan_tasks(config: SimConfig, parallel: int) -> list[LaneTask]:
    """The experiment's tasks, in (pairing, scheme group, trial) order.

    The config's schemes go into ``min(parallel, schemes)`` groups, one
    scheme per group when there are as many groups as schemes.  With fewer,
    the ``parallel - 1`` r2-formula runs (``rates.second_rate_runs``) with
    the most lanes, ties in config order, each form a group and the rest
    the last, and a group lists its schemes run by run, so that each stage
    evaluates a shared r2 formula once whatever the config's order.  The
    trials are cut into as few contiguous chunks as keep ``parallel``
    workers busy, so lanes stay batched; a task holds all relay-power
    points of its trials."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    _check(config)
    schemes, pairings = tuple(config.schemes), tuple(config.pairings)
    if parallel >= len(schemes):
        groups = [(scheme,) for scheme in schemes]
    else:
        # with at most three runs (GBC, RBC-DF, the CF pair) this is the least
        # largest group, the optimum that a largest-first greedy deal reaches
        points = dict(zip(schemes, _lane_points(config)))
        runs = sorted(second_rate_runs(schemes), key=lambda run: -sum(map(points.get, run)))
        groups = runs[:parallel - 1] + [sum(runs[parallel - 1:], ())]
    chunks = min(config.trials, -(-parallel // (len(groups) * len(pairings))))
    bounds = [config.trials * c // chunks for c in range(chunks + 1)]
    return [
        LaneTask(replace(config, schemes=group, pairings=(pairing,)), range(a, b))
        for pairing in pairings for group in groups for a, b in zip(bounds, bounds[1:])
    ]


def usable_cpus() -> int:
    """The CPUs this process may run on: the affinity set where the
    platform has one, else the CPU count."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def effective_parallel(parallel: int, n_tasks: int) -> int:
    """Workers, this process among them, for ``n_tasks`` tasks planned for ``parallel``."""
    return min(parallel, n_tasks)


def run_experiment(config: SimConfig, parallel: int = 1,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> tuple[list[SimResult], int, int]:
    """One SimResult per (scheme, pairing, relay-power point) of the
    config, in that order, then the counts of tasks and workers the run used.

    The requested degree is clamped to the ``usable_cpus``, and the tasks
    are planned for that degree and run on ``effective_parallel`` workers:
    this process and, with more than one, a pool of the others, which the
    pool's initializer hands the claim counter and ``progress`` (which must
    pickle unless forked).
    Each worker runs ``_claim_tasks``, so this process starts on the first
    task at once, each task is reported by the process that ran it when it
    ends, and an exception in any worker stops all claims and is raised
    here.  A lone worker's counter is a plain one, not shared memory.  A
    trial's streams depend on the master seed and trial index only, and
    lanes never interact, so every combination reuses the same topologies
    and fading (common random numbers) and the output is independent of the
    parallel degree, of the chunking, of the scheme grouping and of which
    worker ran which task.
    """
    start = time.monotonic()
    degree = min(parallel, usable_cpus())
    tasks = plan_tasks(config, degree)
    workers = effective_parallel(degree, len(tasks))
    sweep = config.p1_over_p0_db
    # numpy refuses a run too large for memory, or past its index range (a
    # ValueError), before it is announced: the results, a task's radii and
    # its inter-user fading
    combos = list(itertools.product(config.schemes, config.pairings))
    shape, task_trials = (len(combos), len(sweep), config.trials), len(tasks[0].trials)
    try:
        means, swaps, clamps = (np.empty(shape, dtype) for dtype in (float, int, int))
        np.empty((task_trials, config.users))
        if any(scheme.uses_relay for scheme in config.schemes):
            np.empty((task_trials, config.intervals, config.blocks))
    except ValueError as exc:
        raise MemoryError(str(exc)) from None
    if progress is not None:
        progress(f"running {len(tasks)} tasks on {workers} worker(s): "
                 f"{len(config.schemes)} schemes x {len(config.pairings)} pairings, "
                 f"{len(sweep)} relay powers x "
                 f"{config.trials} trials x {config.intervals} intervals each")
    if workers > 1:
        context = multiprocessing.get_context()
        claims = context.Value("i", 0)
        pool = ProcessPoolExecutor(max_workers=workers - 1, mp_context=context,
                                   initializer=_join_pool, initargs=(claims, progress))
    else:
        claims, pool = SimpleNamespace(value=0, get_lock=nullcontext), nullcontext()
    with pool:
        shares = [pool.submit(_pool_share, tasks, start) for _ in range(workers - 1)]
        ran = _claim_tasks(tasks, claims, start, progress, "this process")
        for share in shares:
            ran += share.result()

    # lane (c * T + t) * S + s: scheme c, trial t at point s
    for task, (_, res) in zip(tasks, sorted(ran, key=lambda run: run[0])):
        schemes, trials = task.config.schemes, task.trials
        at = ([combos.index((s, task.config.pairings[0])) for s in schemes], slice(None),
              slice(trials.start, trials.stop))
        for whole, part in ((means, res.mean_sum_rate), (swaps, res.role_swaps),
                            (clamps, res.r2_clamps)):
            whole[at] = part.reshape(len(schemes), len(trials), -1).transpose(0, 2, 1)
    results = []
    for r, (scheme, pairing) in enumerate(combos):
        for s, p1_db in enumerate(sweep):
            m = means[r, s]
            stderr = float(m.std(ddof=1) / math.sqrt(len(m))) if len(m) > 1 else 0.0
            results.append(SimResult(
                scheme=scheme.label,
                pairing=pairing,
                p1_over_p0_db=float(p1_db),
                mean_sum_rate=float(m.mean()),
                stderr=stderr,
                trials=config.trials,
                intervals=config.intervals,
                seed=config.seed,
                role_swaps=int(swaps[r, s].sum()),
                r2_clamps=int(clamps[r, s].sum()),
                trial_means=tuple(m.tolist()),
            ))
    return results, len(tasks), workers


def write_results_csv(results: Sequence[SimResult], path) -> None:
    """Results CSV: one row per combination, header row always present."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow([
                r.scheme, r.pairing, r.p1_over_p0_db, r.mean_sum_rate,
                r.stderr, r.trials, r.intervals, r.seed,
            ])
