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
the ``Scheme`` properties say what differs between them.  Only the interval
loop is sequential, because each PF update depends on the previous
interval, and it does only the work that depends on the ledger.  What
depends on a trial's draws alone is computed on the T trial rows, for all
schemes at once: the inter-user gain estimates and the distance order of
nearest pairing once per trial, which the scheduler reads through
``trial_of``, and per chunk of ``BS_CHUNK_INTERVALS`` intervals the BS
gains, the relay rates r1 of each distinct r1 formula
(``rates.relay_rate_formulas``), from which both pairings score and serve
their relays, and near-far's per-block strong halves, gathered to the
lanes.  Lanes never interact, so a lane's result does not depend on which
other lanes share its batch.

Randomness uses the counter-based Philox generator.  Each trial's seed is
derived from (master seed, trial index) only and splits into three child
streams, drawn in this order and shared by the trial's lanes:

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

Experiment spec.  A ``SimConfig`` holds the lists an experiment runs over,
its schemes, pairings and relay-power points, and ``validate`` checks each
list once.  ``plan_tasks`` puts the schemes into ``min(parallel,
schemes)`` groups of whole r2-formula runs and cuts the trials into as
few contiguous chunks as keep the workers busy; a task is the config
narrowed to one scheme group and one pairing, with one trial chunk at all
relay-power points.  ``run_experiment`` runs all tasks in one pool of
``min(parallel, CPUs, tasks)`` workers; with one worker, in this process.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ChannelParams, PowerSplit, Scheme
from .rates import relay_rate, relay_rate_formulas, second_rate_runs
from .scheduling import (NEIGHBOR_MODES, PAIRINGS, distance_order, near_far_ranks, pf_update,
                         schedule_lanes)

SECTOR_HALF_ANGLE = math.pi / 3.0  # 120-degree sector, centred on the x axis
AVG_RATE_INIT = 1e-3               # PF ledger start value; washed out within tens of intervals

FADING_MODES = ("iid", "static")
# Closed ranges of the float fields.  The placement squares the radii.
# Measured path-loss exponents lie between about 2 and 6; up to 10, every
# inter-user gain (d / De)^-gamma stays finite down to d / De = 1e-30.
RANGES = {"inner_radius_m": (1e-100, 1e100), "edge_radius_m": (1e-100, 1e100),
          "path_loss_exp": (0.0, 10.0), "alpha": (0.0, 1.0)}
MINIMUMS = {"users": 2, "blocks": 1, "intervals": 1, "trials": 1, "seed": 0}  # the int fields
BS_CHUNK_INTERVALS = 32            # intervals of i.i.d. BS fading drawn per trial at once


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment: the cell, the schedule and the
    lists it runs over, every scheme under every pairing at every point."""

    users: int = 40
    blocks: int = 4
    edge_radius_m: float = 500.0
    inner_radius_m: float = 50.0
    path_loss_exp: float = 3.0
    edge_snr_db: float = 10.0
    p1_over_p0_db: tuple = (0.0,)  # relay-power points, dB over the BS power
    tau: float = 0.01
    alpha: float = 0.2
    schemes: tuple = (Scheme.GBC,)
    pairings: tuple = ("near-far",)
    intervals: int = 1000
    trials: int = 50
    seed: int = 0
    fading: str = "iid"            # redraw per interval, or once per trial ("static")
    neighbors: str = "recompute"   # nearest-pairing neighbour policy
    cross_check: bool = False      # assert per-pair dominance while serving

    @property
    def p0(self) -> float:
        """BS power, in units of the noise power, giving the configured
        expected SNR at the cell edge."""
        return 10.0 ** (self.edge_snr_db / 10.0)

    @property
    def relay_powers(self) -> tuple:
        """The relay power of each point of ``p1_over_p0_db``."""
        return tuple(self.p0 * 10.0 ** (db / 10.0) for db in self.p1_over_p0_db)

    def validate(self) -> list[str]:
        """All violated constraints, empty when the config is usable.  A
        field of the wrong type is reported once and skips its range
        checks; each list field is checked once, for its type, emptiness,
        repeats and every entry."""
        bad = {name for name in MINIMUMS if not _is_int(getattr(self, name))}
        errors = [f"{name} must be an integer, got {getattr(self, name)!r}"
                  for name in MINIMUMS if name in bad]
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not _is_finite(value):
                bad.add(name)
                errors.append(f"{name} must be a finite number, got {value!r}")

        def check(names, ok, message) -> bool:
            """Record ``message`` unless one of ``names`` is mistyped or
            ``ok()`` holds; False when it was recorded."""
            if bad.isdisjoint(names.split()) and not ok():
                errors.append(message)
                return False
            return True

        def entries(name) -> tuple:
            """The entries of list field ``name``, after recording a value
            that is not a list, an empty list or a repeated entry."""
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                errors.append(f"{name} must be a list, got {values!r}")
                return ()
            repeats = [v.label if isinstance(v, Scheme) else v
                       for k, v in enumerate(values) if v in values[:k]]
            if not values or repeats:
                errors.append(f"{name} lists {repeats[0]!r} more than once" if repeats
                              else f"{name} must list at least one value")
            return tuple(values)

        for name, lo in MINIMUMS.items():
            value = getattr(self, name)
            check(name, lambda: value >= lo, f"{name} must be >= {lo}, got {value}")
        check("users blocks", lambda: self.users >= 2 * self.blocks,
              f"users ({self.users}) must be >= 2 * blocks ({self.blocks})")
        for name, (lo, hi) in RANGES.items():
            value = getattr(self, name)
            if not check(name, lambda: lo <= value <= hi,
                         f"{name} must lie in [{lo:g}, {hi:g}], got {value}"):
                bad.add(name)
        check("edge_radius_m inner_radius_m", lambda: self.edge_radius_m > self.inner_radius_m,
              f"edge_radius_m ({self.edge_radius_m}) must exceed "
              f"inner_radius_m ({self.inner_radius_m})")
        check("tau", lambda: 0.0 < self.tau < 1.0, f"tau must lie in (0, 1), got {self.tau}")
        if not check("edge_snr_db", lambda: _power_ok(lambda: self.p0, positive=True),
                     f"edge_snr_db ({self.edge_snr_db}) gives a BS power that is not "
                     "finite and positive"):
            bad.add("edge_snr_db")  # the relay power scales the BS power
        for db in entries("p1_over_p0_db"):
            if not _is_finite(db):
                errors.append(f"p1_over_p0_db lists {db!r}, which is not a finite number")
                continue
            check("edge_snr_db", lambda: _power_ok(lambda: self.p0 * 10.0 ** (db / 10.0)),
                  f"p1_over_p0_db ({db}) gives a relay power that is not finite")
        labels = tuple(s.label for s in Scheme)
        errors += [f"schemes lists {s!r}, which is not one of {labels}"
                   for s in entries("schemes") if not isinstance(s, Scheme)]
        errors += [f"pairings lists {p!r}, which is not one of {PAIRINGS}"
                   for p in entries("pairings") if p not in PAIRINGS]
        for name, modes in (("fading", FADING_MODES), ("neighbors", NEIGHBOR_MODES)):
            if getattr(self, name) not in modes:
                errors.append(f"{name} must be one of {modes}, got {getattr(self, name)!r}")
        if not isinstance(self.cross_check, bool):
            errors.append(f"cross_check must be true or false, got {self.cross_check!r}")
        return errors


_FLOAT_FIELDS = ("edge_radius_m", "inner_radius_m", "path_loss_exp", "edge_snr_db",
                 "tau", "alpha")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite int or float, not a bool; an int too large for a float is
    not finite."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def _power_ok(power: Callable[[], float], positive: bool = False) -> bool:
    try:
        value = power()
    except OverflowError:
        return False
    return math.isfinite(value) and (value > 0.0 or not positive)


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


def _trial_streams(trial_seed):
    """Topology, BS-fading and inter-user-fading generators of one trial:
    a stateless equivalent of ``spawn(3)``, which would advance the
    parent's child counter and break seed reuse across combinations."""
    ss = trial_seed if isinstance(trial_seed, np.random.SeedSequence) \
        else np.random.SeedSequence(trial_seed)
    return tuple(
        np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + (k,))))
        for k in range(3)
    )


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


def run_lanes(config: SimConfig, trial_seeds: Sequence,
              keep_assignments: bool = False) -> LaneResult:
    """Every (scheme, trial, relay-power point) lane of the config's one
    pairing, advanced together one interval at a time.

    What depends on a trial's draws only is computed on trial rows and
    shared by all its lanes: the topology, inter-user gain estimates and
    distance order once, and the BS gains, relay rates and near-far strong
    halves per chunk of ``BS_CHUNK_INTERVALS`` intervals, the relay rates
    once per distinct r1 formula of the schemes, for both pairings.  The
    interval loop does the ledger-dependent work.  ``trial_seeds`` are ints
    or numpy SeedSequences.
    """
    if not len(trial_seeds):
        raise ValueError("trial_seeds must not be empty")
    _check(config)
    if len(config.pairings) != 1:
        raise ValueError(f"run_lanes runs one pairing, got {config.pairings!r}")
    schemes, n_points, n_trials = config.schemes, len(config.p1_over_p0_db), len(trial_seeds)
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
    pairing = config.pairings[0]
    near_far = pairing == "near-far"

    streams = [_trial_streams(s) for s in trial_seeds]
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
    order = neighbor_of = None
    if not near_far:
        order = distance_order(dist)
        if config.neighbors == "static":
            neighbor_of = order[trial_of, :, 0]

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
        if near_far:
            strong = near_far_ranks(chunk)
        for interval in range(first, first + n):
            i = interval - first
            if i < chunk.shape[1]:
                gains, relay_r1 = chunk[trial_of, i], r1[r1_row, i]
                ranks = strong[trial_of, i] if near_far else None

            def pair_gains(relays, seconds):
                return path(lane_trial, relays, seconds) * fading[trial_of, interval]

            res = schedule_lanes(
                segments=segments,
                pairing=pairing,
                bs_gains=gains,
                avg_rates=avg,
                params=params,
                split=split,
                est_gain=est_gain,
                pair_gains=pair_gains,
                trial_of=trial_of,
                ranks=ranks,
                neighbor_order=order,
                neighbor_of=neighbor_of,
                relay_power=relay_power,
                relay_r1=relay_r1,
                cross_check=config.cross_check,
            )
            total += res.sum_rate
            role_swaps += res.role_swaps
            r2_clamps += res.r2_clamps
            if assignments is not None:
                assignments.append(np.stack((res.relays, res.seconds), axis=-1))
            avg = pf_update(avg, res.served, config.tau)

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
    """One unit of pool work: trials ``first`` .. ``first + len(seeds) - 1``
    of ``config``, which holds the task's schemes and its one pairing, at
    every relay-power point."""

    config: SimConfig
    first: int
    seeds: tuple


def _run_task(task: LaneTask) -> LaneResult:
    return run_lanes(task.config, task.seeds)


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
    seeds = np.random.SeedSequence(config.seed).spawn(config.trials)
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
        LaneTask(replace(config, schemes=group, pairings=(pairing,)), a, tuple(seeds[a:b]))
        for pairing in pairings for group in groups for a, b in zip(bounds, bounds[1:])
    ]


def effective_parallel(parallel: int, n_tasks: int) -> int:
    """Worker processes actually used: the requested degree clamped to the
    CPU count and the task count."""
    return max(1, min(parallel, os.cpu_count() or 1, n_tasks))


def run_experiment(config: SimConfig, parallel: int = 1,
                   progress: Optional[Callable[[str], None]] = None) -> list[SimResult]:
    """One SimResult per (scheme, pairing, relay-power point) of the
    config, in that order.

    All tasks run in one process pool when more than one worker is
    used.  Trial seeds depend on the master seed and trial index only, and
    lanes never interact, so every combination reuses the same topologies
    and fading (common random numbers) and the output is independent of
    the parallel degree, of the chunking and of the scheme grouping.
    """
    tasks = plan_tasks(config, parallel)
    workers = effective_parallel(parallel, len(tasks))
    sweep = config.p1_over_p0_db
    if progress is not None:
        progress(f"running {len(tasks)} tasks on {workers} worker(s): "
                 f"{len(config.schemes)} schemes x {len(config.pairings)} pairings, "
                 f"{len(sweep)} relay powers x "
                 f"{config.trials} trials x {config.intervals} intervals each")

    def finished(results):
        for k, (task, res) in enumerate(zip(tasks, results), 1):
            if progress is not None:
                progress(f"done {'+'.join(s.label for s in task.config.schemes)} / "
                         f"{task.config.pairings[0]}, trials "
                         f"{task.first}-{task.first + len(task.seeds) - 1} ({k}/{len(tasks)})")
            yield res

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(finished(pool.map(_run_task, tasks)))
    else:
        outcomes = list(finished(map(_run_task, tasks)))

    # lane (c * T + t) * S + s: scheme c, trial t at point s
    combos = list(itertools.product(config.schemes, config.pairings))
    shape = (len(combos), len(sweep), config.trials)
    means, swaps, clamps = np.empty(shape), np.empty(shape, dtype=int), np.empty(shape, dtype=int)
    for task, res in zip(tasks, outcomes):
        schemes = task.config.schemes
        at = ([combos.index((s, task.config.pairings[0])) for s in schemes], slice(None),
              slice(task.first, task.first + len(task.seeds)))
        for whole, part in ((means, res.mean_sum_rate), (swaps, res.role_swaps),
                            (clamps, res.r2_clamps)):
            whole[at] = part.reshape(len(schemes), len(task.seeds), -1).transpose(0, 2, 1)
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
    return results


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
