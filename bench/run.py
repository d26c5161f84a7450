"""End-to-end benchmark of the noma-rbc commands.

Run from the root of a checkout (the package is imported from ``src/``,
nothing needs installing):

    python3 bench/run.py --workload sim-nearfar --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``sim-nearfar``  ``simulate`` through ``cli.main``, near-far pairing, all
                   four schemes, two relay-power points, ``--parallel 2``.
* ``sim-nearest``  ``simulate`` serially, nearest pairing, all four schemes,
                   one relay-power point.
* ``analysis``     ``region`` (201 alphas x 4 schemes) at five seeded gain
                   and power points, then ``verify`` over seeded draws.

A run repeats the workload's fixed job until ``--seconds`` have passed,
timing a pure-Python reference loop between jobs, and checks every job's
output.  With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` jobs run serially, half of them under
the span tracer, and the JSON carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
if not (SRC / "noma_rbc" / "__init__.py").is_file():
    raise SystemExit(f"error: no noma_rbc package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import noma_rbc.cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7
INPUT_ROUNDS = 256          # inputs prepared per run; jobs cycle through them
REF_ITERATIONS = 200_000
ALPHA_POINTS = 201


@dataclass(frozen=True)
class SimJob:
    """One ``simulate`` call over all four schemes."""

    pairing: str
    parallel: int
    sweep: tuple
    trials: int
    intervals: int

    @property
    def units(self) -> int:
        """Scheduling intervals over all (scheme, pairing, relay power)."""
        return len(checks.SCHEMES) * len(self.sweep) * self.trials * self.intervals


@dataclass(frozen=True)
class AnalysisJob:
    """``region`` calls at seeded points plus one ``verify`` call."""

    region_points: int
    verify_draws: int
    parallel = 1

    @property
    def units(self) -> int:
        """Region points plus verify draws x schemes."""
        return len(checks.SCHEMES) * (self.region_points * ALPHA_POINTS + self.verify_draws)


WORKLOADS = {
    "sim-nearfar": SimJob(pairing="near-far", parallel=2, sweep=(-10.0, 0.0), trials=2, intervals=40),
    "sim-nearest": SimJob(pairing="nearest", parallel=1, sweep=(-10.0,), trials=4, intervals=3),
    "analysis": AnalysisJob(region_points=5, verify_draws=100),
}

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python float loop that does not use
    noma_rbc; it tracks how fast the host runs interpreter code right now."""
    t0 = time.perf_counter()
    x, acc = 0.3, 0.0
    for _ in range(REF_ITERATIONS):
        x = 3.7 * x * (1.0 - x)
        acc += math.log1p(x)
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("reference loop diverged")
    return elapsed


@contextlib.contextmanager
def reference_clock(parallel: int):
    """Yields a function that times the reference loop at the job's
    parallel degree.  With ``parallel`` > 1 the loop runs once in each of
    that many worker processes at the same time, and the wall time until
    all are done is taken: a parallel job waits for its slowest worker, so
    it slows with the busier of the host's CPUs, and so does this figure.
    The workers are forked, as ``simulate``'s are: a spawned pool would
    also start a semaphore-tracker process that outlives the pool."""
    if parallel == 1:
        yield reference_seconds
        return
    with ProcessPoolExecutor(parallel, mp_context=multiprocessing.get_context("fork")) as pool:
        def seconds():
            t0 = time.perf_counter()
            for future in [pool.submit(reference_seconds) for _ in range(parallel)]:
                future.result()
            return time.perf_counter() - t0
        seconds()  # start the workers outside any timed gap
        yield seconds


# ---------------------------------------------------------------------------
# inputs

def prepare(job, seed: int, run_dir: Path) -> list:
    """Per-round inputs drawn from ``seed``; writes the simulate config."""
    rng = np.random.default_rng(seed)
    if isinstance(job, SimJob):
        config = {
            "users": 40, "blocks": 4,
            "schemes": list(checks.SCHEMES), "pairings": [job.pairing],
            "p1_over_p0_db": list(job.sweep),
            "trials": job.trials, "intervals": job.intervals, "seed": 0,
        }
        (run_dir / "experiment.yaml").write_text(json.dumps(config) + "\n", encoding="utf-8")
        return [int(s) for s in rng.integers(0, 2 ** 31, size=INPUT_ROUNDS)]
    # The relay advantage, g12*p1 over g01*p0 in dB, decides whether the CF
    # n_hat optimizer finds a quadratic root (cheap) or falls back to its
    # golden-section search (about 10x dearer).  It is stratified over the
    # job's points, so that every job mixes the two regimes alike.
    edges = np.linspace(-40.0, 40.0, job.region_points + 1)
    rounds = []
    for _ in range(INPUT_ROUNDS):
        points = []
        for lo, hi in zip(edges, edges[1:]):
            g01_db, g02_db = sorted(rng.uniform(-20.0, 20.0, size=2), reverse=True)
            p0_db, p1_db = float(rng.uniform(0.0, 20.0)), float(rng.uniform(-10.0, 20.0))
            g12_db = rng.uniform(lo, hi) + g01_db + p0_db - p1_db
            points.append({"g01": float(10.0 ** (g01_db / 10.0)),
                           "g02": float(10.0 ** (g02_db / 10.0)),
                           "g12": float(10.0 ** (g12_db / 10.0)), "p0_db": p0_db, "p1_db": p1_db})
        rounds.append((points, int(rng.integers(0, 2 ** 31))))
    return rounds


# ---------------------------------------------------------------------------
# jobs

# Exit codes of a call that ran to its end; 3 is a failed verification,
# which the output checks report as a wrong result.
COMPLETED = (noma_rbc.cli.EXIT_OK, noma_rbc.cli.EXIT_VERIFY_FAILED)


class JobResult(NamedTuple):
    seconds: float
    exit_codes: list
    check: Callable[[], list]   # output checks, run after the timed section
    csv_paths: list

    @property
    def completed(self) -> bool:
        return all(code in COMPLETED for code in self.exit_codes)


def _cli(argv):
    """``cli.main`` with stdout captured and stderr progress dropped; an
    exception or argument error counts as a call that did not complete."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = noma_rbc.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    if code not in COMPLETED:
        print(f"{argv[0]} exited {code}: {err.getvalue().strip()[-2000:]}", file=sys.stderr)
    return code, out.getvalue()


def sim_job(job: SimJob, seed: int, run_dir: Path, out_dir: Path, parallel: int) -> JobResult:
    argv = ["simulate", "--config", str(run_dir / "experiment.yaml"), "--out", str(out_dir),
            "--seed", str(seed), "--parallel", str(parallel)]
    t0 = time.perf_counter()
    code, _ = _cli(argv)
    elapsed = time.perf_counter() - t0
    csv_path = out_dir / "sum_rate.csv"

    def check():
        return checks.check_sum_rate(csv_path, job.pairing, job.sweep, job.trials,
                                     job.intervals, seed)
    return JobResult(elapsed, [code], check, [csv_path])


def analysis_job(job: AnalysisJob, inputs, run_dir: Path, out_dir: Path, parallel: int) -> JobResult:
    points, verify_seed = inputs
    argvs = [["region", "--out", str(out_dir / f"region{i}"), "--alpha-grid", str(ALPHA_POINTS)]
             + [a for key in ("g01", "g02", "g12", "p0_db", "p1_db")
                for a in (f"--{key.replace('_', '-')}", repr(p[key]))]
             for i, p in enumerate(points)]
    argvs.append(["verify", "--count", str(job.verify_draws), "--seed", str(verify_seed)])
    t0 = time.perf_counter()
    results = [_cli(argv) for argv in argvs]
    elapsed = time.perf_counter() - t0
    csv_paths = [out_dir / f"region{i}" / "rate_region.csv" for i in range(len(points))]

    def check():
        errors = [e for p, path in zip(points, csv_paths)
                  for e in checks.check_region(path, p, ALPHA_POINTS)]
        return errors + checks.check_verify(*results[-1], job.verify_draws)
    return JobResult(elapsed, [code for code, _ in results], check, csv_paths)


def run_job(job, job_input, run_dir: Path, out_dir: Path, parallel: int) -> JobResult:
    fn = sim_job if isinstance(job, SimJob) else analysis_job
    return fn(job, job_input, run_dir, out_dir, parallel)


def negative_controls(job, job_input, out_dir: Path) -> list[str]:
    """Feed the checks deliberately wrong outputs; each must be caught."""
    errors = []
    if isinstance(job, SimJob):
        path = out_dir / "sum_rate.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[5] = str(job.trials + 1)
        bad = out_dir / "perturbed.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n", encoding="utf-8")
        if not checks.check_sum_rate(bad, job.pairing, job.sweep, job.trials, job.intervals,
                                     job_input):
            errors.append("a sum_rate row with a wrong trial count passed the checks")
        return errors
    points, _ = job_input
    path = out_dir / "region0" / "rate_region.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[40].split(",")
    cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))
    bad = out_dir / "perturbed.csv"
    bad.write_text("\n".join(lines[:40] + [",".join(cells)] + lines[41:]) + "\n", encoding="utf-8")
    if not checks.check_region(bad, points[0], ALPHA_POINTS):
        errors.append("a region row with r1 off by 1e-9 relative passed the checks")
    code, stdout = _cli(["verify", "--count", "2", "--inject-error"])
    if code != noma_rbc.cli.EXIT_VERIFY_FAILED:
        errors.append(f"verify --inject-error exited {code}, expected 3")
    # the same report with a clean exit code: the delta test alone must fail it
    if not checks.check_verify(noma_rbc.cli.EXIT_OK, stdout, 2):
        errors.append("a verify report with a 1e-6 nats delta passed the checks")
    return errors


def _digest(paths, label):
    for p in paths:
        print(f"sha256 {label} {p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}")


# ---------------------------------------------------------------------------
# runs

class Tally:
    """Operation counts and check failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def job(self, result: JobResult, label: str) -> float:
        """Count the job's calls; check its outputs if every call completed."""
        self.attempted += len(result.exit_codes)
        self.failed += sum(code not in COMPLETED for code in result.exit_codes)
        if result.completed:
            self.errors.extend(result.check())
            _digest(result.csv_paths, label)
        return result.seconds


def timed_setup(workload: str, seed: int, run_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports the package and
    prepares the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload,
                    "--seed", str(seed), "--out", str(run_dir)], check=True)
    return time.perf_counter() - t0


def peak_rss_mb(pools: tracing.PoolWatch) -> float:
    """Peak resident memory of this process plus the largest summed peak of
    one pool's workers.  The set-up and reference-loop children are left
    out: they are the benchmark's, not the workload's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(pools.worker_peaks_kb, default=0)) / 1024.0


def untraced_run(workload, seed, seconds, run_dir, tally):
    """Jobs back to back for ``seconds``, a reference loop timed between
    each two; the set-up is timed ``SETUP_REPEATS`` times spread over the
    run, so that each figure samples the host's fast and slow stretches."""
    job = WORKLOADS[workload]
    pools = tracing.PoolWatch()
    setups = [timed_setup(workload, seed, run_dir)]
    inputs = prepare(job, seed, run_dir)
    out_dir = run_dir / "out"
    walls, ratios = [], []
    first_parallel = None
    with reference_clock(job.parallel) as reference_time:
        start = time.perf_counter()
        ref_before = reference_time()
        while not walls or time.perf_counter() - start < seconds:
            k = len(walls)
            job_input = inputs[k % len(inputs)]
            with pools.active():
                result = run_job(job, job_input, run_dir, out_dir, job.parallel)
            ref_after = reference_time()
            walls.append(result.seconds)
            ratios.append(result.seconds / (0.5 * (ref_before + ref_after)))
            tally.job(result, f"{workload} round={k}")
            if k == 0 and job.parallel > 1 and result.completed:
                first_parallel = result.csv_paths[0].read_bytes()
            if len(setups) < SETUP_REPEATS and \
                    time.perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
                setups.append(timed_setup(workload, seed, run_dir))
            ref_before = ref_after
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload, seed, run_dir))
    if result.completed:  # perturb the last job's outputs, still in out_dir
        tally.errors.extend(negative_controls(job, job_input, out_dir))
    if first_parallel is not None:
        serial = run_job(job, inputs[0], run_dir, out_dir, 1)
        tally.job(serial, f"{workload} serial")
        if serial.completed and serial.csv_paths[0].read_bytes() != first_parallel:
            tally.errors.append(f"--parallel {job.parallel} and serial CSVs differ")
    # Raw wall time is reported here but is not a benchmark metric: on a
    # shared host its run-to-run spread is several times that of wall_ref.
    wall_s = statistics.median(walls)
    print(f"{workload}: {len(walls)} jobs, wall_s median {wall_s:.4f} min {min(walls):.4f} "
          f"max {max(walls):.4f}, throughput_per_s {job.units / wall_s:.2f}", file=sys.stderr)
    values = {
        "wall_ref": statistics.median(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(pools),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def traced_run(workload, seed, seconds, run_dir, tally):
    """Serial rounds, each one untraced and one traced job on the same
    input (alternating which goes first); ``sim-nearfar`` also runs its
    parallel job per round to count pools and compare CSVs."""
    job = WORKLOADS[workload]
    inputs = prepare(job, seed, run_dir)
    tracer, pools = tracing.Tracer(), tracing.PoolWatch()
    plain_s = traced_s = 0.0
    parallel_jobs = 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        job_input = inputs[k % len(inputs)]
        label = f"{workload} round={k}"
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            out_dir = run_dir / ("traced" if traced else "plain")
            with tracer.active() if traced else contextlib.nullcontext():
                result = run_job(job, job_input, run_dir, out_dir, 1)
            seconds_taken = tally.job(result, label + (" traced" if traced else " serial"))
            if traced:
                traced_s, traced_result = traced_s + seconds_taken, result
            else:
                plain_s += seconds_taken
        if job.parallel > 1:
            with pools.active():
                result = run_job(job, job_input, run_dir, run_dir / "parallel", job.parallel)
            tally.job(result, label + " parallel")
            parallel_jobs += 1
            if result.completed and traced_result.completed and \
                    result.csv_paths[0].read_bytes() != traced_result.csv_paths[0].read_bytes():
                tally.errors.append(
                    f"{label}: --parallel {job.parallel} CSV differs from the traced serial CSV")
        k += 1
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{workload}.spans.npz")
    return layer_metrics(tracer, pools.created, parallel_jobs,
                         100.0 * (traced_s - plain_s) / plain_s)


def layer_metrics(tracer, pools_created, parallel_jobs, overhead_pct) -> dict:
    summary, jobs = tracer.summary(), tracer.jobs
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return summary.get(name, empty)

    def mean(name, field="total_s", scale=1.0):
        s = span(name)
        return s[field] / s["calls"] * scale if s["calls"] else 0.0

    second, trial = span("rates.second_rate_bits"), span("simulation.run_trial")
    values = {
        "rates.second_rate_bits.us": (mean("rates.second_rate_bits", scale=1e6), "us"),
        "rates.second_rate_bits.calls": (second["calls"] / jobs, "count"),
        "rates.second_rate_bits.unordered_share": (
            tracer.unordered_calls / second["calls"] if second["calls"] else 0.0, "ratio"),
        "rates.second_rate_bits.unordered_trial_share": (
            tracer.unordered_ns / 1e9 / trial["total_s"] if trial["calls"] else 0.0, "ratio"),
        "rates.n_hat_fallback.calls": (span("rates.n_hat_fallback")["calls"] / jobs, "count"),
        "rates.n_hat_fallback.trial_share": (
            span("rates.n_hat_fallback")["total_s"] / trial["total_s"] if trial["calls"] else 0.0,
            "ratio"),
        "rates.relay_rate_bits.us": (mean("rates.relay_rate_bits", scale=1e6), "us"),
        "rates.serve_pair.us": (mean("rates.serve_pair", scale=1e6), "us"),
        "rates.serve_pair.calls": (span("rates.serve_pair")["calls"] / jobs, "count"),
        "rates.sweep_region.ms": (mean("rates.sweep_region", scale=1e3), "ms"),
        "rates.optimize_n_hat.us": (mean("rates.optimize_n_hat", scale=1e6), "us"),
        "scheduling.schedule_interval.ms": (mean("scheduling.schedule_interval", scale=1e3), "ms"),
        "scheduling.schedule_interval.self_ms": (
            mean("scheduling.schedule_interval", "self_s", 1e3), "ms"),
        "scheduling.near_far_pair.us": (mean("scheduling.near_far_pair", scale=1e6), "us"),
        "scheduling.nearest_neighbor_pair.us": (
            mean("scheduling.nearest_neighbor_pair", scale=1e6), "us"),
        "scheduling.pf_update.us": (mean("scheduling.pf_update", scale=1e6), "us"),
        "simulation.run_trial.s": (mean("simulation.run_trial"), "s"),
        "simulation.run_trial.self_s": (mean("simulation.run_trial", "self_s"), "s"),
        "simulation.draw_bs_gains.us": (mean("simulation.draw_bs_gains", scale=1e6), "us"),
        "simulation.run_experiment.overhead_s": (mean("simulation.run_experiment", "self_s"), "s"),
        "simulation.pools_created": (pools_created / parallel_jobs if parallel_jobs else 0.0, "count"),
        "simulation.write_results_csv.ms": (mean("simulation.write_results_csv", scale=1e3), "ms"),
        "cli.main.self_s": (mean("cli.main", "self_s"), "s"),
        "oracle.verify_scheme.us": (mean("oracle.verify_scheme", scale=1e6), "us"),
        "oracle.gaussian_mi.us": (mean("oracle.gaussian_mi", scale=1e6), "us"),
        "oracle.gaussian_mi.calls": (span("oracle.gaussian_mi")["calls"] / jobs, "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    tally = Tally()
    try:
        if trace:
            metrics = traced_run(workload, seed, seconds, run_dir, tally)
        else:
            metrics = untraced_run(workload, seed, seconds, run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for e in tally.errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def stop_children() -> None:
    """Wait for every child process this run started and stop the helper
    processes a multiprocessing start method may have left behind (the
    semaphore tracker of ``spawn``, the server of ``forkserver``), so that
    nothing outlives the run."""
    for child in multiprocessing.active_children():
        child.join()
    from multiprocessing import forkserver, resource_tracker
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs into --out and exit (timed by the parent run)")
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        prepare(WORKLOADS[args.workload], args.seed, args.out)
        return 0
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
