"""Command-line interface.

Three subcommands wire configs to the library:

* ``region``    rate-region alpha sweeps per scheme, emitted as CSV
* ``simulate``  Monte-Carlo cell experiments per a YAML config, emitted as
                CSV plus a JSON run manifest
* ``verify``    randomized closed-form-vs-oracle equivalence checks

``region`` formats each distinct column of the schemes' ``sweep_region``
arrays once, the alpha grid's once per process while the grid stays the
same, and writes the CSV as one string; ``verify`` draws each chunk
as one array and checks all schemes in one ``verify_terms`` pass.  Neither
builds per-point objects.  ``main`` builds the argument parser once per
process and looks the ``cmd_*`` function up at each call, so in-process
callers pay for the parser once.  Config files are YAML, and a key given
twice in one mapping is a config error.  ``region`` and ``simulate`` read
and check their keys, and build their flags, through the one key table of
``config``.

Exit codes: 0 success, 2 config error (an ``--out`` that cannot take the
outputs among them), 3 verification failure, 141 stdout closed by its
reader (a pipe such as ``| head -1``), which ends the command without a
traceback.  Progress and status go to stderr; ``verify`` prints its
report on stdout.  Every output file lands inside the declared output
directory, replaces any file at its path (``core.open_replaced``) and is
paired with the manifest that produced it.  dB-valued inputs carry an
explicit ``_db`` suffix; everything is converted to linear units on entry.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, config
from .config import SimConfig
from .core import ChannelParams, Scheme, is_degraded_ordered, open_replaced
from .oracle import random_verification_draws, verify_terms
from .rates import sweep_region
from .simulation import run_experiment, write_results_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_VERIFY_FAILED = 3
# 128 + SIGPIPE: what a shell reports for a command that a closed pipe ends
EXIT_BROKEN_PIPE = 141

VERIFY_TOL_NATS = 1e-9
DEFAULT_VERIFY_COUNT = 1000
DEFAULT_VERIFY_SEED = 20240
# draws evaluated per batched oracle pass; bounds memory for any --count
VERIFY_CHUNK_DRAWS = 4096

ALL_SCHEMES = tuple(Scheme)


def _fail(*errors: str) -> int:
    """Report each config error; the exit code of a config error."""
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return EXIT_CONFIG_ERROR


def _out_errors(out: str, stem: str) -> list[str]:
    """The config error, found before any work, of an ``--out`` whose
    nearest existing ancestor, itself included, is not a directory, or in
    which an output, ``stem.csv`` or ``stem.manifest.json``, is one."""
    path = Path(out)
    nearest = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
    if nearest is not None and not os.path.isdir(nearest):
        return [f"--out {out}: {os.strerror(errno.ENOTDIR)}"]
    for name in (f"{stem}.csv", f"{stem}.manifest.json"):
        if os.path.isdir(path / name):
            return [f"--out {out}: {path / name}: {os.strerror(errno.EISDIR)}"]
    return []


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _json_default(value):
    """``json.dumps`` hook: a scheme as its label, a numpy scalar as its value."""
    return value.label if isinstance(value, Scheme) else value.item()


def _write_manifest(out_dir: Path, stem: str, command: str, config_snapshot: dict,
                    seed, outputs, started: float, extra: Optional[dict] = None) -> Path:
    path = out_dir / f"{stem}.manifest.json"
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "outputs": [str(o) for o in outputs],
        "duration_s": round(time.monotonic() - started, 3),
        **(extra or {}),
    }
    with open_replaced(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n")
    return path


# ---------------------------------------------------------------------------
# region

def _reprs(values: np.ndarray, memo: dict) -> list[str]:
    """``repr`` of each float of ``values``, taken from ``memo`` when an
    array with the same bits was formatted before.  The key is the bits,
    not the values: 0.0 == -0.0, but their reprs differ."""
    key = values.tobytes()
    text = memo.get(key)
    if text is None:
        text = memo[key] = list(map(repr, values.tolist()))
    return text


# The last alpha grid's bits and reprs.  Every curve of a ``region`` call
# has the grid as a column, and in-process callers rerun one grid, so it is
# formatted once per process while it stays the same; one entry, so the
# memory held does not grow with the calls.
_grid_reprs: tuple = (b"", [])


def _region_csv(curves, grid: np.ndarray, mark: float) -> str:
    """The ``rate_region.csv`` text of ``curves`` over the alpha ``grid``,
    with ``mark`` flagged: the bytes ``csv.writer`` writes for the same
    rows.  Every field is a scheme label, the repr of a finite float,
    empty, 0 or 1, none of which that writer quotes.  Schemes repeat whole
    columns (alpha in all, r1 in GBC, RBC-DF and RBC-CF+DPC, r2 and n_hat
    in the CF pair), so each distinct column is formatted once, and the
    grid's reprs come from ``_grid_reprs`` when the last call had it too."""
    global _grid_reprs
    key = grid.tobytes()
    if _grid_reprs[0] != key:
        _grid_reprs = (key, list(map(repr, grid.tolist())))
    memo = {key: _grid_reprs[1]}
    n = len(grid)
    marked = ["1" if m else "0" for m in (np.abs(grid - mark) <= 1e-12).tolist()]
    lines = ["scheme,alpha,r1_bits,r2_bits,n_hat,alpha_marked"]
    for curve in curves:
        n_hats = [""] * n if curve.n_hat is None else _reprs(curve.n_hat, memo)
        lines.append("\r\n".join(map(",".join, zip(
            [curve.scheme.label] * n, _reprs(curve.alphas, memo), _reprs(curve.r1, memo),
            _reprs(curve.r2, memo), n_hats, marked))))
    lines.append("")
    return "\r\n".join(lines)


def cmd_region(args) -> int:
    started = time.monotonic()
    values, errors = config.read("region", args.config, args)
    checked, bad = config.check(config.TABLE["region"], values)
    errors += bad + _out_errors(args.out, "rate_region")
    if errors:
        return _fail(*errors)
    g01, g02, g12 = checked["g01"], checked["g02"], checked["g12"]
    params = ChannelParams(
        p0=config.linear(checked["p0_db"]),
        p1=0.0 if checked["p1_db"] is None else config.linear(checked["p1_db"]),
        n1=checked["n1"], n2=checked["n2"],
    )
    schemes, grid, mark = checked["schemes"], checked["alpha_grid"], checked["alpha"]
    n_hat = checked["n_hat"]

    if not is_degraded_ordered(g01, g02, params):
        return _fail("gains violate the degraded ordering (g01/n1 >= g02/n2); "
                     "swap the two user roles and rerun")
    try:
        curves = sweep_region(schemes, g01, g02, g12, params, grid, n_hat)
    except ValueError as exc:
        return _fail(f"{exc}: the rates overflow at these gains and powers "
                     "(g01, g02, g12, p0_db, p1_db, n1, n2)")

    out_dir = Path(args.out)
    csv_path = out_dir / "rate_region.csv"
    snapshot = {
        "g01": g01, "g02": g02, "g12": g12,
        "p0": params.p0, "p1": params.p1, "n1": params.n1, "n2": params.n2,
        "alpha_grid_points": len(grid), "alpha_mark": mark,
        "schemes": [s.label for s in schemes],
        "n_hat": "optimized" if n_hat is None else n_hat,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open_replaced(csv_path) as fh:
            fh.write(_region_csv(curves, curves[0].alphas, mark))
        _write_manifest(out_dir, "rate_region", "region", snapshot, None, [csv_path], started)
    except OSError as exc:
        return _fail(f"--out {args.out}: {exc}")
    _info(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    started = time.monotonic()
    # enumerate every config failure at once: unknown keys, missing keys,
    # unparsable values and constraint violations
    values, errors = config.read("simulate", args.config, args)
    errors += config.check(config.OPTIONS, {"parallel": args.parallel})[1]
    sim = SimConfig(**values)
    errors += sim.validate() + _out_errors(args.out, "sum_rate")
    if errors:
        return _fail(*errors)
    # the manifest records the points as the CSV writes them
    sim = replace(sim, p1_over_p0_db=tuple(map(float, sim.p1_over_p0_db)))

    try:
        results, tasks, workers = run_experiment(sim, args.parallel)
    except MemoryError as exc:
        return _fail(f"the run does not fit in memory at these sizes (users, blocks, "
                     f"intervals, trials): {exc}")
    out_dir = Path(args.out)
    csv_path = out_dir / "sum_rate.csv"
    snapshot = {name: getattr(sim, name) for name in config.TABLE["simulate"]}
    counters = [
        {"scheme": r.scheme, "pairing": r.pairing, "p1_over_p0_db": r.p1_over_p0_db,
         "role_swaps": r.role_swaps, "r2_clamps": r.r2_clamps}
        for r in results
    ]
    extra = {"parallel": {"requested": args.parallel, "effective": workers,
                          "pool_workers": workers - 1, "tasks": tasks},
             "counters": counters}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(results, csv_path)
        _write_manifest(out_dir, "sum_rate", "simulate", snapshot, sim.seed, [csv_path], started,
                        extra=extra)
    except OSError as exc:
        return _fail(f"--out {args.out}: {exc}")
    _info(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    _, errors = config.check(config.OPTIONS, {"count": args.count, "seed": args.seed})
    if errors:
        return _fail(*errors)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    worst_delta = 0.0
    worst = None
    term_worst = {}  # (scheme, term) -> worst delta over all draws, nats
    for start in range(0, args.count, VERIFY_CHUNK_DRAWS):
        batch = random_verification_draws(rng, min(VERIFY_CHUNK_DRAWS, args.count - start))
        terms = verify_terms(*batch)
        columns = []
        for scheme in ALL_SCHEMES:
            deltas = [term.delta_nats for term in terms[scheme]]
            for term, delta in zip(terms[scheme], deltas):
                key = (scheme, term.name)
                # np.maximum, unlike max(), keeps a NaN
                term_worst[key] = np.maximum(term_worst.get(key, 0.0), delta.max())
            columns.append(np.max(deltas, axis=0))
        table = np.stack(columns, axis=1)  # (draws, schemes): per-scheme max delta
        if args.inject_error:
            table += 1e-6  # negative control: force a visible mismatch
        # the first strict maximum in draw-major, scheme-minor order; a NaN,
        # argmax's first pick, is worse than any number
        flat = int(np.argmax(table))
        top = float(table.flat[flat])
        if top > worst_delta or (np.isnan(top) and not np.isnan(worst_delta)):
            worst_delta = top
            draw, scheme = divmod(flat, len(ALL_SCHEMES))
            g01, g02, g12, params, alpha, n_hat = batch
            worst = (ALL_SCHEMES[scheme], params,
                     *(float(values[draw]) for values in (g01, g02, g12, alpha, n_hat)))
    print(f"verified {len(ALL_SCHEMES)} schemes x {args.count} draws: "
          f"max delta = {worst_delta:.3e} nats (tolerance {VERIFY_TOL_NATS:.0e})")
    for (scheme, name), delta in term_worst.items():
        print(f"  {scheme.label:10s} {name:19s} max delta = {delta:.3e} nats")
    if not worst_delta <= VERIFY_TOL_NATS:  # a NaN fails too
        scheme, params, g01, g02, g12, alpha, n_hat = worst
        print("worst case:")
        print(f"  scheme = {scheme.label}")
        print(f"  gains  = g01={g01!r} g02={g02!r} g12={g12!r}")
        print(f"  params = p0={params.p0!r} p1={params.p1!r} n1={params.n1!r} n2={params.n2!r}")
        print(f"  alpha  = {alpha!r}  n_hat = {n_hat!r}")
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noma-rbc",
        description="Rate regions and cell-level simulation for NOMA with a relaying strong user",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    region = sub.add_parser("region", help="alpha-sweep rate regions per scheme (CSV)")
    region.add_argument("--config", help="YAML config file; flags override file values")
    region.add_argument("--out", default="out", help="output directory (default: out)")
    simulate = sub.add_parser("simulate", help="Monte-Carlo cell experiment (CSV + manifest)")
    simulate.add_argument("--config", required=True, help="YAML experiment config")
    simulate.add_argument("--out", default="out", help="output directory (default: out)")
    simulate.add_argument("--parallel", type=int, default=1,
                          help="computing processes, at least 1, clamped to the usable CPUs "
                               "and the task count: this process and a pool of the others, "
                               "each claiming the next task in plan order (output is "
                               "identical for any degree)")
    for command, options in (("region", region), ("simulate", simulate)):
        for row in config.TABLE[command].values():
            if row.help:
                options.add_argument(
                    "--" + row.dest.replace("_", "-"), help=row.help,
                    type={"count": int, "float": float, "dB power": float}.get(row.kind),
                    choices=row.choices if row.kind == "choice list" else None)

    verify = sub.add_parser("verify", help="randomized closed-form vs oracle equivalence check")
    verify.add_argument("--count", type=int, default=DEFAULT_VERIFY_COUNT,
                        help=f"number of random draws (default {DEFAULT_VERIFY_COUNT})")
    verify.add_argument("--seed", type=int, default=DEFAULT_VERIFY_SEED)
    verify.add_argument("--inject-error", action="store_true",
                        help="testing aid: perturb the comparison to prove failures are caught")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  A parse fills a new namespace from the
    parser's defaults, so nothing carries over from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a replaced ``cmd_*`` attribute is the one run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader that closed the pipe is seen here, not at exit
    except BrokenPipeError:
        # as the signal module's notes on SIGPIPE advise: what is still
        # buffered, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
