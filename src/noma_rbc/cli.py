"""Command-line interface.

Three subcommands wire configs to the library:

* ``region``    rate-region alpha sweeps per scheme, emitted as CSV
* ``simulate``  Monte-Carlo cell experiments per a YAML config, emitted as
                CSV plus a JSON run manifest
* ``verify``    randomized closed-form-vs-oracle equivalence checks

``region`` formats each distinct column of the schemes' ``sweep_region``
arrays once and writes the CSV as one string; ``verify`` draws each chunk
as one array and checks all schemes in one ``verify_terms`` pass.  Neither
builds per-point objects.  ``main`` builds the argument parser once per
process and looks the ``cmd_*`` function up at each call, so in-process
callers pay for the parser once.  Config files are YAML, and a key given
twice in one mapping is a config error.

Exit codes: 0 success, 2 config error, 3 verification failure.  Progress
and status go to stderr; ``verify`` prints its report on stdout.  Every
output file lands inside the declared output directory and is paired with
the manifest that produced it.  dB-valued inputs carry an explicit ``_db``
suffix; everything is converted to linear units on entry.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .core import (ChannelParams, CompressionNoise, LinkGains, PowerSplit, Scheme,
                   is_degraded_ordered)
from .oracle import random_verification_draws, verify_terms
from .rates import check_alpha_grid, sweep_region, uniform_alpha_grid
from .scheduling import PAIRINGS
from .simulation import SimConfig, run_experiment, write_results_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_VERIFY_FAILED = 3

VERIFY_TOL_NATS = 1e-9
DEFAULT_VERIFY_COUNT = 1000
DEFAULT_VERIFY_SEED = 20240
# draws evaluated per batched oracle pass; bounds memory for any --count
VERIFY_CHUNK_DRAWS = 4096

ALL_SCHEMES = tuple(Scheme)

_REGION_KEYS = {
    "g01", "g02", "g12", "p0_db", "p1_db", "n1", "n2",
    "alpha_grid", "alpha", "schemes", "n_hat",
}
_SIM_REQUIRED_KEYS = ("users", "blocks", "intervals", "trials", "seed")
# singular spellings of SimConfig's list fields, accepted by the loader only
_SIM_ALIASES = {"scheme": "schemes", "pairing": "pairings"}
_SIM_KEYS = {f.name for f in fields(SimConfig)} | set(_SIM_ALIASES)
_SIM_FLOAT_KEYS = tuple(f.name for f in fields(SimConfig) if f.type == "float")


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_yaml(path: str):
    import yaml  # only configs need it; every other command skips its import

    # libyaml's parser when PyYAML was built with it, the pure-Python one otherwise
    class UniqueKeyLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """The safe loader, except that a key given twice in one mapping is
        an error naming the key and its lines, not a silent override."""

        def construct_mapping(self, node, deep=False):
            first_line = {}
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                line = key_node.start_mark.line + 1
                try:
                    seen = key in first_line
                except TypeError:  # an unhashable key, which the base class reports
                    continue
                if seen:
                    raise yaml.constructor.ConstructorError(
                        None, None,
                        f"key {key!r} is given twice, on lines {first_line[key]} and {line}")
                first_line[key] = line
            return super().construct_mapping(node, deep)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=UniqueKeyLoader)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ValueError(f"cannot parse config {path!r}: {exc}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ValueError(f"config {path!r} must be a mapping of keys to values")
    return data


def _unknown_keys(config: dict, known) -> list[str]:
    """An error for each key of ``config`` not in ``known``, sorted by
    ``str`` and then ``repr``, so that keys of mixed types, such as the
    ints and nulls YAML reads, sort too."""
    unknown = sorted(set(config) - known, key=lambda k: (str(k), repr(k)))
    return [f"unknown config key {k!r}" for k in unknown]


def _check_distinct(key: str, values) -> None:
    """Raise naming ``key`` and the first value it lists more than once."""
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ValueError(f"{key} lists {value!r} more than once")


def _listed(value) -> tuple:
    """A config list as a tuple; any other value is a list of one."""
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _scheme_entries(value) -> tuple:
    """A config or flag scheme list as a tuple: a string is split at its
    commas, and each label that names a scheme becomes that ``Scheme``.
    Any other entry is kept as it is, for ``SimConfig.validate`` to name."""
    if isinstance(value, str):
        value = [t for t in value.split(",") if t.strip()]

    def entry(label):
        try:
            return Scheme.from_label(label)
        except ValueError:
            return label
    return tuple(map(entry, _listed(value)))


def _parse_schemes(text) -> list[Scheme]:
    """``region``'s scheme list, in which an unknown label, an empty list or
    a repeat raises at once."""
    schemes = [s if isinstance(s, Scheme) else Scheme.from_label(s) for s in _scheme_entries(text)]
    if not schemes:
        raise ValueError("schemes must list at least one value")
    _check_distinct("schemes", [s.label for s in schemes])
    return schemes


def _parse_alpha_grid(spec) -> np.ndarray:
    """Either a point count (uniform grid on [0, 1]) or an explicit
    comma-separated / list grid, as sorted distinct alphas in [0, 1]."""
    try:
        if spec is None:
            grid = uniform_alpha_grid()
        elif isinstance(spec, (list, tuple)):
            grid = [_number("each value", x) for x in spec]
        elif "," in str(spec):
            grid = [float(t) for t in str(spec).split(",") if t.strip()]
        else:
            try:
                count = int(str(spec).strip())
            except ValueError:
                raise ValueError("expected a point count or a list of alphas, "
                                 f"got {spec!r}") from None
            grid = uniform_alpha_grid(count)
        return check_alpha_grid(sorted(set(grid)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"alpha_grid: {exc}") from None
    except MemoryError as exc:
        raise ValueError(f"alpha_grid: too many points for memory: {exc}") from None


def _number(key: str, value) -> float:
    """``value`` as a float, which a bool is not; the error names ``key``."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError):
            return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _numeric(value):
    """A string that spells a number (PyYAML reads ``1e-2`` as one) as that
    float; any other value as it is, for ``SimConfig.validate`` to name."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return float(value)
    return value


def _db_to_linear(key: str, value) -> float:
    """10^(value/10), which must be finite; the error names ``key``."""
    try:
        linear = 10.0 ** (_number(key, value) / 10.0)
    except OverflowError:
        linear = np.inf
    if not np.isfinite(linear):
        raise ValueError(f"{key} must give a finite linear power, got {value!r} dB")
    return linear


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
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n",
                    encoding="utf-8")
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


def _region_csv(curves, grid: np.ndarray, mark: float) -> str:
    """The ``rate_region.csv`` text of ``curves`` over the alpha ``grid``,
    with ``mark`` flagged: the bytes ``csv.writer`` writes for the same
    rows.  Every field is a scheme label, the repr of a finite float,
    empty, 0 or 1, none of which that writer quotes.  Schemes repeat whole
    columns (alpha in all, r1 in GBC, RBC-DF and RBC-CF+DPC, r2 and n_hat
    in the CF pair), so each distinct column is formatted once."""
    memo: dict = {}
    n = len(grid)
    marked = ["1" if m else "0" for m in (np.abs(grid - mark) <= 1e-12).tolist()]
    lines = ["scheme,alpha,r1_bits,r2_bits,n_hat,alpha_marked\r\n"]
    for curve in curves:
        n_hats = [""] * n if curve.n_hat is None else _reprs(curve.n_hat, memo)
        lines += [",".join(row) + "\r\n"
                  for row in zip([curve.scheme.label] * n, _reprs(curve.alphas, memo),
                                 _reprs(curve.r1, memo), _reprs(curve.r2, memo), n_hats, marked)]
    return "".join(lines)


def cmd_region(args) -> int:
    started = time.monotonic()
    try:
        file_cfg = _load_yaml(args.config) if args.config else {}
    except ValueError as exc:
        _err(str(exc))
        return EXIT_CONFIG_ERROR

    errors = _unknown_keys(file_cfg, _REGION_KEYS)

    def pick(key, flag_value, default=None):
        return flag_value if flag_value is not None else file_cfg.get(key, default)

    g01 = pick("g01", args.g01)
    g02 = pick("g02", args.g02)
    g12 = pick("g12", args.g12, 0.0)
    p0_db = pick("p0_db", args.p0_db)
    p1_db = pick("p1_db", args.p1_db, None)  # absent relay power means p1 = 0
    n1 = pick("n1", args.n1, 1.0)
    n2 = pick("n2", args.n2, 1.0)
    alpha_mark = pick("alpha", args.alpha, 0.2)
    grid_spec = pick("alpha_grid", args.alpha_grid, None)
    n_hat = pick("n_hat", args.n_hat, None)
    schemes_spec = args.scheme if args.scheme is not None else file_cfg.get("schemes")

    for name, value in (("g01", g01), ("g02", g02), ("p0_db", p0_db)):
        if value is None:
            errors.append(f"missing required key {name!r}")
    if errors:
        for e in errors:
            _err(e)
        return EXIT_CONFIG_ERROR

    try:
        gains = LinkGains(g01=_number("g01", g01), g02=_number("g02", g02),
                          g12=_number("g12", g12))
        params = ChannelParams(
            p0=_db_to_linear("p0_db", p0_db),
            p1=0.0 if p1_db is None else _db_to_linear("p1_db", p1_db),
            n1=_number("n1", n1), n2=_number("n2", n2),
        )
        schemes = (_parse_schemes(schemes_spec) if schemes_spec is not None
                   else list(ALL_SCHEMES))
        grid = _parse_alpha_grid(grid_spec)
        mark = PowerSplit(_number("alpha", alpha_mark)).alpha
        fixed = CompressionNoise(_number("n_hat", n_hat)) if n_hat is not None else None
    except (TypeError, ValueError) as exc:
        _err(str(exc))
        return EXIT_CONFIG_ERROR

    if not is_degraded_ordered(gains, params):
        _err("gains violate the degraded ordering (g01/n1 >= g02/n2); "
             "swap the two user roles and rerun")
        return EXIT_CONFIG_ERROR
    try:
        curves = [sweep_region(scheme, gains, params, grid, n_hat=fixed, checked=True)
                  for scheme in schemes]
    except ValueError as exc:
        _err(f"{exc}: the rates overflow at these gains and powers "
             "(g01, g02, g12, p0_db, p1_db, n1, n2)")
        return EXIT_CONFIG_ERROR

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "rate_region.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_region_csv(curves, grid, mark))
    snapshot = {
        "g01": gains.g01, "g02": gains.g02, "g12": gains.g12,
        "p0": params.p0, "p1": params.p1, "n1": params.n1, "n2": params.n2,
        "alpha_grid_points": len(grid), "alpha_mark": mark,
        "schemes": [s.label for s in schemes],
        "n_hat": fixed.n_hat if fixed is not None else "optimized",
    }
    _write_manifest(out_dir, "rate_region", "region", snapshot, None, [csv_path], started)
    _info(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    started = time.monotonic()
    try:
        file_cfg = _load_yaml(args.config)
    except ValueError as exc:
        _err(str(exc))
        return EXIT_CONFIG_ERROR

    # enumerate every config failure at once: unknown keys, missing keys,
    # unparsable values and constraint violations
    errors = _unknown_keys(file_cfg, _SIM_KEYS)
    overridden = {"seed": args.seed, "intervals": args.intervals, "trials": args.trials,
                  "alpha": args.alpha, "schemes": args.scheme, "pairings": args.pairing}
    for key in _SIM_REQUIRED_KEYS:
        if file_cfg.get(key) is None and overridden.get(key) is None:
            errors.append(f"missing required key {key!r}")
    if args.parallel < 1:
        errors.append(f"parallel must be >= 1, got {args.parallel}")
    for one, many in _SIM_ALIASES.items():
        if one in file_cfg and many in file_cfg:
            errors.append(f"config gives both {one!r} and {many!r}; give one of them")

    values = {_SIM_ALIASES.get(k, k): v for k, v in file_cfg.items() if k in _SIM_KEYS}
    values.update((k, v) for k, v in overridden.items() if v is not None)
    for key, normalise in (("schemes", _scheme_entries), ("pairings", _listed),
                           ("p1_over_p0_db", lambda v: tuple(map(_numeric, _listed(v)))),
                           *((key, _numeric) for key in _SIM_FLOAT_KEYS)):
        if key in values:
            values[key] = normalise(values[key])
    config = SimConfig(**values)
    errors += config.validate()
    if errors:
        for e in errors:
            _err(e)
        return EXIT_CONFIG_ERROR
    # the manifest records the points as the CSV writes them
    config = replace(config, p1_over_p0_db=tuple(map(float, config.p1_over_p0_db)))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        results, tasks, workers = run_experiment(config, args.parallel, progress=_info)
    except MemoryError as exc:
        _err(f"the run does not fit in memory at these sizes (users, blocks, intervals, "
             f"trials): {exc}")
        return EXIT_CONFIG_ERROR
    csv_path = out_dir / "sum_rate.csv"
    write_results_csv(results, csv_path)
    snapshot = {f.name: getattr(config, f.name) for f in fields(config)}
    counters = [
        {"scheme": r.scheme, "pairing": r.pairing, "p1_over_p0_db": r.p1_over_p0_db,
         "role_swaps": r.role_swaps, "r2_clamps": r.r2_clamps}
        for r in results
    ]
    _write_manifest(out_dir, "sum_rate", "simulate", snapshot, config.seed, [csv_path], started,
                    extra={"parallel": {"requested": args.parallel, "effective": workers,
                                        "pool_workers": workers - 1, "tasks": tasks},
                           "counters": counters})
    _info(f"wrote {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    errors = []
    if args.count < 1:
        errors.append(f"count must be >= 1, got {args.count}")
    if args.seed < 0:
        errors.append(f"seed must be >= 0, got {args.seed}")
    if errors:
        for e in errors:
            _err(e)
        return EXIT_CONFIG_ERROR

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
                term_worst[key] = max(term_worst.get(key, 0.0), float(delta.max()))
            columns.append(np.max(deltas, axis=0))
        table = np.stack(columns, axis=1)  # (draws, schemes): per-scheme max delta
        if args.inject_error:
            table += 1e-6  # negative control: force a visible mismatch
        # the first strict maximum in draw-major, scheme-minor order
        flat = int(np.argmax(table))
        if table.flat[flat] > worst_delta:
            worst_delta = float(table.flat[flat])
            draw, scheme = divmod(flat, len(ALL_SCHEMES))
            g01, g02, g12, params, alpha, n_hat = batch
            worst = (ALL_SCHEMES[scheme], params,
                     *(float(values[draw]) for values in (g01, g02, g12, alpha, n_hat)))
    print(f"verified {len(ALL_SCHEMES)} schemes x {args.count} draws: "
          f"max delta = {worst_delta:.3e} nats (tolerance {VERIFY_TOL_NATS:.0e})")
    for (scheme, name), delta in term_worst.items():
        print(f"  {scheme.label:10s} {name:19s} max delta = {delta:.3e} nats")
    if worst_delta > VERIFY_TOL_NATS:
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
    region.add_argument("--g01", type=float, help="BS to relay-user power gain")
    region.add_argument("--g02", type=float, help="BS to second-user power gain")
    region.add_argument("--g12", type=float, help="relay-user to second-user power gain")
    region.add_argument("--p0-db", dest="p0_db", type=float, help="BS power over noise, dB")
    region.add_argument("--p1-db", dest="p1_db", type=float, help="relay power over noise, dB")
    region.add_argument("--n1", type=float, help="relay-user noise power (default 1)")
    region.add_argument("--n2", type=float, help="second-user noise power (default 1)")
    region.add_argument("--alpha-grid", dest="alpha_grid",
                        help="point count or comma-separated alphas (default 201 uniform)")
    region.add_argument("--alpha", type=float,
                        help="alpha value marked in the output (default 0.2)")
    region.add_argument("--scheme", help="comma-separated scheme list (default all)")
    region.add_argument("--n-hat", dest="n_hat", type=float,
                        help="fixed compression noise; omit to optimize per point")

    simulate = sub.add_parser("simulate", help="Monte-Carlo cell experiment (CSV + manifest)")
    simulate.add_argument("--config", required=True, help="YAML experiment config")
    simulate.add_argument("--out", default="out", help="output directory (default: out)")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    simulate.add_argument("--scheme", help="comma-separated scheme list override")
    simulate.add_argument("--pairing", choices=PAIRINGS,
                          help="pairing method override")
    simulate.add_argument("--alpha", type=float, help="power-split override")
    simulate.add_argument("--intervals", type=int, help="scheduling intervals override")
    simulate.add_argument("--trials", type=int, help="trial count override")
    simulate.add_argument("--parallel", type=int, default=1,
                          help="computing processes, at least 1, clamped to the usable CPUs "
                               "and the task count: this process and a pool of the others, "
                               "each claiming the next task in plan order (output is "
                               "identical for any degree)")

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
    # looked up per call, so a replaced ``cmd_*`` attribute is the one run
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())
