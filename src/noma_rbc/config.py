"""The config keys of ``region`` and ``simulate``, in one table.

Each row of ``KEYS`` (README's key table) gives a key's kind, range, unit,
aliases, default or that it is required, and the help of its flag.  Both
commands ``read`` their values and ``check`` them through the rows, and so
does ``SimConfig.validate``, which then checks the rules between two keys.
The rows of no command, ``OPTIONS``, check the options that no config file
holds: ``verify``'s ``--count`` and ``--seed``, ``simulate``'s ``--parallel``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Scheme
from .rates import DEFAULT_ALPHA_POINTS, check_alpha_grid, uniform_alpha_grid

PAIRINGS = ("near-far", "nearest")
NEIGHBOR_MODES = ("recompute", "static")
FADING_MODES = ("iid", "static")
SCHEME_LABELS = {scheme.label: scheme for scheme in Scheme}


def linear(db) -> float:
    """10^(db/10), the linear power of ``db``; inf where that overflows."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


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
        return linear(self.edge_snr_db)

    @property
    def relay_powers(self) -> tuple:
        """The relay power of each point of ``p1_over_p0_db``."""
        return tuple(self.p0 * linear(db) for db in self.p1_over_p0_db)

    def validate(self) -> list[str]:
        """All violated constraints, empty when the config is usable: an
        error for each field its row rejects, then for each rule between
        fields that passed."""
        rows = TABLE["simulate"]
        passed, errors = check(rows, {name: getattr(self, name) for name in rows})
        if {"users", "blocks"} <= passed.keys() and self.users < 2 * self.blocks:
            errors.append(f"users ({self.users}) must be >= 2 * blocks ({self.blocks})")
        if {"edge_radius_m", "inner_radius_m"} <= passed.keys() and \
                self.edge_radius_m <= self.inner_radius_m:
            errors.append(f"edge_radius_m ({self.edge_radius_m}) must exceed "
                          f"inner_radius_m ({self.inner_radius_m})")
        if {"edge_snr_db", "p1_over_p0_db"} <= passed.keys():
            errors += [f"p1_over_p0_db ({db}) gives a relay power that is not finite"
                       for db in self.p1_over_p0_db if not math.isfinite(self.p0 * linear(db))]
        return errors


# ---------------------------------------------------------------------------
# kinds

def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value, finite: bool = False) -> bool:
    """An int or a float, not a bool; if ``finite``, a finite one."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return not finite or math.isfinite(value)
    except OverflowError:
        return False


def coerce(key: Key, value):
    """``value`` as a config file or a flag gives it, read for the kind of
    ``key``; never raises.  Alpha-grid text without a comma is a point
    count where it spells one; other alpha-grid text and scheme-list text
    is split at its commas.  A list kind's scalar is a list of one."""
    if key.kind == "alpha grid" and isinstance(value, str) and "," not in value:
        with contextlib.suppress(ValueError):
            return int(value)
    elif key.kind in ("scheme list", "alpha grid") and isinstance(value, str):
        value = [t for t in value.split(",") if t.strip()]
    if key.kind.endswith(" list") and not isinstance(value, (list, tuple)):
        value = [value]
    if key.kind.endswith(("list", "grid")) and isinstance(value, (list, tuple)):
        return tuple(_entry(key, v) for v in value)
    return _entry(key, value)


def _entry(key: Key, value):
    """A string that spells a number as that float (YAML reads ``1e-2`` as
    a string), and a scheme label as that ``Scheme``."""
    if isinstance(value, str) and key.kind in ("float", "dB power", "float list", "alpha grid"):
        with contextlib.suppress(ValueError):
            return float(value)
    if isinstance(value, str) and key.kind == "scheme list":
        return SCHEME_LABELS.get(value.strip().lower(), value)
    return value


def check_value(key: Key, value):
    """A coerced ``value`` of ``key`` as the program uses it; raises
    ValueError with one message that starts with the key."""
    if key.kind.endswith(" list"):
        return _list(key, value)
    if key.kind == "alpha grid":
        return _alpha_grid(key, value)
    if key.kind == "choice" and value not in key.choices:
        raise ValueError(f"{key.name} must be {key.one_of()}, got {value!r}")
    if key.kind == "bool" and not isinstance(value, bool):
        raise ValueError(f"{key.name} must be true or false, got {value!r}")
    if key.kind == "count" and not _is_int(value):
        raise ValueError(f"{key.name} must be an integer, got {value!r}")
    if key.kind in ("float", "dB power"):
        if not _is_number(value):
            raise ValueError(f"{key.name} must be a number, got {value!r}")
        if not _is_number(value, finite=True):
            raise ValueError(f"{key.name} must be finite, got {value!r}")
        value = float(value)
    if key.kind == "dB power" and not (math.isfinite(linear(value))
                                       and key.contains(linear(value))):
        raise ValueError(f"{key.name} must give a finite linear power {key.bounds()}, "
                         f"got {value!r} dB")
    if key.kind in ("count", "float") and not key.contains(value):
        raise ValueError(f"{key.name} must be {key.bounds()}, got {value} {key.unit}".rstrip())
    return value


def _list(key: Key, values) -> tuple:
    """A non-empty list of distinct entries, each one of the key's choices
    or, without choices, a finite number."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key.name} must be a list, got {values!r}")
    if not values:
        raise ValueError(f"{key.name} must list at least one value")
    for k, value in enumerate(values):
        if not (value in key.choices if key.choices else _is_number(value, finite=True)):
            what = key.one_of() if key.choices else "a finite number"
            raise ValueError(f"{key.name} lists {value!r}, which is not {what}")
        if value in values[:k]:
            raise ValueError(f"{key.name} lists {getattr(value, 'label', value)!r} more than once")
    return tuple(values)


def _alpha_grid(key: Key, spec):
    """Sorted distinct alphas in [0, 1] as a tuple: the uniform grid of a
    point count, which is built so and needs no check, or a checked list."""
    try:
        if _is_int(spec):
            return uniform_alpha_grid(spec)
        if not isinstance(spec, tuple):
            raise ValueError(f"expected a point count or a list of alphas, got {spec!r}")
        for value in spec:
            if not _is_number(value):
                raise ValueError(f"each value must be a number, got {value!r}")
        return tuple(check_alpha_grid(sorted(set(spec))).tolist())
    except ValueError as exc:
        raise ValueError(f"{key.name}: {exc}") from None
    except (MemoryError, OverflowError) as exc:
        raise ValueError(f"{key.name}: too many points for memory: {exc}") from None


# ---------------------------------------------------------------------------
# the table

@dataclass(frozen=True)
class Key:
    """One config key of one or both commands, or an option of none; with
    ``default`` None, one that is not ``required`` may be left out.  A key
    with ``help`` has a flag that overrides the file value, named after
    ``dest``."""

    name: str
    kind: str  # count, float, dB power, float/scheme/choice list, choice, bool or alpha grid
    commands: tuple
    default: object = None
    required: bool = False
    lo: float = -math.inf
    hi: float = math.inf
    open: bool = False             # the range excludes its ends
    unit: str = ""
    aliases: tuple = ()
    choices: tuple = ()
    help: Optional[str] = None

    @property
    def dest(self) -> str:
        """The first alias, the singular spelling, or else the key."""
        return (self.aliases or (self.name,))[0]

    def contains(self, value) -> bool:
        return self.lo < value < self.hi if self.open else self.lo <= value <= self.hi

    def bounds(self) -> str:
        """The range as text: ">= 2", "> 0" or "in [0, 1]"."""
        if self.hi == math.inf:
            return f"{'>' if self.open else '>='} {self.lo:g}"
        ends = "()" if self.open else "[]"
        return f"in {ends[0]}{self.lo:g}, {self.hi:g}{ends[1]}"

    def one_of(self) -> str:
        return f"one of {tuple(getattr(c, 'label', c) for c in self.choices)}"


REGION, SIMULATE, BOTH = ("region",), ("simulate",), ("region", "simulate")


def _field(name: str, kind: str, **row) -> Key:
    """The row of ``SimConfig`` field ``name``, with the field's default."""
    return Key(name, kind, SIMULATE, default=getattr(SimConfig, name), **row)


KEYS = (
    Key("g01", "float", REGION, required=True, lo=0.0, help="BS to relay-user power gain"),
    Key("g02", "float", REGION, required=True, lo=0.0, help="BS to second-user power gain"),
    Key("g12", "float", REGION, default=0.0, lo=0.0, help="relay-user to second-user power gain"),
    Key("p0_db", "dB power", REGION, required=True, lo=0.0, open=True, unit="dB",
        help="BS power over noise, dB"),
    Key("p1_db", "dB power", REGION, lo=0.0, unit="dB",
        help="relay power over noise, dB; omit for a relay that does not transmit"),
    Key("n1", "float", REGION, default=1.0, lo=0.0, open=True,
        help="relay-user noise power (default 1)"),
    Key("n2", "float", REGION, default=1.0, lo=0.0, open=True,
        help="second-user noise power (default 1)"),
    Key("alpha_grid", "alpha grid", REGION, default=DEFAULT_ALPHA_POINTS,
        help="point count or comma-separated alphas (default 201 uniform)"),
    Key("schemes", "scheme list", REGION, default=tuple(Scheme), aliases=("scheme",),
        choices=tuple(Scheme), help="comma-separated scheme list (default all)"),
    Key("n_hat", "float", REGION, lo=0.0, open=True,
        help="fixed compression noise; omit to optimize per point"),
    Key("alpha", "float", BOTH, default=SimConfig.alpha, lo=0.0, hi=1.0,
        help="power split: the alpha region marks, or simulate's split (default 0.2)"),
    _field("users", "count", required=True, lo=2),
    _field("blocks", "count", required=True, lo=1),
    # the placement squares the radii
    _field("edge_radius_m", "float", lo=1e-100, hi=1e100, unit="m"),
    _field("inner_radius_m", "float", lo=1e-100, hi=1e100, unit="m"),
    # measured exponents lie between about 2 and 6; up to 10, every
    # inter-user gain (d / De)^-gamma stays finite down to d / De = 1e-30
    _field("path_loss_exp", "float", lo=0.0, hi=10.0),
    _field("edge_snr_db", "dB power", lo=0.0, open=True, unit="dB"),
    _field("p1_over_p0_db", "float list", unit="dB"),
    _field("tau", "float", lo=0.0, hi=1.0, open=True),
    _field("schemes", "scheme list", aliases=("scheme",), choices=tuple(Scheme),
           help="comma-separated scheme list override"),
    _field("pairings", "choice list", aliases=("pairing",), choices=PAIRINGS,
           help="pairing method override"),
    _field("intervals", "count", required=True, lo=1, help="scheduling intervals override"),
    _field("trials", "count", required=True, lo=1, help="trial count override"),
    _field("seed", "count", required=True, lo=0, help="override the config seed"),
    _field("fading", "choice", choices=FADING_MODES),
    _field("neighbors", "choice", choices=NEIGHBOR_MODES),
    _field("cross_check", "bool"),
    Key("count", "count", (), lo=1),
    Key("seed", "count", (), lo=0),
    Key("parallel", "count", (), lo=1),
)
TABLE = {command: {row.name: row for row in KEYS if command in row.commands}
         for command in BOTH}
OPTIONS = {row.name: row for row in KEYS if not row.commands}


def load(path: str) -> dict:
    """The mapping a YAML config file holds."""
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


def read(command: str, path: Optional[str], flags) -> tuple[dict, list[str]]:
    """``command``'s values, each from its flag in ``flags``, else from the
    config file at ``path`` under its name or an alias, else its default,
    read by ``coerce``; and an error for a file that does not load, or for
    each unknown key (by ``str``, then ``repr``), key given twice over and
    required key not given."""
    try:
        config = load(path) if path else {}
    except ValueError as exc:
        return {}, [str(exc)]
    rows = TABLE[command]
    spelling = {s: row.name for row in rows.values() for s in (row.name, *row.aliases)}
    errors = [f"unknown config key {k!r}"
              for k in sorted(set(config) - spelling.keys(), key=lambda k: (str(k), repr(k)))]
    errors += [f"config gives both {s!r} and {name!r}; give one of them"
               for s, name in spelling.items() if s != name and s in config and name in config]
    values = {}
    for row in rows.values():
        flag = getattr(flags, row.dest) if row.help else None
        given = [config[s] for s in (row.name, *row.aliases) if s in config]
        if flag is None and not given and row.required:
            errors.append(f"missing required key {row.name!r}")
        else:
            value = flag if flag is not None else given[0] if given else row.default
            values[row.name] = coerce(row, value)
    return values, errors


def check(rows: dict, values: dict) -> tuple[dict, list[str]]:
    """The ``values`` that pass ``check_value`` for their rows, as the
    program uses them, and an error for each that fails; None passes for a
    key that may be left out."""
    passed, errors = {}, []
    for name, value in values.items():
        row = rows[name]
        try:
            optional = value is None and row.default is None and not row.required
            passed[name] = None if optional else check_value(row, value)
        except ValueError as exc:
            errors.append(str(exc))
    return passed, errors
