"""Config fuzz of ``simulate`` and ``region``: every generated config either
runs, with a finite ``sum_rate.csv`` or ``rate_region.csv``, or exits 2,
names one of its keys on every error line and leaves no output directory.
It never exits 1, prints a traceback or writes a NaN.

Each ``simulate`` config starts valid and tiny: at most 8 users, 3
intervals and 2 trials.  One test then draws one to three of its float
keys from the whole float range as valid-typed values (WIDE).  The other
replaces one to three keys by a mistyped, out-of-range, scalar-for-list,
empty or repeated value, or removes them, and may add both spellings of a
list key, one or two unknown keys, strings or not, or a bad ``--scheme``
flag (BAD).  Both may use the singular spellings.

Each ``region`` config starts valid with an alpha grid of at most 5
points, and its values are drawn from the config table's rows: for the
WIDE test a valid-typed value of each drawn key's kind from the whole
float range, within the row's range where it is bounded; for the BAD test
junk, out-of-range or removed values, unknown keys, and flags with values
of the flag's type but out of range or naming no scheme.  The search is
derandomized, so every run tries the same configs."""

import contextlib
import csv
import io
import math

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noma_rbc import cli
from noma_rbc.config import FADING_MODES, NEIGHBOR_MODES, PAIRINGS, TABLE
from noma_rbc.core import Scheme

LABELS = [s.label for s in Scheme]

# any YAML scalar or a small container of them; no positive integer, which
# as a count could ask for a large run
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), st.integers(max_value=0), st.floats(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=1),
)
# every float, NaN, infinities, subnormals and extremes included, and
# either sign of every decade of the float range
DECADES = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                    st.sampled_from([1.0, -1.0]), st.integers(-320, 308))
ANY_FLOAT = st.one_of(st.floats(), DECADES, st.integers(-10 ** 6, 10 ** 6), st.just(10 ** 400))


def list_of(entries, max_size=4):
    """A list of ``entries``, empty or with repeats, or one of them as a
    scalar."""
    return st.one_of(st.lists(entries, max_size=max_size), entries)


# valid-typed values from the whole float range, many of them accepted
WIDE = {
    "edge_radius_m": DECADES.map(abs),
    "inner_radius_m": DECADES.map(abs),
    "path_loss_exp": st.one_of(DECADES.map(abs), st.floats(0.0, 1000.0)),
    "edge_snr_db": st.floats(-4000.0, 4000.0),
    "tau": st.floats(0.0, 1.0),
    "alpha": st.floats(0.0, 1.0),
    "p1_over_p0_db": st.lists(st.floats(-4000.0, 4000.0), min_size=1, max_size=2, unique=True),
}
BAD = {
    "users": st.one_of(st.integers(max_value=1), JUNK),
    "blocks": st.one_of(st.integers(), st.just(10 ** 400), JUNK),
    "intervals": st.one_of(st.integers(max_value=3), JUNK),
    "trials": st.one_of(st.integers(max_value=2), JUNK),
    "seed": st.one_of(st.integers(), st.just(10 ** 400), JUNK),
    "edge_radius_m": st.one_of(ANY_FLOAT, JUNK),
    "inner_radius_m": st.one_of(ANY_FLOAT, JUNK),
    "path_loss_exp": st.one_of(ANY_FLOAT, JUNK),
    "edge_snr_db": st.one_of(ANY_FLOAT, JUNK),
    "tau": st.one_of(ANY_FLOAT, JUNK),
    "alpha": st.one_of(ANY_FLOAT, JUNK),
    "p1_over_p0_db": st.one_of(list_of(ANY_FLOAT), JUNK),
    "schemes": st.one_of(list_of(st.sampled_from(LABELS + ["x", " GBC "]), 6),
                         st.just(",".join(LABELS)), st.just("gbc,gbc"), JUNK),
    "pairings": st.one_of(list_of(st.sampled_from(PAIRINGS + ("far-near",))), JUNK),
    "fading": st.one_of(st.sampled_from(FADING_MODES), JUNK),
    "neighbors": st.one_of(st.sampled_from(NEIGHBOR_MODES), JUNK),
    "cross_check": st.one_of(st.booleans(), JUNK),
}


# the singular spelling of each list key, and the required keys, per command
ALIASES = {command: {one: row.name for row in rows.values() for one in row.aliases}
           for command, rows in TABLE.items()}
REQUIRED = {command: {row.name for row in rows.values() if row.required}
            for command, rows in TABLE.items()}


def one_in(n):
    return st.integers(0, n - 1).map(lambda k: k == 0)


@st.composite
def configs(draw, bad):
    """(config mapping, extra flags) of one ``simulate`` call: a valid tiny
    config with up to three keys drawn from the whole float range (WIDE)
    or, when ``bad``, with up to three keys replaced by bad values or
    removed, and maybe both spellings of a list key, unknown keys of mixed
    types or a bad flag (BAD)."""
    users = draw(st.integers(2, 8))
    config = {
        "users": users,
        "blocks": draw(st.integers(1, users // 2)),
        "intervals": draw(st.integers(1, 3)),
        "trials": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2 ** 32)),
        "p1_over_p0_db": draw(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=2,
                                       unique=True)),
        "schemes": draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                                 unique=True)),
        "pairings": draw(st.lists(st.sampled_from(PAIRINGS), min_size=1, max_size=2,
                                  unique=True)),
        "fading": draw(st.sampled_from(FADING_MODES)),
        "neighbors": draw(st.sampled_from(NEIGHBOR_MODES)),
        "cross_check": draw(st.booleans()),
    }
    values = BAD if bad else WIDE
    for key in draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=3,
                             unique=True)):
        if bad and draw(one_in(8)):
            config.pop(key, None)
        else:
            config[key] = draw(values[key])
    for one, many in ALIASES["simulate"].items():
        spelling = draw(st.sampled_from(["plural", "singular", "both"][:2 + bad]))
        if many in config and spelling == "singular":
            config[one] = config.pop(many)
        elif many in config and spelling == "both":
            config[one] = draw(BAD[many])
    if bad and draw(one_in(3)):
        unknown = st.sampled_from(["what", "p1", "scheme_list", "noise_power", 1, 2.5, None])
        for key in draw(st.lists(unknown, min_size=1, max_size=2, unique=True)):
            config[key] = 1
    flags = []
    if draw(one_in(3)):
        flags += ["--scheme", draw(st.sampled_from(["gbc", "rbc-cf,gbc", ",", "x", "gbc,gbc"]
                                                   [:2 + 3 * bad]))]
    return config, flags


def check_simulate(root, config, flags):
    """``simulate`` on ``config`` exits 0 with a finite ``sum_rate.csv``,
    or exits 2 with every error line naming a key."""
    path = root / "sim.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out = root / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)] + flags)
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR), (code, err)
    if code == cli.EXIT_OK:
        with open(out / "sum_rate.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(math.isfinite(float(r[k])) for r in rows for k in ("mean_sum_rate", "stderr"))
    else:
        names = set(config) | REQUIRED["simulate"] | ({"schemes"} if flags else set())
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and all(any(str(k) in line for k in names) for line in errors), err
        assert not out.exists()


def fuzz(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@fuzz(400)
@given(case=configs(bad=False))
def test_wide_values_run_finite_or_exit_2_naming_a_key(tmp_path_factory, case):
    check_simulate(tmp_path_factory.mktemp("wide"), *case)


@fuzz(250)
@given(case=configs(bad=True))
def test_bad_values_run_finite_or_exit_2_naming_a_key(tmp_path_factory, case):
    check_simulate(tmp_path_factory.mktemp("bad"), *case)


# ---------------------------------------------------------------------------
# region

REGION = TABLE["region"]
REGION_BASE = {"g01": 8.0, "g02": 1.0, "g12": 8.0, "p0_db": 10.0, "p1_db": 10.0,
               "alpha_grid": 3}


def wide_value(row):
    """A valid-typed value of ``row``'s kind from the whole float range,
    within its range where that is bounded; alpha grids of at most 5 points."""
    if row.kind == "alpha grid":
        return st.one_of(st.integers(2, 5),
                         st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    if row.kind == "scheme list":
        return st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True)
    if row.kind == "dB power":
        return st.floats(-4000.0, 4000.0)
    if row.hi < math.inf:
        return st.floats(row.lo, row.hi, exclude_min=row.open, exclude_max=row.open)
    return st.one_of(DECADES.map(abs), st.floats(row.lo, 1e6, exclude_min=row.open))


def bad_value(row):
    """Junk, an out-of-range number or a bad list for ``row``'s kind;
    alpha-grid counts are never positive except too large to allocate."""
    if row.kind == "alpha grid":
        return st.one_of(JUNK, st.just(10 ** 15), st.just(10 ** 400), st.integers(max_value=1),
                         st.lists(st.one_of(ANY_FLOAT, JUNK), max_size=4), st.just("0,,2"))
    if row.kind == "scheme list":
        return st.one_of(list_of(st.one_of(st.sampled_from(LABELS + ["x", " GBC "]), JUNK), 6),
                         st.just("gbc,gbc"), JUNK)
    return st.one_of(ANY_FLOAT, JUNK)


BAD_FLAGS = st.sampled_from([
    ["--scheme", "x"], ["--scheme", "gbc,gbc"], ["--scheme", ","], ["--alpha-grid", "0,2"],
    ["--alpha-grid", "1"], ["--alpha-grid", "nan"], ["--alpha", "nan"], ["--alpha", "1.5"],
    ["--p0-db", "4000"], ["--p0-db", "-4000"], ["--p1-db", "4000"], ["--g01", "-1"],
    ["--g02", "inf"], ["--n1", "0"], ["--n-hat", "-1"], ["--g12", "1e300"],
])
FLAG_KEYS = {"--" + row.dest.replace("_", "-"): name for name, row in REGION.items() if row.help}


@st.composite
def region_configs(draw, bad):
    """(config mapping, flags) of one ``region`` call: a valid config with up
    to three keys drawn by ``wide_value``, or, when ``bad``, by
    ``bad_value`` or removed, maybe with unknown keys and a bad flag."""
    config = dict(REGION_BASE)
    for name in draw(st.lists(st.sampled_from(sorted(REGION)), min_size=1, max_size=3,
                              unique=True)):
        if bad and draw(one_in(4)):
            config.pop(name, None)
        else:
            config[name] = draw((bad_value if bad else wide_value)(REGION[name]))
    if "schemes" in config and draw(one_in(4)):
        config["scheme"] = config.pop("schemes")
    flags = []
    if bad and draw(one_in(3)):
        for key in draw(st.lists(st.sampled_from(["what", "p1", "scheme_list", 1, None]),
                                 min_size=1, max_size=2, unique=True)):
            config[key] = 1
    if bad and draw(one_in(3)):
        flags = draw(BAD_FLAGS)
    return config, flags


def check_region(root, config, flags):
    """``region`` on ``config`` exits 0 with a finite ``rate_region.csv``, or
    exits 2 with every error line naming a key and no output directory."""
    path = root / "region.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    out = root / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["region", "--config", str(path), "--out", str(out)] + flags)
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG_ERROR), (code, err)
    if code == cli.EXIT_OK:
        with open(out / "rate_region.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert all(math.isfinite(float(r[k])) for r in rows
                   for k in ("alpha", "r1_bits", "r2_bits", "n_hat") if r[k])
    else:
        names = set(config) | REQUIRED["region"] | {FLAG_KEYS[f] for f in flags[::2]}
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and all(any(str(k) in line for k in names) for line in errors), err
        assert not out.exists()


@fuzz(200)
@given(case=region_configs(bad=False))
def test_region_wide_values_run_finite_or_exit_2_naming_a_key(tmp_path_factory, case):
    check_region(tmp_path_factory.mktemp("region-wide"), *case)


@fuzz(200)
@given(case=region_configs(bad=True))
def test_region_bad_values_run_finite_or_exit_2_naming_a_key(tmp_path_factory, case):
    check_region(tmp_path_factory.mktemp("region-bad"), *case)
