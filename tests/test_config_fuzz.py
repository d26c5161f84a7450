"""Config fuzz of ``simulate``: every generated config either runs, with a
finite ``sum_rate.csv``, or exits 2 and names one of its keys.  It never
exits 1, prints a traceback or writes a NaN.

Each config starts valid and tiny: at most 8 users, 3 intervals and 2
trials.  One test then draws one to three of its float keys from the whole
float range as valid-typed values (WIDE).  The other replaces one to three
keys by a mistyped, out-of-range, scalar-for-list, empty or repeated
value, or removes them, and may add both spellings of a list key, one or
two unknown keys, strings or not, or a bad ``--scheme`` flag (BAD).  Both may use the singular
spellings.  The search is derandomized, so every run tries the same
configs."""

import contextlib
import csv
import io
import math

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noma_rbc import cli
from noma_rbc.core import Scheme
from noma_rbc.scheduling import NEIGHBOR_MODES, PAIRINGS
from noma_rbc.simulation import FADING_MODES

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
    for one, many in cli._SIM_ALIASES.items():
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
        names = set(config) | set(cli._SIM_REQUIRED_KEYS) | ({"schemes"} if flags else set())
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert errors and all(any(str(k) in line for k in names) for line in errors), err
        assert not (out / "sum_rate.csv").exists()


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
