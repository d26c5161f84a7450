import contextlib
import csv
import io
import time
import json
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from noma_rbc import cli, config, rates, simulation
from noma_rbc.core import ChannelParams, Scheme
from noma_rbc.oracle import TermDelta, random_verification_draws
from noma_rbc.rates import RateRegionCurve, rate_kernel
from noma_rbc.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)

REGION_FLAGS = ["--g01", "8", "--g02", "1", "--g12", "8", "--p0-db", "10", "--p1-db", "10"]

SIM_CONFIG = """\
users: 8
blocks: 2
intervals: 10
trials: 2
seed: 11
edge_snr_db: 10
p1_over_p0_db: [0]
schemes: [gbc, rbc-df]
pairings: [near-far]
"""


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_region_emits_all_schemes(tmp_path):
    out = tmp_path / "out"
    rc = main(["region", "--out", str(out)] + REGION_FLAGS + ["--alpha-grid", "5"])
    assert rc == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    assert {r["scheme"] for r in rows} == {"gbc", "rbc-df", "rbc-cf", "rbc-cf-dpc"}
    assert len(rows) == 4 * 5
    # CF rows carry the optimized compression noise, others leave it blank
    for r in rows:
        if r["scheme"] in ("rbc-cf", "rbc-cf-dpc") and float(r["alpha"]) < 1.0:
            assert float(r["n_hat"]) > 0.0
        if r["scheme"] in ("gbc", "rbc-df"):
            assert r["n_hat"] == ""
    manifest = json.loads((out / "rate_region.manifest.json").read_text())
    assert manifest["command"] == "region"
    assert str(out / "rate_region.csv") in manifest["outputs"]


def test_region_checks_the_alpha_grid_once(tmp_path, monkeypatch):
    checked = []

    def counting(grid, real=rates.check_alpha_grid):
        checked.append(len(grid))
        return real(grid)
    for module in (config, rates):
        monkeypatch.setattr(module, "check_alpha_grid", counting)
    assert main(["region", "--out", str(tmp_path / "out")] + REGION_FLAGS
                + ["--alpha-grid", "7"]) == EXIT_OK
    assert checked == [7]


def test_region_two_point_grid(tmp_path):
    out = tmp_path / "out"
    rc = main(["region", "--out", str(out)] + REGION_FLAGS +
              ["--alpha-grid", "0,1", "--scheme", "gbc"])
    assert rc == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    assert len(rows) == 2
    assert [float(r["alpha"]) for r in rows] == [0.0, 1.0]
    assert float(rows[0]["r1_bits"]) == 0.0
    assert float(rows[1]["r2_bits"]) == 0.0
    assert all(r["alpha_marked"] == "0" for r in rows)


def test_region_marks_requested_alpha(tmp_path):
    out = tmp_path / "out"
    rc = main(["region", "--out", str(out)] + REGION_FLAGS +
              ["--alpha-grid", "0,0.2,1", "--scheme", "gbc"])
    assert rc == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    marked = [r for r in rows if r["alpha_marked"] == "1"]
    assert len(marked) == 1 and float(marked[0]["alpha"]) == 0.2


def test_region_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = REGION_FLAGS + ["--alpha-grid", "21"]
    assert main(["region", "--out", str(out_a)] + args) == EXIT_OK
    assert main(["region", "--out", str(out_b)] + args) == EXIT_OK
    assert (out_a / "rate_region.csv").read_bytes() == (out_b / "rate_region.csv").read_bytes()


def test_manifest_writes_schemes_as_labels_and_numpy_scalars_as_numbers(tmp_path):
    snapshot = {"schemes": (Scheme.GBC, Scheme.RBC_CF), "users": np.int64(12),
                "alpha": np.float64(0.1), "points": [np.float32(0.5), (1, np.int32(3))]}
    path = cli._write_manifest(tmp_path, "m", "simulate", snapshot, np.int64(7), [], 0.0,
                               {"counters": [{"scheme": Scheme.RBC_DF, "role_swaps": np.int64(2)}]})
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["config"] == {"schemes": ["gbc", "rbc-cf"], "users": 12, "alpha": 0.1,
                                  "points": [0.5, [1, 3]]}
    assert manifest["seed"] == 7
    assert manifest["counters"] == [{"scheme": "rbc-df", "role_swaps": 2}]


# no crossing of the CF bounds at alpha = 0.625: the optimum is a bracket end
NO_ROOT_REGION = ["--g01", "483.6281010810058", "--g02", "0.49424497906414167",
                  "--g12", "808.1521184931604", "--alpha-grid", "0,0.2,0.625,1"]


@pytest.mark.parametrize("scale_db", [-120, 60])
def test_region_rows_do_not_depend_on_the_noise_unit(tmp_path, scale_db):
    # noise powers of 10^(scale_db / 10) and powers raised by as many dB: the
    # same rates, and the compression noise in the new unit
    rows = {}
    for db in (0, scale_db):
        noise = str(10.0 ** (db / 10.0))
        out = tmp_path / str(db)
        assert main(["region", "--out", str(out), "--n1", noise, "--n2", noise,
                     "--p0-db", str(10 + db), "--p1-db", str(10 + db)] + NO_ROOT_REGION) == EXIT_OK
        rows[db] = read_csv(out / "rate_region.csv")
    assert len(rows[0]) == len(rows[scale_db]) == 16
    for unit, scaled in zip(rows[0], rows[scale_db]):
        assert (unit["scheme"], unit["alpha"]) == (scaled["scheme"], scaled["alpha"])
        for column in ("r1_bits", "r2_bits"):
            assert float(scaled[column]) == pytest.approx(float(unit[column]), abs=1e-9)
        if unit["n_hat"]:
            assert float(scaled["n_hat"]) == pytest.approx(
                float(unit["n_hat"]) * 10.0 ** (scale_db / 10.0), rel=1e-9)
    cf = {r["alpha"]: r for r in rows[scale_db] if r["scheme"] == "rbc-cf"}
    assert float(cf["0.625"]["r2_bits"]) == pytest.approx(10.82579900595735, abs=1e-9)


def test_region_missing_gain_named(tmp_path, capsys):
    rc = main(["region", "--out", str(tmp_path), "--g02", "1", "--p0-db", "10"])
    assert rc == EXIT_CONFIG_ERROR
    assert "'g01'" in capsys.readouterr().err


def test_region_unordered_gains_hint(tmp_path, capsys):
    rc = main(["region", "--out", str(tmp_path), "--g01", "1", "--g02", "8",
               "--p0-db", "10"])
    assert rc == EXIT_CONFIG_ERROR
    assert "swap" in capsys.readouterr().err


def test_region_ordering_accounts_for_noise_powers(tmp_path, capsys):
    # g01/n1 >= g02/n2 decides, not the raw gains
    ok = main(["region", "--out", str(tmp_path / "ok"), "--g01", "2", "--g02", "3",
               "--p0-db", "10", "--n1", "1", "--n2", "2", "--alpha-grid", "0,1"])
    assert ok == EXIT_OK
    bad = main(["region", "--out", str(tmp_path / "bad"), "--g01", "2", "--g02", "3",
                "--p0-db", "10", "--n1", "2", "--n2", "1", "--alpha-grid", "0,1"])
    assert bad == EXIT_CONFIG_ERROR


def test_region_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "region.yaml"
    cfg.write_text("g01: 8\ng02: 1\np0_db: 10\nbogus: 1\n", encoding="utf-8")
    rc = main(["region", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    assert "bogus" in capsys.readouterr().err


def test_region_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "region.yaml"
    cfg.write_text("g01: 8\ng02: 1\ng12: 8\np0_db: 10\np1_db: 10\n"
                   "alpha_grid: [0.0, 0.5]\nschemes: [gbc]\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["region", "--config", str(cfg), "--out", str(out), "--scheme", "rbc-df"])
    assert rc == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    assert {r["scheme"] for r in rows} == {"rbc-df"}


def test_region_fixed_n_hat(tmp_path):
    out = tmp_path / "out"
    rc = main(["region", "--out", str(out)] + REGION_FLAGS +
              ["--alpha-grid", "0.2,0.4", "--scheme", "rbc-cf", "--n-hat", "1.0"])
    assert rc == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    assert all(float(r["n_hat"]) == 1.0 for r in rows)


@pytest.mark.parametrize("grid, mark, fixed", [
    ("0,0.05,0.30000000000000004,0.9999,1", "0.3", None),  # marked within 1e-12
    ("0,0.2,1", "0.2", "0.7"),
])
def test_region_csv_holds_the_kernel_values(tmp_path, grid, mark, fixed):
    out = tmp_path / "out"
    extra = ["--alpha-grid", grid, "--alpha", mark] + (["--n-hat", fixed] if fixed else [])
    assert main(["region", "--out", str(out)] + REGION_FLAGS + extra) == EXIT_OK
    rows = read_csv(out / "rate_region.csv")
    alphas = [float(a) for a in grid.split(",")]
    fixed = None if fixed is None else float(fixed)
    assert [r["scheme"] for r in rows] == [s.label for s in Scheme for _ in alphas]
    for scheme in Scheme:
        got = [r for r in rows if r["scheme"] == scheme.label]
        r1, r2, n_hat, _ = rate_kernel(scheme, 8.0, 1.0, 8.0, ChannelParams(p0=10.0, p1=10.0),
                                       np.array(alphas), fixed)
        assert [float(r["alpha"]) for r in got] == alphas
        assert [float(r["r1_bits"]) for r in got] == r1.tolist()
        assert [float(r["r2_bits"]) for r in got] == r2.tolist()
        want = ([""] * len(alphas) if n_hat is None
                else [repr(x) for x in np.broadcast_to(n_hat, len(alphas)).tolist()])
        assert [r["n_hat"] for r in got] == want
        assert [r["alpha_marked"] for r in got] == \
            ["1" if abs(a - float(mark)) <= 1e-12 else "0" for a in alphas]
        assert sum(r["alpha_marked"] == "1" for r in got) == 1


def csv_writer_reference(curves, mark):
    """``rate_region.csv`` as ``csv.writer`` writes it, one ``repr`` per float."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scheme", "alpha", "r1_bits", "r2_bits", "n_hat", "alpha_marked"])
    for label, alphas, r1, r2, n_hat in curves:
        for k, alpha in enumerate(alphas):
            writer.writerow([label, repr(alpha), repr(r1[k]), repr(r2[k]),
                             "" if n_hat is None else repr(n_hat[k]),
                             int(abs(alpha - mark) <= 1e-12)])
    return buf.getvalue()


@pytest.mark.parametrize("extra, schemes, alphas, fixed", [
    ([], tuple(Scheme), np.linspace(0.0, 1.0, 201).tolist(), None),
    (["--scheme", "rbc-cf-dpc,gbc", "--alpha-grid", "9"], (Scheme.RBC_CF_DPC, Scheme.GBC),
     np.linspace(0.0, 1.0, 9).tolist(), None),
    (["--n-hat", "0.7", "--alpha-grid", "17"], tuple(Scheme), np.linspace(0.0, 1.0, 17).tolist(),
     0.7),
    (["--alpha-grid", "1,0,0.2,0.61", "--scheme", "rbc-cf,rbc-df"],
     (Scheme.RBC_CF, Scheme.RBC_DF), [0.0, 0.2, 0.61, 1.0], None),
])
def test_region_csv_equals_a_csv_writer_reference(tmp_path, extra, schemes, alphas, fixed):
    out = tmp_path / "out"
    assert main(["region", "--out", str(out)] + REGION_FLAGS + extra) == EXIT_OK
    assert (out / "rate_region.csv").read_bytes() == region_reference(schemes, alphas, fixed)


def region_reference(schemes, alphas, fixed=None):
    """The ``rate_region.csv`` bytes of a ``REGION_FLAGS`` run over ``alphas``,
    from ``rate_kernel`` and ``csv_writer_reference``."""
    curves = []
    for scheme in schemes:
        r1, r2, n_hat, _ = rate_kernel(scheme, 8.0, 1.0, 8.0, ChannelParams(p0=10.0, p1=10.0),
                                       np.array(alphas), fixed)
        n_hat = None if n_hat is None else np.broadcast_to(n_hat, len(alphas)).tolist()
        curves.append((scheme.label, alphas, r1.tolist(), r2.tolist(), n_hat))
    return csv_writer_reference(curves, 0.2).encode("utf-8")


def test_region_keeps_one_alpha_grid_per_process(tmp_path):
    # "-0" first: a cache keyed on values would print the next grid's 0.0 as -0.0
    for grid, alphas in [("-0,0.5,1", [-0.0, 0.5, 1.0]), ("0,0.5,1", [0.0, 0.5, 1.0]),
                         ("201", np.linspace(0.0, 1.0, 201).tolist())]:
        out = tmp_path / "out"
        # with "=", argparse does not read "-0,..." as a flag
        assert main(["region", "--out", str(out), f"--alpha-grid={grid}"] + REGION_FLAGS) == EXIT_OK
        assert (out / "rate_region.csv").read_bytes() == region_reference(tuple(Scheme), alphas)
    for points in range(2, 52):
        assert main(["region", "--out", str(out), "--alpha-grid", str(points)] +
                    REGION_FLAGS) == EXIT_OK
    key, reprs = cli._grid_reprs
    assert key == np.linspace(0.0, 1.0, 51).tobytes()
    assert reprs == [row["alpha"] for row in read_csv(out / "rate_region.csv")][:51]


def test_a_rerun_replaces_its_outputs(tmp_path):
    # a rerun into the same --out writes new files: a hard link made between
    # the runs keeps the first run's bytes, and no other file is left
    out, links = tmp_path / "out", tmp_path / "links"
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    runs = (["region", "--out", str(out)] + REGION_FLAGS,
            ["simulate", "--config", str(cfg), "--out", str(out)])
    names = ["rate_region.csv", "rate_region.manifest.json", "sum_rate.csv",
             "sum_rate.manifest.json"]
    for argv in runs:
        assert main(argv) == EXIT_OK
    first = {name: (out / name).read_bytes() for name in names}
    links.mkdir()
    for name in names:
        os.link(out / name, links / name)
    for argv in runs:
        assert main(argv) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        # the CSVs' bytes are the same on a rerun, so the files are told apart
        assert not (links / name).samefile(out / name), name
        assert (links / name).read_bytes() == first[name], name
        again = (out / name).read_bytes()
        if name.endswith(".csv"):
            assert again == first[name], name
        else:
            old, new = json.loads(first[name]), json.loads(again)
            del old["duration_s"], new["duration_s"]
            assert old == new, name


def test_region_csv_formats_signed_zeros_by_their_bits():
    # 0.0 == -0.0, so a memo keyed on values would print "0.0" for both
    memo = {}
    assert cli._reprs(np.array([0.0, 0.5]), memo) == ["0.0", "0.5"]
    assert cli._reprs(np.array([-0.0, 0.5]), memo) == ["-0.0", "0.5"]
    alphas = np.array([0.0, 0.5])
    curves = [RateRegionCurve(Scheme.GBC, alphas, np.array([0.0, 1.0]), np.array([-0.0, 2.0])),
              RateRegionCurve(Scheme.RBC_CF, alphas, np.array([-0.0, 1.0]),
                              np.array([0.0, 2.0]), np.array([0.0, -0.0]))]
    reference = csv_writer_reference(
        [(c.scheme.label, c.alphas.tolist(), c.r1.tolist(), c.r2.tolist(),
          None if c.n_hat is None else c.n_hat.tolist()) for c in curves], 0.5)
    assert cli._region_csv(curves, alphas, 0.5) == reference
    assert "gbc,0.0,0.0,-0.0,,0" in reference and "rbc-cf,0.0,-0.0,0.0,0.0,0" in reference


@pytest.mark.parametrize("flags, text", [
    (["--scheme", ","], None),
    (["--scheme", ""], None),
    ([], "g01: 8\ng02: 1\np0_db: 10\nschemes: []\nalpha_grid: 3\n"),
    ([], "g01: 8\ng02: 1\np0_db: 10\nschemes: ''\nalpha_grid: 3\n"),
], ids=["flag-comma", "flag-empty", "config-list", "config-string"])
def test_region_empty_scheme_list_exits_2(tmp_path, capsys, flags, text):
    # as in simulate; a config without the key still runs all four schemes
    argv = ["region", "--out", str(tmp_path / "out")] + flags
    if text is None:
        argv += ["--g01", "8", "--g02", "1", "--p0-db", "10"]
    else:
        cfg = tmp_path / "region.yaml"
        cfg.write_text(text, encoding="utf-8")
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert "schemes must list at least one value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_config_loader_reads_the_same_values_with_or_without_libyaml(tmp_path, monkeypatch,
                                                                     libyaml):
    import yaml

    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    loaders = []
    real_load = yaml.load

    def load(stream, Loader):
        loaders.append(Loader)
        return real_load(stream, Loader=Loader)
    monkeypatch.setattr(yaml, "load", load)
    text = ("base: &b {users: 8, tau: 1e-2}\nsim:\n  <<: *b\n  schemes: [gbc, rbc-df]\n"
            "  seed: 0x10\n  fading: ~\n  edge: .inf\n  flag: yes\n")
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text, encoding="utf-8")
    assert config.load(str(cfg)) == yaml.load(text, Loader=yaml.SafeLoader)
    base = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert issubclass(loaders[0], base) and (libyaml or base is yaml.SafeLoader)
    cfg.write_text("users: 8\nsim:\n  seed: 1\n  seed: 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key 'seed' is given twice, on lines 3 and 4"):
        config.load(str(cfg))
    cfg.write_text("schemes: [gbc, rbc-df\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^cannot parse config"):
        config.load(str(cfg))


@pytest.mark.parametrize("command, text", [
    ("simulate", SIM_CONFIG.replace("schemes: [gbc, rbc-df]\n",
                                    "schemes: [gbc]\nschemes: [rbc-df]\n")),
    ("region", "g01: 8\ng02: 1\np0_db: 10\np1_db: 10\ng12: 8\np1_db: 0\n"),
])
def test_config_key_given_twice_exits_2_naming_the_key(tmp_path, capsys, command, text):
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text, encoding="utf-8")
    key = "schemes" if command == "simulate" else "p1_db"
    lines = [k + 1 for k, line in enumerate(text.splitlines()) if line.startswith(key + ":")]
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == \
        EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"key '{key}' is given twice, on lines {lines[0]} and {lines[1]}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, key", [
    (["--p0-db", "4000"], "p0_db"),
    (["--p1-db", "4000"], "p1_db"),
    (["--alpha-grid", "0,0.5,2"], "alpha_grid"),
    (["--alpha-grid", "nan"], "alpha_grid"),
    (["--alpha-grid", "1,nan"], "alpha_grid"),
    (["--alpha-grid", ","], "alpha_grid"),
    (["--alpha", "nan"], "alpha"),
    (["--alpha", "inf"], "alpha"),
    (["--alpha", "1.5"], "alpha"),
    (["--alpha", "-0.1"], "alpha"),
    (["--scheme", "gbc,gbc"], "schemes"),
    (["--scheme", "x"], "schemes"),
    # a linear power that underflows to 0
    (["--p0-db", "-4000"], "p0_db"),
    # numpy refuses a grid this large at once
    (["--alpha-grid", "1000000000000000"], "alpha_grid"),
])
def test_region_bad_value_exits_2_naming_the_key(tmp_path, capsys, flags, key):
    base = {"--g01": "8", "--g02": "1", "--g12": "8", "--p0-db": "10", "--p1-db": "10"}
    base.update(zip(flags[::2], flags[1::2]))
    argv = ["region", "--out", str(tmp_path / "out")] + [a for kv in base.items() for a in kv]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") or err.startswith(f"error: {key}:"), err
    assert not (tmp_path / "out").exists()


def _region_config(tmp_path, line):
    values = {"g01": "8", "g02": "1", "p0_db": "10"}
    values.update([line.split(": ", 1)])
    cfg = tmp_path / "region.yaml"
    cfg.write_text("".join(f"{k}: {v}\n" for k, v in values.items()), encoding="utf-8")
    return ["region", "--config", str(cfg), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("line, key", [
    ("g01: abc", "g01"), ("g12: [8]", "g12"), ("n1: {a: 1}", "n1"), ("p0_db: ten", "p0_db"),
    ("p1_db: [10]", "p1_db"), ("alpha: [0.2]", "alpha"), ("n_hat: [1]", "n_hat"),
    ("alpha_grid: {a: 1}", "alpha_grid"), ("schemes: 5", "schemes"),
    ("schemes: [gbc, null]", "schemes"),
])
def test_region_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, line, key):
    assert main(_region_config(tmp_path, line)) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key is None or err.startswith(f"error: {key} ") or err.startswith(f"error: {key}:"), err


@pytest.mark.parametrize("line, key, value", [
    ("g01: true", "g01", True), ("g02: false", "g02", False), ("g12: yes", "g12", True),
    ("n1: true", "n1", True), ("n2: on", "n2", True), ("p0_db: true", "p0_db", True),
    ("p1_db: false", "p1_db", False), ("alpha: true", "alpha", True),
    ("n_hat: yes", "n_hat", True), ("alpha_grid: [0, true, 0.5]", "alpha_grid", True),
])
def test_region_config_boolean_is_not_a_number(tmp_path, capsys, line, key, value):
    # YAML reads true/yes/on and false as booleans, which float() takes as 1 and 0:
    # p1_db: false would give a 0 dB relay, not none
    assert main(_region_config(tmp_path, line)) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") or err.startswith(f"error: {key}:"), err
    assert f"must be a number, got {value!r}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, text", [
    ("alpha_grid: 201.0", "expected a point count or a list of alphas, got 201.0"),
    ("alpha_grid: 1000000000000000", "too many points for memory"),
])
def test_region_config_alpha_grid_that_is_no_count_or_too_large_exits_2(tmp_path, capsys, line,
                                                                        text):
    assert main(_region_config(tmp_path, line)) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: alpha_grid: ") and text in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["g12: 1e-3", "n_hat: 1e-3", "alpha_grid: [0, 1e-3, 1]"])
def test_region_config_numeric_strings_are_numbers(tmp_path, line):
    # PyYAML reads 1e-3 (no dot in the mantissa) as a string
    assert main(_region_config(tmp_path, line)) == EXIT_OK
    assert (tmp_path / "out" / "rate_region.csv").exists()


def test_region_reports_every_bad_key_at_once(tmp_path, capsys):
    cfg = tmp_path / "region.yaml"
    cfg.write_text("g01: -1\ng02: 1\np0_db: 10\nn1: 0\nalpha: 3\nbogus: 1\n", encoding="utf-8")
    assert main(["region", "--config", str(cfg), "--out", str(tmp_path / "out")]) == \
        EXIT_CONFIG_ERROR
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 4 and all(line.startswith("error: ") for line in errors), errors
    for key in ("unknown config key 'bogus'", "g01 ", "n1 ", "alpha "):
        assert sum(line.startswith("error: " + key) for line in errors) == 1, errors
    assert not (tmp_path / "out").exists()


def test_region_config_reads_the_singular_scheme_spelling(tmp_path, capsys):
    singular = _region_config(tmp_path, "scheme: rbc-df,gbc")
    assert main(singular) == EXIT_OK
    rows = read_csv(tmp_path / "out" / "rate_region.csv")
    assert [r["scheme"] for r in rows[::201]] == ["rbc-df", "gbc"]
    both = tmp_path / "both.yaml"
    both.write_text("g01: 8\ng02: 1\np0_db: 10\nscheme: gbc\nschemes: [gbc]\n", encoding="utf-8")
    assert main(["region", "--config", str(both), "--out", str(tmp_path / "both")]) == \
        EXIT_CONFIG_ERROR
    assert "config gives both 'scheme' and 'schemes'" in capsys.readouterr().err
    assert not (tmp_path / "both").exists()


def test_readme_key_table_lists_the_config_table():
    # README's key table: key, command, kind, range, unit, aliases, default or required
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | command | kind |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for line in table.splitlines()[2:]:
        key, commands, kind, _, unit, aliases, default = \
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        for command in commands.split(", "):
            documented.add((key, command, kind, unit, aliases, default == "required"))
    assert documented == {
        (row.name, command, row.kind, row.unit, ", ".join(row.aliases), row.required)
        for command, rows in config.TABLE.items() for row in rows.values()}


def test_region_overflowing_rates_exit_2_naming_the_inputs(tmp_path, capsys):
    rc = main(["region", "--out", str(tmp_path / "out"), "--g01", "1e300", "--g02", "0.5",
               "--p0-db", "100", "--p1-db", "10", "--g12", "1"])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "r1 must be finite, got inf" in err
    assert all(key in err for key in ("g01", "g02", "g12", "p0_db", "p1_db"))
    assert not (tmp_path / "out").exists()


def test_simulate_smoke(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    started = time.monotonic()
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert time.monotonic() - started < 5.0  # desk-scale run stays interactive
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # progress goes to stderr only
    assert "running" in captured.err
    rows = read_csv(out / "sum_rate.csv")
    assert len(rows) == 2  # two schemes x one pairing x one sweep point
    assert {r["scheme"] for r in rows} == {"gbc", "rbc-df"}
    manifest = json.loads((out / "sum_rate.manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["config"]["users"] == 8
    assert manifest["artifact_version"]


@pytest.mark.parametrize("kind, message", [
    ("missing", "cannot read config"),
    ("directory", "cannot read config"),
    ("list", "must be a mapping of keys to values"),
    ("scalar", "must be a mapping of keys to values"),
])
def test_simulate_config_that_loads_no_mapping_exits_2_naming_the_file(tmp_path, capsys, kind,
                                                                       message):
    cfg = tmp_path / "sim.yaml"
    if kind == "directory":
        cfg.mkdir()
    elif kind != "missing":
        cfg.write_text({"list": "- users: 8\n- blocks: 2\n", "scalar": "8\n"}[kind],
                       encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"config {str(cfg)!r}" in err and message in err and "Traceback" not in err, err
    assert not (tmp_path / "out").exists()


def test_simulate_missing_required_key_named(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG.replace("seed: 11\n", ""), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    assert "'seed'" in capsys.readouterr().err


def test_simulate_enumerates_all_errors_at_once(tmp_path, capsys):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("users: 3\nblocks: 2\nintervals: 0\ntrials: 1\nseed: 1\nwhat: 1\n",
                   encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "what" in err and "users" in err and "intervals" in err


def test_simulate_same_seed_identical_csv(tmp_path):
    # identical seed and config give identical bytes, whatever the degree
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                 "--parallel", "2"]) == EXIT_OK
    assert (out_a / "sum_rate.csv").read_bytes() == (out_b / "sum_rate.csv").read_bytes()


def test_simulate_keeps_the_ledger_of_a_relay_only_user_finite(tmp_path):
    # at alpha = 0 every relay gets r1 = 0, so a user served only as a relay
    # decays in the PF ledger, to 0.0 within about 320 intervals at tau 0.9
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("users: 8\nblocks: 3\nschemes: [gbc]\npairings: [nearest]\n"
                   "p1_over_p0_db: [0]\ntrials: 2\nintervals: 400\nseed: 1\n"
                   "alpha: 0.0\ntau: 0.9\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_OK
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    rows = read_csv(tmp_path / "out" / "sum_rate.csv")
    assert len(rows) == 1
    assert np.isfinite([float(rows[0][k]) for k in ("mean_sum_rate", "stderr")]).all()


def test_simulate_progress_says_which_process_ran_each_task(tmp_path, monkeypatch, capfd):
    # capfd: a forked pool worker writes its own lines to the inherited fd 2
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--parallel", "2"]) == EXIT_OK
    manifest = json.loads((out / "sum_rate.manifest.json").read_text())
    assert manifest["parallel"] == {"requested": 2, "effective": 2, "pool_workers": 1,
                                    "tasks": 2}
    done = [line for line in capfd.readouterr().err.splitlines() if line.startswith("done ")]
    assert len(done) == 2
    assert all(re.search(r"\(\d/2\) in (this process|a pool worker) at \d+\.\d\d s$", line)
               for line in done)
    assert any(" in this process at " in line for line in done)


def test_simulate_manifest_reports_the_degree_the_run_used(tmp_path, monkeypatch, capfd):
    # the affinity set shrinks to one CPU once the run has taken its degree
    calls = []

    def affinity(pid):
        calls.append(pid)
        return {0, 1} if len(calls) == 1 else {0}
    monkeypatch.setattr(simulation.os, "sched_getaffinity", affinity, raising=False)
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--parallel", "2"]) == EXIT_OK
    done = [line for line in capfd.readouterr().err.splitlines() if line.startswith("done ")]
    manifest = json.loads((out / "sum_rate.manifest.json").read_text())
    assert manifest["parallel"] == {"requested": 2, "effective": 2, "pool_workers": 1,
                                    "tasks": len(done)}


def test_simulate_reads_yaml_exponents_as_numbers(tmp_path):
    # PyYAML reads an exponent without a dot in the mantissa as a string
    runs = []
    for tau, radius, db in (("0.01", "500.0", "-10.0"), ("1e-2", "5e2", "-1e1")):
        cfg = tmp_path / f"sim-{tau}.yaml"
        cfg.write_text(SIM_CONFIG.replace("p1_over_p0_db: [0]", f"p1_over_p0_db: [{db}]")
                       + f"tau: {tau}\nedge_radius_m: {radius}\n", encoding="utf-8")
        out = tmp_path / f"out-{tau}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "sum_rate.manifest.json").read_text())
        runs.append(((out / "sum_rate.csv").read_bytes(), manifest["config"]))
    assert runs[0] == runs[1]
    assert (runs[1][1]["tau"], runs[1][1]["edge_radius_m"], runs[1][1]["p1_over_p0_db"]) == \
        (0.01, 500.0, [-10.0])


def test_simulate_flag_overrides(tmp_path):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--scheme", "gbc", "--trials", "3", "--seed", "99"])
    assert rc == EXIT_OK
    rows = read_csv(out / "sum_rate.csv")
    assert len(rows) == 1
    assert rows[0]["scheme"] == "gbc"
    assert rows[0]["trials"] == "3"
    assert rows[0]["seed"] == "99"


def test_verify_small_run(capsys):
    assert main(["verify", "--count", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max delta" in out


def test_verify_single_draw():
    assert main(["verify", "--count", "1"]) == EXIT_OK


def test_verify_injected_error_fails(capsys):
    rc = main(["verify", "--count", "2", "--inject-error"])
    assert rc == EXIT_VERIFY_FAILED
    assert "worst case" in capsys.readouterr().out


def test_verify_reports_every_term(capsys):
    assert main(["verify", "--count", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("verified 4 schemes x 3 draws: max delta = ")
    terms = [line.split()[:2] for line in lines[1:]]
    assert terms == [
        ["gbc", "r1"], ["gbc", "r2"],
        ["rbc-df", "r1"], ["rbc-df", "r2_forward"], ["rbc-df", "r2_decode"],
        ["rbc-cf", "r1"], ["rbc-cf", "r2_cutset"], ["rbc-cf", "r2_forward"],
        ["rbc-cf", "r2_compression_loss"],
        ["rbc-cf-dpc", "r1"], ["rbc-cf-dpc", "r2_cutset"], ["rbc-cf-dpc", "r2_forward"],
        ["rbc-cf-dpc", "r2_compression_loss"]]
    assert all(line.endswith(" nats") and "max delta = " in line for line in lines[1:])


@pytest.mark.parametrize("inject", [[], ["--inject-error"]])
def test_verify_fails_on_a_nan_delta_and_names_its_draw(monkeypatch, capsys, inject):
    real = cli.verify_terms

    def with_nan(*batch):
        terms = real(*batch)
        r1, forward, decode = terms[Scheme.RBC_DF]
        oracle_nats = np.array(forward.oracle_nats)
        oracle_nats[3] = np.nan
        terms[Scheme.RBC_DF] = (r1, TermDelta(forward.name, forward.closed_form_nats,
                                              oracle_nats), decode)
        return terms

    monkeypatch.setattr(cli, "verify_terms", with_nan)
    assert main(["verify", "--count", "10"] + inject) == EXIT_VERIFY_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verified 4 schemes x 10 draws: max delta = nan nats (tolerance 1e-09)"
    assert lines[4] == "  rbc-df     r2_forward          max delta = nan nats"
    # every other term line is finite, in the format of a passing run
    assert all(re.fullmatch(r"  \S+ +\S+ +max delta = \d\.\d{3}e-\d\d nats", line)
               for k, line in enumerate(lines[1:14], 1) if k != 4), lines
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cli.DEFAULT_VERIFY_SEED)))
    g01, g02, g12, _, alpha, n_hat = (float(v[3]) if np.ndim(v) else v
                                      for v in random_verification_draws(rng, 10))
    assert lines[14:17] == ["worst case:", "  scheme = rbc-df",
                            f"  gains  = g01={g01!r} g02={g02!r} g12={g12!r}"]
    assert lines[18] == f"  alpha  = {alpha!r}  n_hat = {n_hat!r}"


@pytest.mark.parametrize("flags, key", [
    (["--count", "0"], "count"),
    (["--count", "-5"], "count"),
    (["--seed", "-1"], "seed"),
])
def test_verify_bad_count_or_seed_exits_2(capsys, flags, key):
    assert main(["verify"] + flags) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert key in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


# a command run once the test has read one line and closed the pipe, as in
# ``noma-rbc verify | head -1`` when head exits before verify has printed
CLOSED_PIPE_CHILD = """\
import select, sys
from noma_rbc.cli import main
print("ready", flush=True)
poll = select.poll()
poll.register(sys.stdout, select.POLLERR)
poll.poll(60_000)
sys.exit(main(sys.argv[1:]))
"""


def test_a_closed_stdout_ends_a_command_without_a_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen([sys.executable, "-c", CLOSED_PIPE_CHILD, "verify", "--count", "20"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"ready\n"
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert b"Traceback" not in err, err.decode()
    assert child.returncode == EXIT_BROKEN_PIPE


@pytest.mark.parametrize("line, key", [
    ("path_loss_exp: .nan", "path_loss_exp"),
    # a string that spells a number is read as one, a boolean is not
    ("tau: 1e400", "tau"),
    ("tau: true", "tau"),
    ("edge_radius_m: 5e2m", "edge_radius_m"),
    ("p1_over_p0_db: [-1e400]", "p1_over_p0_db"),
    ("edge_snr_db: .nan", "edge_snr_db"),
    ("seed: -1", "seed"),
    ("users: 8.5", "users"),
    ("p1_over_p0_db: [0, .inf]", "p1_over_p0_db"),
    ("pairings: [near-far, far-near]", "pairing"),
    ("schemes: [gbc, rbc-cf, gbc]", "schemes"),
    ("pairings: [nearest, nearest]", "pairings"),
    ("p1_over_p0_db: [0, 0]", "p1_over_p0_db"),
    # a value that is not a list
    ("schemes: 5", "schemes"),
    ("pairings: 5", "pairings"),
    # a singular key beside its list key
    ("scheme: rbc-cf", "scheme"),
    ("pairing: nearest", "pairings"),
])
def test_simulate_bad_value_exits_2_naming_the_key(tmp_path, capsys, line, key):
    # the line replaces the config's own entry for its key, if it has one
    name = line.split(":")[0]
    kept = [k for k in SIM_CONFIG.splitlines(keepends=True) if not k.startswith(name + ":")]
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("".join(kept) + line + "\n", encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "out" / "sum_rate.csv").exists()


@contextlib.contextmanager
def alarm_after(seconds):
    """Raises in this thread once ``seconds`` have passed, where the
    platform has SIGALRM, so that a call that would hang fails instead."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("lines", [
    "users: 10000000000000",
    # a task's (T, K, K) distances, 400 TB, though its (T, K) radii fit
    "users: 5000000",
    # planning holds a trial range per task, nothing per trial
    "trials: 1000000000000",
    # sizes past numpy's index range, at the distances and the inter-user fading
    "users: 10000000000000000000",
    "intervals: 10000000000000000000\nschemes: [rbc-df]",
    # GBC alone draws no inter-user fading, and is refused all the same
    "intervals: 10000000000000000000\nschemes: [gbc]",
], ids=["users-1e13", "users-5e6", "trials-1e12", "users-1e19", "intervals-1e19",
        "intervals-1e19-gbc"])
def test_simulate_run_too_large_for_memory_exits_2_naming_the_size_keys(tmp_path, capsys,
                                                                        parallel, lines):
    # numpy refuses the result arrays, a task's distances or its inter-user
    # fading before any task starts or any progress line is written, at
    # any --parallel, and at once
    keys = [line.split(":")[0] for line in lines.splitlines()]
    kept = [k for k in SIM_CONFIG.splitlines(keepends=True) if k.split(":")[0] not in keys]
    cfg = tmp_path / "sim.yaml"
    cfg.write_text("".join(kept) + lines + "\n", encoding="utf-8")
    with alarm_after(5):
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                   "--parallel", str(parallel)])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "does not fit in memory" in err and "Traceback" not in err
    assert all(key in err for key in ("users", "blocks", "intervals", "trials"))
    assert "running" not in err  # no progress line announces a run that cannot start
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["region", "simulate"])
@pytest.mark.parametrize("blocked", ["out", "csv", "ancestor", "manifest"])
def test_unusable_out_exits_2_with_the_os_reason(tmp_path, capsys, command, blocked):
    # --out an existing file, or below one, and an output path (the CSV or
    # the manifest) that is a directory are refused before any work; none
    # raises
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    flags = REGION_FLAGS if command == "region" else ["--config", str(cfg)]
    stem = "rate_region" if command == "region" else "sum_rate"
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    out = {"out": afile, "ancestor": afile / "sub"}.get(blocked, tmp_path / "out")
    if blocked in ("csv", "manifest"):
        (out / (f"{stem}.csv" if blocked == "csv" else f"{stem}.manifest.json")).mkdir(parents=True)
    assert main([command, "--out", str(out)] + flags) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    reason = "Is a directory" if blocked in ("csv", "manifest") else "Not a directory"
    assert err.splitlines()[-1].startswith(f"error: --out {out}: ") and reason in err
    assert "running" not in err  # simulate does not start the run
    assert afile.read_text(encoding="utf-8") == "kept\n"
    if blocked in ("csv", "manifest"):
        assert sorted(p.name for p in out.iterdir()) == [
            f"{stem}.csv" if blocked == "csv" else f"{stem}.manifest.json"]


@pytest.mark.parametrize("line", ["schemes: [gbc, rbc-df]", "pairings: [near-far]",
                                  "p1_over_p0_db: [0]"])
def test_simulate_empty_list_exits_2_naming_the_key(tmp_path, capsys, line):
    key = line.split(":")[0]
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG.replace(line, f"{key}: []"), encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_singular_spellings_and_flags_give_the_plural_run(tmp_path):
    plural = SIM_CONFIG.replace("schemes: [gbc, rbc-df]", "schemes: [rbc-df, rbc-cf]") \
        .replace("pairings: [near-far]", "pairings: [nearest]") \
        .replace("p1_over_p0_db: [0]", "p1_over_p0_db: [-5]")
    singular = plural.replace("schemes: [rbc-df, rbc-cf]", "scheme: rbc-df,rbc-cf") \
        .replace("pairings: [nearest]", "pairing: nearest") \
        .replace("p1_over_p0_db: [-5]", "p1_over_p0_db: -5")
    bare = plural.replace("schemes: [rbc-df, rbc-cf]\n", "").replace("pairings: [nearest]\n", "")
    runs = {}
    for name, text, flags in (("plural", plural, []), ("singular", singular, []),
                              ("flags", bare, ["--scheme", "rbc-df,rbc-cf",
                                               "--pairing", "nearest"])):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out)] + flags) == EXIT_OK
        manifest = json.loads((out / "sum_rate.manifest.json").read_text())
        runs[name] = ((out / "sum_rate.csv").read_bytes(), manifest["config"])
    assert runs["singular"] == runs["plural"] == runs["flags"]
    config = runs["plural"][1]
    assert "scheme" not in config and "pairing" not in config
    assert (config["schemes"], config["pairings"], config["p1_over_p0_db"]) == \
        (["rbc-df", "rbc-cf"], ["nearest"], [-5.0])


@pytest.mark.parametrize("command, config", [
    ("simulate", SIM_CONFIG), ("region", "g01: 8\ng02: 1\np0_db: 10\n")])
@pytest.mark.parametrize("keys, named", [
    ("1: 2\nfoo: 3\n", ["1", "'foo'"]),
    ("bar: 2\nnull: 1\n", ["None", "'bar'"]),
    ("1: 2\n'1': 3\n", ["'1'", "1"]),
    ("2.5: 1\nnoise_power: 2\n", ["2.5", "'noise_power'"]),
])
def test_unknown_keys_of_mixed_types_exit_2_naming_each(tmp_path, capsys, command, config, keys,
                                                        named):
    # sorted by str, then repr; noise_power is not a config key
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config + keys, encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == \
        EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "unknown" in line] == \
        [f"error: unknown config key {key}" for key in named]


@pytest.mark.parametrize("command, missing", [
    ("simulate", ["users", "blocks", "intervals", "trials", "seed"]),
    ("region", ["g01", "g02", "p0_db"]),
])
def test_empty_config_exits_2_naming_each_missing_key(tmp_path, capsys, command, missing):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("", encoding="utf-8")
    assert config.load(str(cfg)) == {}
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == \
        EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.splitlines() == \
        [f"error: missing required key '{key}'" for key in missing]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "region"])
def test_unhashable_config_key_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("[1, 2]: 3\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == \
        EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot parse config '{cfg}'") and "found unhashable key" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("noise", ["1.0", "1.0e-300"])
def test_simulate_config_naming_noise_power_exits_2(tmp_path, capsys, noise):
    # the run is in units of the noise power, so the key is unknown whether
    # or not its value lies in the float range
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG + f"noise_power: {noise}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: unknown config key 'noise_power'" in err.splitlines()
    assert not (out / "sum_rate.csv").exists()


def test_simulate_pairing_flag_takes_the_scheduler_pairings(capsys):
    from noma_rbc.config import PAIRINGS
    for pairing in PAIRINGS:
        args = cli.build_parser().parse_args(["simulate", "--config", "c.yaml",
                                              "--pairing", pairing])
        assert args.pairing == pairing
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", "c.yaml", "--pairing", "far-near"])
    assert exc.value.code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "invalid choice: 'far-near'" in err and "Traceback" not in err


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_simulate_parallel_below_one_exits_2(tmp_path, capsys, parallel):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"),
               "--parallel", parallel])
    assert rc == EXIT_CONFIG_ERROR
    assert "parallel" in capsys.readouterr().err


def test_simulate_manifest_records_parallel_degree_and_counters(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG.replace("pairings: [near-far]", "pairings: [nearest]"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--parallel", "8"]) == EXIT_OK
    manifest = json.loads((out / "sum_rate.manifest.json").read_text())
    # one usable CPU: the run plans for, and runs, this process alone
    assert manifest["parallel"] == {"requested": 8, "effective": 1, "pool_workers": 0,
                                    "tasks": 1}
    counters = manifest["counters"]
    assert [(c["scheme"], c["pairing"], c["p1_over_p0_db"]) for c in counters] == \
        [("gbc", "nearest", 0.0), ("rbc-df", "nearest", 0.0)]
    assert all(c["r2_clamps"] == 0 for c in counters)
    assert all(isinstance(c["role_swaps"], int) for c in counters)
    # the CSV columns are unchanged
    assert list(read_csv(out / "sum_rate.csv")[0]) == [
        "scheme", "pairing", "p1_over_p0_db", "mean_sum_rate", "stderr", "trials",
        "intervals", "seed"]


# ---------------------------------------------------------------------------
# many calls in one process

@pytest.fixture
def fresh_parser():
    """Drop the process's cached parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def run_calls(calls, out):
    """(exit code, stdout, output CSV bytes) of each ``main`` call, in order."""
    results = []
    for k, argv in enumerate(calls):
        argv = [a.replace("OUT", str(out / f"call{k}")) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        csvs = sorted((out / f"call{k}").glob("*.csv"))
        results.append((code, stdout.getvalue(), [p.read_bytes() for p in csvs]))
    return results


def test_calls_in_one_process_do_not_depend_on_their_order(tmp_path, fresh_parser):
    cfg = tmp_path / "sim.yaml"
    cfg.write_text(SIM_CONFIG, encoding="utf-8")
    region_cfg = tmp_path / "region.yaml"
    region_cfg.write_text("g01: 8\ng02: 1\np0_db: 10\nschemes: [gbc]\n", encoding="utf-8")
    calls = [
        ["region", "--out", "OUT"] + REGION_FLAGS + ["--n-hat", "0.5", "--scheme", "rbc-cf",
                                                      "--alpha-grid", "0,0.3,1", "--alpha", "0.3"],
        ["verify", "--count", "3", "--inject-error"],
        ["simulate", "--config", str(cfg), "--out", "OUT", "--scheme", "gbc", "--trials", "1",
         "--seed", "4", "--pairing", "nearest"],
        ["region", "--out", "OUT"] + REGION_FLAGS + ["--alpha-grid", "5"],
        ["verify", "--count", "2", "--seed", "9"],
        ["simulate", "--config", str(cfg), "--out", "OUT"],
        ["region", "--config", str(region_cfg), "--out", "OUT"],
        ["verify"],
        ["region", "--out", "OUT", "--g01", "1", "--g02", "8", "--p0-db", "10"],
    ]
    forward = run_calls(calls, tmp_path / "forward")
    cli._parser.cache_clear()
    backward = run_calls(calls[::-1], tmp_path / "backward")[::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [EXIT_OK, EXIT_VERIFY_FAILED] + [EXIT_OK] * 6 + \
        [EXIT_CONFIG_ERROR]
    # each defaulted flag reads its default, not the value of an earlier call
    assert forward[7][1].startswith("verified 4 schemes x 1000 draws")
    rows = list(csv.DictReader(io.StringIO(forward[3][2][0].decode("utf-8"))))
    assert len(rows) == 4 * 5 and not any(r["n_hat"] == "0.5" for r in rows)


def test_main_builds_the_parser_once(monkeypatch, fresh_parser, tmp_path):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()
    monkeypatch.setattr(cli, "build_parser", counting)
    for k in range(3):
        assert main(["verify", "--count", "1", "--seed", str(k)]) == EXIT_OK
        assert main(["region", "--out", str(tmp_path / str(k))] + REGION_FLAGS +
                    ["--alpha-grid", "3"]) == EXIT_OK
    assert len(built) == 1


def test_replaced_cli_attributes_are_honoured_after_the_first_call(monkeypatch, capsys):
    assert main(["verify", "--count", "1"]) == EXIT_OK
    monkeypatch.setattr(cli, "verify_terms", lambda g01, *rest: {
        scheme: (TermDelta("r1", np.full(len(g01), 3.0), np.ones(len(g01))),)
        for scheme in Scheme})
    assert main(["verify", "--count", "1"]) == EXIT_VERIFY_FAILED
    assert "max delta = 2.000e+00 nats" in capsys.readouterr().out
    monkeypatch.setattr(cli, "cmd_region", lambda args: 7)
    assert main(["region"]) == 7
