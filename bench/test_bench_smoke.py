"""Toy-scale smoke test of the benchmark: each workload runs a job of a few
intervals or draws, untraced and traced; its output checks (and their
negative controls) must pass and it must report exactly the metrics that
BENCHMARK.json names, with their units."""

import json
from dataclasses import replace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY = {
    "sim-nearfar": replace(run.WORKLOADS["sim-nearfar"], intervals=2),
    "sim-nearest": replace(run.WORKLOADS["sim-nearest"], trials=1, intervals=1),
    "analysis": replace(run.WORKLOADS["analysis"], region_points=1, verify_draws=3),
}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(TOY))
def test_toy_run(workload, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, workload, TOY[workload])
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(workload, seed=3, seconds=0, trace=trace)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert (tmp_path / f"{workload}.spans.npz").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
