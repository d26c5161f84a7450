"""Reference figures for the ROADMAP baseline table.

Run from the root of a checkout:

    python3 bench/baseline.py

Prints the machine fingerprint and, as the median (min-max) of repeated
timings: one rate-kernel call per scheme and n_hat-optimizer branch, one
scheduling interval per scheme and pairing, and the ``region`` and
``verify --count 1000`` commands as fresh processes.  These are reference
figures for the README, not benchmark metrics: raw times on a shared host
drift by tens of percent (see README.md).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import noma_rbc.rates  # noqa: E402
from noma_rbc import ChannelParams, PowerSplit, Scheme, serve_pair  # noqa: E402
from noma_rbc.simulation import SimConfig, run_trial  # noqa: E402

REPEATS = 5
PARAMS = ChannelParams(p0=10.0, p1=1.0)   # edge SNR 10 dB, p1/p0 = -10 dB
SPLIT = PowerSplit(0.2)
# (g01, g02, g12): ordered pairs; a large cross gain leaves the CF optimizer
# without a positive quadratic root, so it takes the golden-section search
KERNEL_INPUTS = {"root": (8.0, 1.0, 8.0), "fallback": (1.6, 0.015, 1800.0)}


def fingerprint() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown (not a git checkout)"
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"{os.cpu_count()} CPUs, {platform.machine()}, git {rev}")


def _spread(samples, scale, unit):
    med = statistics.median(samples) * scale
    return f"{med:.3g} {unit} ({min(samples) * scale:.3g}-{max(samples) * scale:.3g})"


def _fallback_calls(fn):
    """Run ``fn`` once, counting the optimizer's golden-section searches."""
    calls = [0]
    original = noma_rbc.rates._golden_max

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    noma_rbc.rates._golden_max = counting
    try:
        fn()
    finally:
        noma_rbc.rates._golden_max = original
    return calls[0]


def kernel_rows():
    for scheme in Scheme:
        for label, (g01, g02, g12) in KERNEL_INPUTS.items():
            if label == "fallback" and not scheme.uses_compression:
                continue

            def call():
                serve_pair(scheme, g01, g02, g12, PARAMS, SPLIT)

            branch = "fallback" if _fallback_calls(call) else "root"
            if scheme.uses_compression and branch != label:
                raise RuntimeError(f"{scheme.label} input {label} took the {branch} branch")
            n = 2000 if branch == "root" else 200
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for _ in range(n):
                    call()
                samples.append((time.perf_counter() - t0) / n)
            name = f"{scheme.label} ({branch})" if scheme.uses_compression else scheme.label
            yield f"| `serve_pair` {name} | {_spread(samples, 1e6, 'µs')} |"


def interval_rows():
    for pairing, intervals in (("near-far", 20), ("nearest", 4)):
        for scheme in Scheme:
            config = SimConfig(users=40, blocks=4, p1_over_p0_db=-10.0, intervals=intervals,
                               trials=1, seed=1234, scheme=scheme, pairing=pairing)
            samples = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                run_trial(config, 1234)
                samples.append((time.perf_counter() - t0) / intervals)
            yield f"| interval, {pairing}, {scheme.label} | {_spread(samples, 1e3, 'ms')} |"


def command_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as out:
        commands = {
            "`region`, 201 points x 4 schemes": [
                "region", "--g01", "8", "--g02", "1", "--g12", "8", "--p0-db", "10",
                "--p1-db", "10", "--out", out],
            "`verify --count 1000`": ["verify", "--count", "1000"],
        }
        for name, argv in commands.items():
            samples = []
            for _ in range(REPEATS if argv[0] == "region" else 3):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-m", "noma_rbc.cli", *argv], env=env, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                samples.append(time.perf_counter() - t0)
            yield f"| {name} | {_spread(samples, 1.0, 's')} |"


def main() -> int:
    print(fingerprint())
    print()
    print("| what | median (min-max) |")
    print("|---|---|")
    for rows in (kernel_rows(), interval_rows(), command_rows()):
        for row in rows:
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
