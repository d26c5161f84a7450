"""Output checks for the benchmark workloads.

Each check returns a list of error strings, empty when the output passes.
The checks rest on computations made here, apart from the program (the GBC
closed form), or on properties the method must have (dominance, optimality
of the compression noise, independence of the parallel degree).  None of
them compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import re

from noma_rbc import ChannelParams, CompressionNoise, LinkGains, PowerSplit, rbc_cf_rates

SCHEMES = ("gbc", "rbc-df", "rbc-cf", "rbc-cf-dpc")
SUM_RATE_COLUMNS = ["scheme", "pairing", "p1_over_p0_db", "mean_sum_rate",
                    "stderr", "trials", "intervals", "seed"]
REGION_COLUMNS = ["scheme", "alpha", "r1_bits", "r2_bits", "n_hat", "alpha_marked"]
GBC_TOL_BITS = 1e-12
DF_SLACK_BITS = 1e-12
DPC_SLACK_BITS = 1e-6
CF_GRID_SLACK_BITS = 1e-9
# coarse log grid over the optimizer's search range 1e-6 .. 1e12
N_HAT_GRID = tuple(10.0 ** (k / 2.0) for k in range(-12, 25, 3))
VERIFY_TOL_NATS = 1e-9
_VERIFY_LINE = re.compile(r"verified (\d+) schemes x (\d+) draws: max delta = (\S+) nats")


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        return header, [dict(zip(header, row)) for row in reader]


def check_sum_rate(path, pairing, sweep, trials, intervals, seed) -> list[str]:
    """``sum_rate.csv`` of one simulate call over all four schemes."""
    header, rows = _read(path)
    if header != SUM_RATE_COLUMNS:
        return [f"{path}: header {header}"]
    errors = []
    expected = {(s, pairing, float(p)) for s in SCHEMES for p in sweep}
    got = [(r["scheme"], r["pairing"], float(r["p1_over_p0_db"])) for r in rows]
    if len(got) != len(expected) or set(got) != expected:
        errors.append(f"{path}: rows {got}, expected one per {sorted(expected)}")
    mean = {}
    for r in rows:
        key = (r["scheme"], float(r["p1_over_p0_db"]))
        m, se = float(r["mean_sum_rate"]), float(r["stderr"])
        mean[key] = (m, se)
        if int(r["trials"]) != trials or int(r["intervals"]) != intervals:
            errors.append(f"{path}: {key} ran {r['trials']} trials x {r['intervals']} "
                          f"intervals, configured {trials} x {intervals}")
        if int(r["seed"]) != seed:
            errors.append(f"{path}: {key} seed {r['seed']}, configured {seed}")
        if not (math.isfinite(m) and m > 0.0 and math.isfinite(se) and se >= 0.0):
            errors.append(f"{path}: {key} mean {m} stderr {se}")
    gbc = {mean.get(("gbc", float(p))) for p in sweep}
    if len(gbc) != 1:
        errors.append(f"{path}: gbc rows differ across relay powers: {sorted(gbc, key=str)}")
    if pairing == "near-far":
        for p in sweep:
            ms = [mean.get((s, float(p)), (math.nan,))[0] for s in ("rbc-cf-dpc", "rbc-df", "gbc")]
            if not ms[0] >= ms[1] >= ms[2]:
                errors.append(f"{path}: p1 {p} dB: rbc-cf-dpc >= rbc-df >= gbc fails: {ms}")
    return errors


def gbc_closed_form(g01, g02, p0, alpha, n1=1.0, n2=1.0):
    """GBC corner point (r1, r2) in bits, written out independently of the
    package."""
    a, ab = alpha, 1.0 - alpha
    r1 = math.log1p(g01 * a * p0 / n1) / math.log(2.0)
    r2 = math.log1p(g02 * ab * p0 / (g02 * a * p0 + n2)) / math.log(2.0)
    return r1, r2


def check_region(path, point, alpha_points) -> list[str]:
    """``rate_region.csv`` of one ``region`` call over all four schemes.

    ``point`` holds the g01, g02, g12, p0_db and p1_db the call was given.
    """
    header, rows = _read(path)
    if header != REGION_COLUMNS:
        return [f"{path}: header {header}"]
    by_scheme = {s: [] for s in SCHEMES}
    for r in rows:
        by_scheme.setdefault(r["scheme"], []).append(
            (float(r["alpha"]), float(r["r1_bits"]), float(r["r2_bits"])))
    errors = []
    if set(by_scheme) != set(SCHEMES) or any(len(v) != alpha_points for v in by_scheme.values()):
        return [f"{path}: expected {alpha_points} rows for each of {SCHEMES}, "
                f"got { {s: len(v) for s, v in by_scheme.items()} }"]
    p0 = 10.0 ** (point["p0_db"] / 10.0)
    params = ChannelParams(p0=p0, p1=10.0 ** (point["p1_db"] / 10.0))
    gains = LinkGains(g01=point["g01"], g02=point["g02"], g12=point["g12"])
    for k, (alpha, r1, r2) in enumerate(by_scheme["gbc"]):
        if abs(alpha - k / (alpha_points - 1)) > 1e-15:
            errors.append(f"{path}: row {k} alpha {alpha} off the uniform grid")
            continue
        want1, want2 = gbc_closed_form(point["g01"], point["g02"], p0, alpha)
        if abs(r1 - want1) > GBC_TOL_BITS or abs(r2 - want2) > GBC_TOL_BITS:
            errors.append(f"{path}: gbc alpha {alpha}: ({r1}, {r2}) != closed form ({want1}, {want2})")
        for scheme, slack in (("rbc-df", DF_SLACK_BITS), ("rbc-cf-dpc", DPC_SLACK_BITS)):
            a2, s1, s2 = by_scheme[scheme][k]
            if a2 != alpha or abs(s1 - r1) > GBC_TOL_BITS or s2 < r2 - slack:
                errors.append(f"{path}: {scheme} alpha {alpha}: ({s1}, {s2}) vs gbc ({r1}, {r2})")
        split = PowerSplit(alpha)
        grid_best = max(rbc_cf_rates(gains, params, split, CompressionNoise(n)).r2
                        for n in N_HAT_GRID)
        for scheme in ("rbc-cf", "rbc-cf-dpc"):
            cf_r2 = by_scheme[scheme][k][2]
            if cf_r2 < grid_best - CF_GRID_SLACK_BITS:
                errors.append(f"{path}: {scheme} alpha {alpha}: optimized r2 {cf_r2} "
                              f"below the n_hat grid's {grid_best}")
    return errors


def check_verify(exit_code, stdout, count) -> list[str]:
    """``verify`` report: exit 0 and a max delta within tolerance."""
    found = _VERIFY_LINE.search(stdout)
    if exit_code != 0 or found is None:
        return [f"verify exited {exit_code}: {stdout.strip()!r}"]
    schemes, draws, delta = int(found[1]), int(found[2]), float(found[3])
    if (schemes, draws) != (len(SCHEMES), count) or not delta <= VERIFY_TOL_NATS:
        return [f"verify: {schemes} schemes x {draws} draws, max delta {delta} nats"]
    return []
