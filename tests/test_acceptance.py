"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -s``
to see the lines on a green run).
"""

import csv
import math

import numpy as np
import pytest

from noma_rbc.cli import EXIT_OK, main
from noma_rbc.core import (
    ChannelParams,
    LinkGains,
    PowerSplit,
    Scheme,
)
from noma_rbc.oracle import random_verification_draws, verify_terms
from noma_rbc.rates import rate_kernel
from noma_rbc.scheduling import pf_update
from noma_rbc.simulation import SimConfig, generate_topology, run_experiment

from helpers import (grid_optimal_cf_r2, mean_radius_analytic, near_far_pair, nearest_neighbor_pair,
                     nearest_remaining, random_ordered_setup, rayleigh_power, relay_rate_bits,
                     rng_for, run_trial, second_rate_bits, split_groups)

SETTING_I = LinkGains(8.0, 1.0, 8.0)
SETTING_II = LinkGains(1.0, 1.0 / 8.0, 1.0)
REF_PARAMS = ChannelParams(p0=10.0, p1=10.0, n1=1.0, n2=1.0)
REF_SPLIT = PowerSplit(0.2)


def _verdict(name, body):
    try:
        body()
    except BaseException:
        print(f"acceptance {name}: FAIL")
        raise
    print(f"acceptance {name}: PASS")


def test_acceptance_1_snr_anchors():
    def body():
        # machine-precision anchors of the reference operating point: the
        # relay user's SNR after SIC, the second user's SNR without
        # interference and the second user's SIR
        g, p, s = SETTING_I, REF_PARAMS, REF_SPLIT
        assert g.g01 * s.alpha * p.p0 / p.n1 == 16.0
        assert g.g02 * s.alpha_bar * p.p0 / p.n2 == 8.0
        assert s.alpha_bar / s.alpha == 4.0
        assert 10.0 * math.log10(16.0) == pytest.approx(12.0, abs=0.1)
        assert 10.0 * math.log10(8.0) == pytest.approx(9.0, abs=0.1)
        assert 10.0 * math.log10(4.0) == pytest.approx(6.0, abs=0.1)
    _verdict("1 snr-anchors", body)


def test_acceptance_2_oracle_equivalence():
    def body():
        # one stacked pass over the 1000 draws, every scheme and term
        chunk = verify_terms(*random_verification_draws(rng_for(1002), 1000))
        assert list(chunk) == list(Scheme)
        worst = max(float(np.max(t.delta_nats)) for terms in chunk.values() for t in terms)
        assert worst <= 1e-9, f"worst oracle delta {worst:.3e} nats"
    _verdict("2 oracle-equivalence", body)


def test_acceptance_3_subsumption_suite():
    def body():
        rng = rng_for(1003)
        for _ in range(10_000):
            g, params, split = random_ordered_setup(rng)
            gbc, df, dpc = (rate_kernel(scheme, g.g01, g.g02, g.g12, params, split.alpha)
                            for scheme in (Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF_DPC))
            assert df[0] == gbc[0]
            assert df[1] >= gbc[1] - 1e-12
            # n_hat None: the optimal compression noise
            assert dpc[0] == gbc[0]
            assert dpc[1] >= gbc[1] - 1e-6
    _verdict("3 subsumption-suite", body)


def test_acceptance_4_n_hat_optimizer_vs_brute_force():
    def body():
        rng = rng_for(1004)
        worst = 0.0
        for _ in range(1000):
            g, params, split = random_ordered_setup(rng)
            _, r2, _, _ = rate_kernel(Scheme.RBC_CF_DPC, g.g01, g.g02, g.g12, params,
                                      split.alpha)
            oracle = grid_optimal_cf_r2(g, params, split)
            worst = max(worst, abs(float(r2) - oracle))
        assert worst <= 1e-6, f"worst optimizer-vs-grid gap {worst:.3e} bits"
    _verdict("4 n-hat-optimizer", body)


def test_acceptance_5_rate_region_reproduction(tmp_path):
    def body():
        marked = {}
        for label, gains in (("i", SETTING_I), ("ii", SETTING_II)):
            for p1_db in (10.0, 5.0, 0.0):
                out = tmp_path / f"{label}_{int(p1_db)}"
                rc = main([
                    "region", "--out", str(out),
                    "--g01", str(gains.g01), "--g02", str(gains.g02),
                    "--g12", str(gains.g12),
                    "--p0-db", "10", "--p1-db", str(p1_db),
                    "--alpha-grid", "21", "--alpha", "0.2",
                ])
                assert rc == EXIT_OK
                with open(out / "rate_region.csv", newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                assert {r["scheme"] for r in rows} == {s.label for s in Scheme}
                point = {r["scheme"]: (float(r["r1_bits"]), float(r["r2_bits"]))
                         for r in rows if r["alpha_marked"] == "1"}
                assert len(point) == 4
                marked[(label, p1_db)] = point
        point = marked[("i", 10.0)]
        assert point["rbc-cf"][1] > point["rbc-df"][1] > point["gbc"][1]
        assert point["rbc-cf"][0] < point["rbc-df"][0]
    _verdict("5 rate-region-reproduction", body)


def test_acceptance_6_system_level_ordering():
    def body():
        base = SimConfig(users=16, blocks=2, intervals=200, trials=10,
                         edge_snr_db=10.0, p1_over_p0_db=(0.0,), seed=1006,
                         pairings=("near-far",),
                         schemes=(Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF_DPC))
        results = run_experiment(base)[0]
        mean = {r.scheme: r.mean_sum_rate for r in results}
        assert mean["rbc-cf-dpc"] >= mean["rbc-df"] >= mean["gbc"]
        df_ratio = mean["rbc-df"] / mean["gbc"]
        dpc_ratio = mean["rbc-cf-dpc"] / mean["gbc"]
        assert 1.0 <= df_ratio <= 1.15, f"DF/GBC ratio {df_ratio:.4f}"
        assert dpc_ratio >= 1.2, f"CF-DPC/GBC ratio {dpc_ratio:.4f}"
    _verdict("6 system-level-ordering", body)


def test_acceptance_7_scheduler_invariants():
    def body():
        # no duplicate assignment across 10^4 simulated intervals
        for cfg in (
            SimConfig(users=8, blocks=2, intervals=5000, trials=1, seed=70,
                      schemes=(Scheme.GBC,), pairings=("near-far",)),
            SimConfig(users=8, blocks=2, intervals=5000, trials=1, seed=71,
                      schemes=(Scheme.RBC_CF,), pairings=("nearest",)),
        ):
            trial = run_trial(cfg, 0, keep_assignments=True)
            assert len(trial.assignments) == 5000
            for assignment in trial.assignments:
                ids = [i for pair in assignment for i in pair]
                assert len(ids) == len(set(ids)) == 4

        # PF fixed point and decay, exact
        assert pf_update(np.array([1.0]), np.array([1.0]), 0.01)[0] == 1.0
        assert pf_update(np.array([1.0]), np.array([0.0]), 0.01)[0] == 0.99

        # brute-force pairing oracle agreement on K <= 8 fixtures
        rng = rng_for(1007)
        params = REF_PARAMS
        for _ in range(40):
            k = int(rng.integers(4, 9))
            gains = 10.0 ** rng.uniform(-1, 1, size=k)
            est = np.abs(rng.uniform(0.05, 2.0, size=(k, k)))
            est = 0.5 * (est + est.T)
            avg = rng.uniform(0.5, 2.0, size=k)
            xy = rng.uniform(-50, 50, size=(k, 2))
            dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
            scheme = list(Scheme)[int(rng.integers(0, 4))]

            strong, weak = split_groups(gains)
            k1, k2 = near_far_pair(strong, weak, gains, avg, est, scheme, params, REF_SPLIT)
            s1 = [(relay_rate_bits(scheme, gains[i], params, REF_SPLIT) / avg[i], -i) for i in strong]
            assert k1 == -max(s1)[1]
            s2 = [(second_rate_bits(scheme, gains[k1], gains[j], est[k1, j], params, REF_SPLIT) / avg[j], -j)
                  for j in weak]
            assert k2 == -max(s2)[1]

            ids = list(range(k))
            n1, n2 = nearest_neighbor_pair(ids, dist, gains, avg, est, scheme, params, REF_SPLIT)
            nn = nearest_remaining(ids, dist)
            joint = [
                (relay_rate_bits(scheme, gains[i], params, REF_SPLIT) / avg[i]
                 + second_rate_bits(scheme, gains[i], gains[nn[i]], est[i, nn[i]], params, REF_SPLIT) / avg[nn[i]],
                 -i)
                for i in ids
            ]
            expect = -max(joint)[1]
            assert (n1, n2) == (expect, nn[expect])
    _verdict("7 scheduler-invariants", body)


def test_acceptance_8_topology_statistics():
    def body():
        cfg = SimConfig(users=100_000)
        polar = generate_topology(cfg, rng_for(1008))
        analytic = mean_radius_analytic(cfg)
        rel_err = abs(polar[:, 0].mean() - analytic) / analytic
        assert rel_err < 0.01, f"mean radius off by {rel_err:.3%}"
        fading = rayleigh_power(rng_for(1009), 1_000_000)
        assert abs(fading.mean() - 1.0) < 0.005, f"E|f|^2 = {fading.mean():.5f}"
    _verdict("8 topology-statistics", body)
