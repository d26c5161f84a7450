import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest

from noma_rbc import oracle, rates
from noma_rbc.core import ChannelParams, CompressionNoise, LinkGains, PowerSplit, Scheme
from noma_rbc.rates import (
    N_HAT_BRACKET,
    dominance_violation,
    rate_kernel,
    rbc_cf_rates,
    relay_rate,
    relay_rate_formulas,
    second_rate,
    second_rates,
    sweep_region,
    uniform_alpha_grid,
)

from helpers import (cf_objective, grid_optimal_cf_r2, random_ordered_setup, relay_rate_bits,
                     rng_for, second_rate_bits)

# reference point: g01 = g12 = 8, g02 = 1, P0 = P1 = 10, N1 = N2 = 1, alpha = 0.2
GAINS = LinkGains(8.0, 1.0, 8.0)
PARAMS = ChannelParams(p0=10.0, p1=10.0, n1=1.0, n2=1.0)
SPLIT = PowerSplit(0.2)
TOL = 1e-12
GBC, DF, CF, DPC = Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF, Scheme.RBC_CF_DPC
# the reference gains as rate_kernel arguments
G = (GAINS.g01, GAINS.g02, GAINS.g12)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


def test_gbc_reference_values():
    r1, r2, n_hat, clamped = rate_kernel(GBC, *G, PARAMS, SPLIT.alpha)
    assert r1 == pytest.approx(math.log2(17.0), abs=TOL)
    assert r2 == pytest.approx(math.log2(11.0 / 3.0), abs=TOL)
    assert n_hat is None and clamped is False


def test_gbc_degenerate_alphas_exact():
    assert rate_kernel(GBC, *G, PARAMS, 1.0)[1] == 0.0
    assert rate_kernel(GBC, *G, PARAMS, 0.0)[0] == 0.0


def test_df_reference_values():
    r1, r2, _, _ = rate_kernel(DF, *G, PARAMS, SPLIT.alpha)
    assert r1 == pytest.approx(math.log2(17.0), abs=TOL)
    # min(log2(91/3), log2(81/17)) with the relay decoding bound binding
    assert r2 == pytest.approx(math.log2(81.0 / 17.0), abs=TOL)
    assert math.log2(81.0 / 17.0) < math.log2(91.0 / 3.0)


def test_df_without_relay_power_equals_gbc():
    params = ChannelParams(p0=10.0, p1=0.0, n1=1.0, n2=1.0)
    for alpha in uniform_alpha_grid(41):
        assert rate_kernel(DF, *G, params, alpha)[:2] == rate_kernel(GBC, *G, params, alpha)[:2]


def test_df_alpha_one_r2_zero():
    assert rate_kernel(DF, *G, PARAMS, 1.0)[1] == 0.0


def test_cf_reference_values():
    r1, r2, n_hat, clamped = rate_kernel(CF, *G, PARAMS, SPLIT.alpha, 1.0)
    assert r1 == pytest.approx(math.log2(81.0 / 65.0), abs=TOL)
    # min(log2(214/6), log2(91/3) - log2(38/35)); the second argument binds
    assert r2 == pytest.approx(math.log2(3185.0 / 114.0), abs=TOL)
    assert math.log2(3185.0 / 114.0) < math.log2(214.0 / 6.0)
    assert n_hat == 1.0 and not clamped


def test_cf_alpha_zero_r1_zero():
    assert rate_kernel(CF, *G, PARAMS, 0.0, 1.0)[0] == 0.0


def test_cf_large_n_hat_recovers_gbc_r2():
    r2 = rate_kernel(CF, *G, PARAMS, SPLIT.alpha, 1e12)[1]
    assert abs(r2 - rate_kernel(GBC, *G, PARAMS, SPLIT.alpha)[1]) <= 1e-6


def test_cf_dpc_reference_values():
    r1, r2, _, _ = rate_kernel(DPC, *G, PARAMS, SPLIT.alpha, 1.0)
    assert r1 == pytest.approx(math.log2(17.0), abs=TOL)
    assert r2 == rate_kernel(CF, *G, PARAMS, SPLIT.alpha, 1.0)[1]
    assert r1 == rate_kernel(GBC, *G, PARAMS, SPLIT.alpha)[0]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_sweep_region_rejects_swapped_gains_for_sic_schemes(scheme):
    swapped = (1.0, 8.0, 8.0)
    if scheme.uses_compression:
        # the CF formulas do not presuppose the ordering
        (curve,) = sweep_region([scheme], *swapped, PARAMS, [0.0, 0.2, 1.0], n_hat=1.0)
        assert curve.r2[1] == rate_kernel(scheme, 1.0, 8.0, 8.0, PARAMS, 0.2, 1.0)[1]
    else:
        with pytest.raises(ValueError, match="swap"):
            sweep_region([scheme], *swapped, PARAMS, [0.0, 0.2, 1.0])


def test_subsumption_and_penalty_properties():
    rng = rng_for(21)
    for _ in range(2000):
        gains, params, split = random_ordered_setup(rng)
        g, alpha = (gains.g01, gains.g02, gains.g12), split.alpha
        gbc_r1, gbc_r2, _, _ = rate_kernel(GBC, *g, params, alpha)
        df_r1, df_r2, _, _ = rate_kernel(DF, *g, params, alpha)
        assert df_r1 == gbc_r1
        assert df_r2 >= gbc_r2 - 1e-12
        n_hat = float(10.0 ** rng.uniform(-2, 2))
        cf_r1, cf_r2, _, _ = rate_kernel(CF, *g, params, alpha, n_hat)
        dpc_r1, dpc_r2, _, _ = rate_kernel(DPC, *g, params, alpha, n_hat)
        # transmitter pre-cancellation can only help r1 and leaves r2 alone
        assert dpc_r1 >= cf_r1
        assert dpc_r2 == cf_r2
        if gains.g01 * split.alpha_bar * params.p0 == 0.0:
            assert dpc_r1 == cf_r1
        elif gains.g01 * split.alpha * params.p0 > 0.0:
            assert dpc_r1 > cf_r1
        # without SIC at the relay user, its rate can never beat the GBC one
        assert cf_r1 <= gbc_r1 + 1e-12


def test_optimizer_dominates_fixed_point_and_gbc():
    # n_hat None: the kernel takes the optimal compression noise
    _, r2, n_hat, _ = rate_kernel(DPC, *G, PARAMS, SPLIT.alpha)
    assert r2 >= rate_kernel(CF, *G, PARAMS, SPLIT.alpha, 1.0)[1]
    assert r2 >= rate_kernel(GBC, *G, PARAMS, SPLIT.alpha)[1] - 1e-6
    assert n_hat > 0.0


def test_optimizer_scheme_selection():
    cf_r1, cf_r2, n_hat_cf, _ = rate_kernel(CF, *G, PARAMS, SPLIT.alpha)
    dpc_r1, dpc_r2, n_hat_dpc, _ = rate_kernel(DPC, *G, PARAMS, SPLIT.alpha)
    assert n_hat_cf == n_hat_dpc
    assert cf_r2 == dpc_r2
    assert cf_r1 == rate_kernel(CF, *G, PARAMS, SPLIT.alpha, float(n_hat_cf))[0]
    assert dpc_r1 == rate_kernel(GBC, *G, PARAMS, SPLIT.alpha)[0]


def test_optimizer_alpha_one_returns_zero_rate():
    assert rate_kernel(DPC, *G, PARAMS, 1.0)[1] == 0.0


def test_optimizer_matches_grid_oracle():
    rng = rng_for(33)
    for _ in range(60):
        gains, params, split = random_ordered_setup(rng)
        r2 = rate_kernel(DPC, gains.g01, gains.g02, gains.g12, params, split.alpha)[1]
        oracle = grid_optimal_cf_r2(gains, params, split)
        assert abs(r2 - oracle) <= 1e-6


def test_optimizer_handles_zero_relay_power():
    # no positive quadratic root exists: the forwarding-minus-loss bound
    # binds for every n_hat and rises in it, so the high bracket end wins
    params = ChannelParams(p0=10.0, p1=0.0, n1=1.0, n2=1.0)
    _, r2, n_hat, _ = rate_kernel(DPC, *G, params, SPLIT.alpha)
    gbc_r2 = rate_kernel(GBC, *G, params, SPLIT.alpha)[1]
    assert r2 <= gbc_r2 + 1e-12
    assert r2 >= gbc_r2 - 1e-6
    assert abs(r2 - grid_optimal_cf_r2(GAINS, params, SPLIT)) <= 1e-6
    assert n_hat == N_HAT_BRACKET[1]


def test_clamp_never_fires_at_or_above_optimum():
    rng = rng_for(55)
    for _ in range(500):
        gains, params, split = random_ordered_setup(rng)
        if split.alpha == 1.0:
            continue
        g = (gains.g01, gains.g02, gains.g12)
        n_hat = rate_kernel(CF, *g, params, split.alpha)[2]
        for factor in (1.0, 2.0, 10.0):
            *_, clamped = rate_kernel(CF, *g, params, split.alpha, n_hat * factor)
            assert not clamped


def test_clamp_fires_for_tiny_compression_noise():
    # with no power on the relay user's message the compression loss grows
    # without bound as n_hat -> 0 and overwhelms the forwarding bound
    params = ChannelParams(p0=10.0, p1=0.0, n1=1.0, n2=1.0)
    split = PowerSplit(0.0)
    *_, clamped = rate_kernel(Scheme.RBC_CF, GAINS.g01, GAINS.g02, GAINS.g12, params,
                              split.alpha, np.array([1e-9, 1e3]))
    assert clamped.tolist() == [True, False]
    assert rbc_cf_rates(GAINS, params, split, CompressionNoise(1e-9)).r2 == 0.0


def test_sweep_monotonicity_where_it_holds():
    rng = rng_for(77)
    grid = uniform_alpha_grid(41)
    for _ in range(50):
        gains, params, _ = random_ordered_setup(rng)
        g = (gains.g01, gains.g02, gains.g12)
        for scheme in (Scheme.GBC, Scheme.RBC_DF):
            (curve,) = sweep_region([scheme], *g, params, grid)
            r1s, r2s = curve.r1.tolist(), curve.r2.tolist()
            assert all(b >= a - 1e-12 for a, b in zip(r1s, r1s[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(r2s, r2s[1:]))
        for scheme in (Scheme.RBC_CF, Scheme.RBC_CF_DPC):
            (curve,) = sweep_region([scheme], *g, params, grid)
            r1s = curve.r1.tolist()
            assert all(b >= a - 1e-12 for a, b in zip(r1s, r1s[1:]))


def test_cf_optimized_r2_is_not_monotone_in_alpha():
    """Regression for a dropped blanket invariant: with a strong relay link
    the optimized CF r2 rises from alpha=0 before falling, because the
    compression loss is largest at alpha=0 and shrinks as the relay user's
    own component masks the shared noise.  Values come from the independent
    brute-force grid, not the analytic optimizer."""
    lo = grid_optimal_cf_r2(GAINS, PARAMS, PowerSplit(0.0))
    hi = grid_optimal_cf_r2(GAINS, PARAMS, PowerSplit(0.02))
    assert hi > lo + 0.1
    # exact crossing at alpha=0: n_hat = 91/80, value log2(103.5125/2.1375)
    assert lo == pytest.approx(math.log2(103.5125 / 2.1375), abs=1e-9)


def test_sweep_region_shapes_and_validation():
    (curve,) = sweep_region([Scheme.GBC], *G, PARAMS, [0.0, 1.0])
    assert curve.n_hat is None
    assert curve.r1[0] == 0.0
    assert curve.r2[0] == rate_kernel(GBC, *G, PARAMS, 0.0)[1]
    assert curve.r2[1] == 0.0
    assert curve.r1[1] == rate_kernel(GBC, *G, PARAMS, 1.0)[0]

    (cf,) = sweep_region([Scheme.RBC_CF], *G, PARAMS, [0.1, 0.2])
    assert cf.n_hat is not None and len(cf.n_hat) == 2

    (fixed,) = sweep_region([Scheme.RBC_CF], *G, PARAMS, [0.1, 0.2], n_hat=1.0)
    assert all(nh == 1.0 for nh in fixed.n_hat)

    with pytest.raises(ValueError, match="empty"):
        sweep_region([Scheme.GBC], *G, PARAMS, [])
    with pytest.raises(ValueError, match="increasing"):
        sweep_region([Scheme.GBC], *G, PARAMS, [0.5, 0.5])
    with pytest.raises(ValueError, match="increasing"):
        sweep_region([Scheme.GBC], *G, PARAMS, [0.5, 0.2])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        sweep_region([Scheme.GBC], *G, PARAMS, [0.5, 1.5])


def test_sweep_region_arrays_are_the_kernel_values():
    grid = uniform_alpha_grid(41)
    for scheme in Scheme:
        for fixed in (None, 0.5):
            (curve,) = sweep_region([scheme], *G, PARAMS, grid, n_hat=fixed)
            r1, r2, n_hat, _ = rate_kernel(scheme, GAINS.g01, GAINS.g02, GAINS.g12, PARAMS,
                                           np.array(grid), fixed)
            assert curve.scheme is scheme and curve.alphas.tolist() == list(grid)
            assert curve.r1.tolist() == r1.tolist() and curve.r2.tolist() == r2.tolist()
            if scheme.uses_compression:
                assert curve.n_hat.tolist() == np.broadcast_to(n_hat, len(grid)).tolist()
            else:
                assert curve.n_hat is None


def test_sweep_region_names_the_first_non_finite_rate():
    huge = (1e300, 0.5, 1.0)
    params = ChannelParams(p0=1e10, p1=10.0)
    for scheme in Scheme:
        with pytest.raises(ValueError, match=r"^r1 must be finite, got (inf|nan)$"):
            sweep_region([scheme], *huge, params, [0.0, 0.5, 1.0])


def test_df_curve_dominates_gbc_curve_pointwise():
    grid = uniform_alpha_grid(101)
    (gbc,) = sweep_region([Scheme.GBC], *G, PARAMS, grid)
    (df,) = sweep_region([Scheme.RBC_DF], *G, PARAMS, grid)
    for g1, g2, d1, d2 in zip(gbc.r1, gbc.r2, df.r1, df.r2):
        assert d1 == g1
        assert d2 >= g2 - 1e-12


def test_sweep_region_curves_are_the_one_scheme_curves_and_the_kernel_bit_for_bit():
    rng = rng_for(53)
    grid = uniform_alpha_grid(21)
    setups = [(G, PARAMS)] + [((g.g01, g.g02, g.g12), params)
                              for g, params, _ in (random_ordered_setup(rng) for _ in range(20))]
    for g, params in setups:
        schemes = [Scheme(label) for label in rng.permutation([s.value for s in Scheme])]
        for fixed in (None, 0.5):
            curves = sweep_region(schemes, *g, params, grid, n_hat=fixed)
            assert [curve.scheme for curve in curves] == schemes
            for curve in curves:
                (one,) = sweep_region([curve.scheme], *g, params, grid, n_hat=fixed)
                r1, r2, n_hat, _ = rate_kernel(curve.scheme, *g, params, np.array(grid), fixed)
                for ours, theirs in ((one.alphas, grid), (one.r1, r1), (one.r2, r2)):
                    assert _same_bits(ours, theirs)
                if curve.scheme.uses_compression:
                    assert _same_bits(one.n_hat, np.broadcast_to(n_hat, len(grid)))
                else:
                    assert one.n_hat is None and curve.n_hat is None
                for field in ("alphas", "r1", "r2", "n_hat"):
                    ours, theirs = getattr(curve, field), getattr(one, field)
                    assert ours is theirs is None or _same_bits(ours, theirs), field


def test_sweep_region_takes_swapped_gains_for_a_cf_only_list():
    swapped = (1.0, 8.0, 8.0)
    curves = sweep_region([DPC, CF], *swapped, PARAMS, [0.0, 0.2, 1.0])
    for curve in curves:
        assert _same_bits(curve.r2, rate_kernel(curve.scheme, *swapped, PARAMS,
                                                np.array([0.0, 0.2, 1.0]))[1])


@pytest.mark.parametrize("schemes", [[CF, GBC], [DF, DPC], list(Scheme)])
def test_sweep_region_rejects_swapped_gains_when_a_scheme_presupposes_the_order(schemes):
    message = ("gains violate the degraded ordering (g01/n1 >= g02/n2); "
               "swap user roles before computing rates")
    with pytest.raises(ValueError) as raised:
        sweep_region(schemes, 1.0, 8.0, 8.0, PARAMS, [0.0, 0.2, 1.0])
    assert str(raised.value) == message


def spy_schemes(monkeypatch, name):
    """The scheme of every call to the rates function ``name``."""
    calls = []

    def spy(scheme, *args, real=getattr(rates, name), **kwargs):
        calls.append(scheme)
        return real(scheme, *args, **kwargs)
    monkeypatch.setattr(rates, name, spy)
    return calls


@pytest.mark.parametrize("fixed", [None, 0.7])
def test_a_sweep_evaluates_each_r1_formula_and_each_r2_run_once(monkeypatch, fixed):
    # GBC, RBC-DF and RBC-CF+DPC share an r1, the CF pair an r2
    r1_calls, r2_calls = (spy_schemes(monkeypatch, name) for name in ("relay_rate",
                                                                      "second_rate"))
    for order in itertools.permutations(Scheme):
        r1_calls.clear()
        r2_calls.clear()
        curves = sweep_region(order, *G, PARAMS, uniform_alpha_grid(), n_hat=fixed)
        assert [curve.scheme for curve in curves] == list(order)
        assert len(r1_calls) == 2 and len(r2_calls) == 3, order


@pytest.mark.parametrize("fixed", [None, 0.7])
def test_writing_into_one_curve_changes_no_other(fixed):
    grid = uniform_alpha_grid(11)
    fields = ("r1", "r2", "n_hat")
    for order in itertools.permutations(Scheme):
        for k, field in itertools.product(range(len(order)), fields):
            curves = sweep_region(order, *G, PARAMS, grid, n_hat=fixed)
            values = getattr(curves[k], field)
            if values is None:
                continue
            before = [[np.copy(getattr(c, f)) for f in fields] for c in curves]
            with contextlib.suppress(ValueError):  # a read-only array
                values[...] = -1.0
            for j, curve in enumerate(curves):
                for f, old in zip(fields, before[j]):
                    if (j, f) != (k, field):
                        now = getattr(curve, f)
                        assert now is None or _same_bits(now, old), (order, k, field, j, f)


def test_writing_into_one_curves_alphas_changes_no_other():
    grid = uniform_alpha_grid(11)
    for k in range(len(Scheme)):
        curves = sweep_region(tuple(Scheme), *G, PARAMS, grid)
        curves[k].alphas[1] = 9.0
        assert [c.alphas.tolist() for j, c in enumerate(curves) if j != k] == [list(grid)] * 3


def _first_one_scheme_failure(schemes, *args):
    """The message of the first of ``schemes`` whose one-scheme sweep fails."""
    for scheme in schemes:
        try:
            sweep_region([scheme], *args)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("poison", [False, True])
def test_a_sweep_names_the_failure_the_one_scheme_sweeps_name_first(monkeypatch, poison):
    # overflow: r1 is inf under SIC and nan under RBC-CF.  Poisoned: RBC-CF's
    # r1 holds an inf, RBC-DF's r2 a NaN and the CF n_hat a zero, so the
    # message depends on which scheme of the order is checked first
    args = (*G, PARAMS, [0.0, 0.5, 1.0]) if poison else \
        (1e300, 0.5, 1.0, ChannelParams(p0=1e10, p1=10.0), [0.0, 0.5, 1.0])
    if poison:
        def poisoned_r1(scheme, *rest, real=rates.relay_rate, **kwargs):
            r1 = real(scheme, *rest, **kwargs)
            return np.where([True, False, False], np.inf, r1) if scheme is CF else r1

        def poisoned_r2(scheme, *rest, real=rates.second_rate, **kwargs):
            r2, n_hat, clamped = real(scheme, *rest, **kwargs)
            if scheme is DF:
                r2 = np.where([False, True, False], np.nan, r2)
            if scheme.uses_compression:
                n_hat = np.where([False, False, True], 0.0, n_hat)
            return r2, n_hat, clamped
        monkeypatch.setattr(rates, "relay_rate", poisoned_r1)
        monkeypatch.setattr(rates, "second_rate", poisoned_r2)
    messages = set()
    for order in itertools.permutations(Scheme):
        expect = _first_one_scheme_failure(order, *args)
        with pytest.raises(ValueError) as raised:
            sweep_region(order, *args)
        assert str(raised.value) == expect, order
        messages.add(expect)
    assert len(messages) == (3 if poison else 2)


def test_reference_setting_qualitative_ordering():
    # at alpha = 0.2: r2 ordering CF > DF > GBC, r1 ordering CF < DF = GBC = DPC
    gbc, df, cf, dpc = (rate_kernel(s, *G, PARAMS, SPLIT.alpha) for s in (GBC, DF, CF, DPC))
    assert cf[1] > df[1] > gbc[1]
    assert cf[0] < df[0]
    assert dpc[0] == df[0] == gbc[0]
    assert dpc[1] == cf[1]


def test_scalar_helpers_match_the_kernel():
    g01, g02, g12 = G
    assert relay_rate_bits(GBC, g01, PARAMS, SPLIT) == rate_kernel(GBC, *G, PARAMS, 0.2)[0]
    assert relay_rate_bits(CF, g01, PARAMS, SPLIT) == rate_kernel(CF, *G, PARAMS, 0.2, 1.0)[0]
    assert second_rate_bits(GBC, *G, PARAMS, SPLIT) == rate_kernel(GBC, *G, PARAMS, 0.2)[1]
    assert second_rate_bits(DF, *G, PARAMS, SPLIT) == rate_kernel(DF, *G, PARAMS, 0.2)[1]

    r2, clamped = second_rates([(DPC, 0, 1)], np.array([g01]), np.array([g02]),
                               np.array([g12]), PARAMS, SPLIT.alpha, np.array([PARAMS.p1]))
    best_r1, best_r2, _, _ = rate_kernel(DPC, *G, PARAMS, SPLIT.alpha)
    assert relay_rate(DPC, g01, PARAMS, SPLIT.alpha) == best_r1
    assert r2[0] == best_r2
    assert not clamped[0]


def test_rbc_cf_rates_is_the_scalar_kernel_call_bit_for_bit():
    # the typed entry point the benchmark checks use: same bits as rate_kernel,
    # in either role order, as the CF formulas do not presuppose one
    rng = rng_for(47)
    for _ in range(500):
        gains, params, split = random_ordered_setup(rng)
        n_hat = float(10.0 ** rng.uniform(-6, 12))
        for g in ((gains.g01, gains.g02, gains.g12), (gains.g02, gains.g01, gains.g12)):
            pair = rbc_cf_rates(LinkGains(*g), params, split, CompressionNoise(n_hat))
            r1, r2, _, _ = rate_kernel(CF, *g, params, split.alpha, n_hat)
            assert type(pair.r1) is float and type(pair.r2) is float
            assert _same_bits([pair.r1, pair.r2], [r1, r2])


def test_objective_transcription_agrees_with_package():
    # the test-side objective used by the grid oracle matches the package
    # closed form at scattered points (guards the oracle itself)
    rng = rng_for(91)
    for _ in range(200):
        gains, params, split = random_ordered_setup(rng)
        n_hat = float(10.0 ** rng.uniform(-6, 6))
        ours = rbc_cf_rates(gains, params, split, CompressionNoise(n_hat)).r2
        theirs = float(cf_objective(gains, params, split, n_hat))
        assert ours == pytest.approx(theirs, abs=1e-9)


@pytest.mark.parametrize("schemes", [
    tuple(Scheme), (Scheme.RBC_CF,), (Scheme.RBC_CF, Scheme.GBC, Scheme.RBC_CF_DPC),
    (Scheme.RBC_DF, Scheme.RBC_CF_DPC), (Scheme.GBC, Scheme.GBC),
])
def test_relay_rate_formulas_group_the_schemes_that_share_r1(schemes):
    # each scheme's r1 is its formula's bit for bit, and distinct formulas differ
    g01 = 10.0 ** rng_for(3).uniform(-2.0, 2.0, size=50)
    alpha = np.linspace(0.05, 0.95, 50)
    firsts, formula_of = relay_rate_formulas(schemes)
    # each formula is named by the first scheme that uses it
    assert firsts == tuple(schemes[formula_of.index(f)] for f in range(len(firsts)))
    for scheme, f in zip(schemes, formula_of):
        assert np.array_equal(relay_rate(scheme, g01, PARAMS, alpha),
                              relay_rate(firsts[f], g01, PARAMS, alpha))
    for a, b in itertools.combinations(firsts, 2):
        assert not np.array_equal(relay_rate(a, g01, PARAMS, alpha),
                                  relay_rate(b, g01, PARAMS, alpha))
    assert relay_rate_formulas(tuple(Scheme)) == ((Scheme.GBC, Scheme.RBC_CF), [0, 0, 1, 0])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_second_rate_is_the_r2_part_of_the_kernel(scheme):
    # unordered pairs and a per-entry relay power, as the scheduler passes them
    rng = rng_for(17)
    g01, g02, g12 = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 200))
    p1 = 10.0 ** rng.uniform(-2.0, 2.0, size=200)
    for alpha, n_hat in ((0.2, None), (np.linspace(0.0, 1.0, 200), None), (0.7, 0.3)):
        r1, r2, kernel_n_hat, clamped = rate_kernel(scheme, g01, g02, g12, PARAMS, alpha, n_hat,
                                                    p1)
        r2_only, second_n_hat, second_clamped = second_rate(scheme, g01, g02, g12, PARAMS, alpha,
                                                            n_hat, p1)
        assert _same_bits(r1, relay_rate(scheme, g01, PARAMS, alpha))
        assert _same_bits(r2_only, r2)
        assert np.array_equal(second_clamped, clamped)
        assert (second_n_hat is None) == (kernel_n_hat is None) == (not scheme.uses_compression)
        if scheme.uses_compression:
            assert _same_bits(second_n_hat, kernel_n_hat)


def spy_second_rate(monkeypatch, g01):
    """The (scheme, start, stop) of every ``rates.second_rate`` call on a
    slice of the leading axis of ``g01``."""
    calls = []

    def spy(scheme, x01, *args, real=rates.second_rate, **kwargs):
        start = (x01.ctypes.data - g01.ctypes.data) // g01.strides[0]
        calls.append((scheme, start, start + len(x01)))
        return real(scheme, x01, *args, **kwargs)
    monkeypatch.setattr(rates, "second_rate", spy)
    return calls


def segment_inputs(seed, shape):
    """Gains and a relay power per leading entry, as the scheduler passes
    them: unordered pairs, (n,) candidate lists or (L, B) lane blocks."""
    rng = rng_for(seed)
    g01, g02, g12 = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, *shape))
    p1 = 10.0 ** rng.uniform(-2.0, 2.0, size=(shape[0],) + (1,) * (len(shape) - 1))
    return g01, g02, g12, p1


@pytest.mark.parametrize("schemes, merged", [
    ((GBC, DF, CF, DPC), [(GBC, 0, 2), (DF, 2, 4), (CF, 4, 8)]),
    ((DPC, CF), [(DPC, 0, 4)]),
    ((CF, GBC, DPC, DF), [(CF, 0, 2), (GBC, 2, 4), (DPC, 4, 6), (DF, 6, 8)]),
    ((GBC, GBC, DF), [(GBC, 0, 4), (DF, 4, 6)]),
    ((CF,), [(CF, 0, 2)]),
])
def test_second_rate_segments_merge_adjacent_runs_that_share_r2(monkeypatch, schemes, merged):
    segments = [(s, 2 * k, 2 * k + 2) for k, s in enumerate(schemes)]
    g01, g02, g12, p1 = segment_inputs(21, (2 * len(schemes), 3))
    calls = spy_second_rate(monkeypatch, g01)
    second_rates(segments, g01, g02, g12, PARAMS, 0.3, p1)
    assert calls == merged


@pytest.mark.parametrize("schemes", list(itertools.permutations(Scheme)))
def test_second_rate_segments_merge_exactly_the_schemes_whose_r2_is_bit_identical(monkeypatch,
                                                                                  schemes):
    rng = rng_for(23)
    g01, g02, g12 = 10.0 ** rng.uniform(-2.0, 2.0, size=(3, 40))

    def r2(scheme):
        return second_rate(scheme, g01, g02, g12, PARAMS, 0.3)[0]

    # one segment per scheme, each over the same 40 pairs
    segments = [(s, k, k + 1) for k, s in enumerate(schemes)]
    tiled = [np.tile(g, (len(schemes), 1)) for g in (g01, g02, g12)]
    calls = spy_second_rate(monkeypatch, tiled[0])
    got, _ = second_rates(segments, *tiled, PARAMS, 0.3, np.full((len(schemes), 1), PARAMS.p1))
    # the calls tile the axis in order
    assert [a for _, a, _ in calls] == [0] + [b for _, _, b in calls[:-1]]
    assert calls[-1][2] == len(schemes)
    for name, a, b in calls:
        assert all(_same_bits(r2(s), r2(name)) for s, _, _ in segments[a:b])
        assert all(_same_bits(got[k], r2(s)) for s, k, _ in segments[a:b])
    for (x, _, _), (y, _, _) in zip(calls, calls[1:]):
        assert not _same_bits(r2(x), r2(y))


@pytest.mark.parametrize("shape", [(13,), (13, 5), (13, 40)],
                         ids=["candidates", "lanes-by-blocks", "lanes-by-users"])
@pytest.mark.parametrize("schemes, lengths, runs", [
    ((GBC, DF, CF, DPC), (1, 5, 3, 4), 3),
    ((CF, GBC, DPC, DF), (4, 3, 5, 1), 4),
    ((DPC, CF), (6, 7), 1),
    ((DF,), (13,), 1),
    ((GBC,), (13,), 1),
], ids=["cf-adjacent", "cf-apart", "cf-pair", "one-scheme", "gbc-only"])
def test_second_rates_equal_per_scheme_second_rate(monkeypatch, shape, schemes, lengths, runs):
    # the leading axis is cut by lane (or candidate), with one relay power per lane
    g01, g02, g12, p1 = segment_inputs(27, shape)
    bounds = np.cumsum((0,) + lengths).tolist()
    segments = list(zip(schemes, bounds, bounds[1:]))
    calls = spy_second_rate(monkeypatch, g01)
    r2, clamped = second_rates(segments, g01, g02, g12, PARAMS, 0.3, p1)
    assert len(calls) == runs
    if runs == 1:  # the one call covers the whole axis
        assert calls == [(schemes[0], 0, len(g01))]
    for scheme, a, b in segments:
        own, _, own_clamped = second_rate(scheme, g01[a:b], g02[a:b], g12[a:b], PARAMS, 0.3,
                                          p1=p1[a:b])
        assert _same_bits(r2[a:b], own)
        assert np.array_equal(clamped[a:b], np.broadcast_to(own_clamped, (b - a, *shape[1:])))
    assert isinstance(clamped, np.ndarray) and clamped.dtype == bool
    assert r2.shape == clamped.shape == shape


# shapes of the gains, p1, alpha and a fixed n_hat: one pair of 0-d arrays,
# candidate pairs, lanes by blocks with one relay power per lane, and an alpha
# grid over one pair
INPUT_SHAPES = {
    "scalars": ((), (), (), ()),
    "pairs": ((7,), (7,), (), (7,)),
    "lanes": ((4, 5), (4, 1), (), (4, 5)),
    "alpha-grid": ((), (), (9,), (9,)),
}


def rate_inputs(case, writable):
    """(g01, g02, g12, p1, alpha, n_hat) of one ``INPUT_SHAPES`` case, the
    same values on every call, as fresh arrays flagged ``writable`` or not;
    g01 >= g02, and the alpha grid runs from 0 to 1."""
    gains_shape, p1_shape, alpha_shape, n_hat_shape = INPUT_SHAPES[case]
    rng = rng_for(41)
    g = np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=(3, *gains_shape)), axis=0)
    p1 = 10.0 ** rng.uniform(-1.0, 1.0, size=p1_shape)
    alpha = np.linspace(0.0, 1.0, *alpha_shape) if alpha_shape else np.array(0.3)
    n_hat = 10.0 ** rng.uniform(-1.0, 1.0, size=n_hat_shape)
    inputs = [np.array(x) for x in (g[2], g[0], g[1], p1, alpha, n_hat)]
    for x in inputs:
        x.setflags(write=writable)
    return inputs


def _leaves(value):
    """The arrays, scalars and None of a nested result, in order."""
    if dataclasses.is_dataclass(value):
        return _leaves([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return _leaves(list(value.items()))
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _entry_calls(case):
    """(name, call) of each rate entry that takes the inputs of ``case``."""
    params = PARAMS
    calls = []
    for scheme in Scheme:
        for fixed in (False, True):
            def kernel(g01, g02, g12, p1, alpha, n_hat, scheme=scheme, fixed=fixed):
                return rate_kernel(scheme, g01, g02, g12, params, alpha,
                                   n_hat if fixed else None, p1)

            def second(g01, g02, g12, p1, alpha, n_hat, scheme=scheme, fixed=fixed):
                return second_rate(scheme, g01, g02, g12, params, alpha,
                                   n_hat if fixed else None, p1)
            calls += [(f"rate_kernel-{scheme.label}-{fixed}", kernel),
                      (f"second_rate-{scheme.label}-{fixed}", second)]
    if case in ("pairs", "lanes"):
        n = INPUT_SHAPES[case][0][0]
        for segments in ([(CF, 0, 2), (DPC, 2, n)], [(GBC, 0, n)],
                         [(GBC, 0, 1), (DF, 1, 2), (CF, 2, 3), (DPC, 3, n)]):
            def stage(g01, g02, g12, p1, alpha, n_hat, segments=segments):
                return second_rates(segments, g01, g02, g12, params, alpha, p1)
            calls.append((f"second_rates-{len(segments)}", stage))
    if case in ("scalars", "pairs", "alpha-grid"):  # one draw or a 1-D stack of draws
        def terms(g01, g02, g12, p1, alpha, n_hat):
            return oracle.verify_terms(g01, g02, g12, params, alpha, n_hat)
        calls.append(("verify_terms", terms))
    if case == "alpha-grid":
        for scheme in Scheme:
            for fixed in (False, True):
                def sweep(g01, g02, g12, p1, alpha, n_hat, scheme=scheme, fixed=fixed):
                    at = ChannelParams(p0=params.p0, p1=float(p1))
                    noise = float(n_hat[0]) if fixed else None
                    return sweep_region([scheme], float(g01), float(g02), float(g12), at, alpha,
                                        noise)
                calls.append((f"sweep_region-{scheme.label}-{fixed}", sweep))
    return calls


@pytest.mark.parametrize("case", list(INPUT_SHAPES))
def test_no_rate_entry_writes_into_its_inputs(case):
    # each entry gives the same bits on read-only inputs as on writable
    # ones, and leaves the writable ones as they were
    for name, call in _entry_calls(case):
        writable = rate_inputs(case, True)
        mine = call(*writable)
        for x, y in zip(writable, rate_inputs(case, True)):
            assert _same_bits(x, y), name
        theirs = _leaves(call(*rate_inputs(case, False)))
        mine = _leaves(mine)
        assert len(mine) == len(theirs), name
        for a, b in zip(mine, theirs):
            if isinstance(a, (str, Scheme)) or a is None:
                assert a == b, name
            else:
                a, b = np.asarray(a), np.asarray(b)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


def test_dominance_violation_names_the_first_pair_that_falls_short():
    # two lanes of three blocks per scheme, ordered pairs served at the kernel's rates
    rng = rng_for(31)
    g = np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=(2, 8, 3)), axis=0)
    g01, g02, g12 = g[1], g[0], 10.0 ** rng.uniform(-2.0, 2.0, size=(8, 3))
    p1 = np.full((8, 1), PARAMS.p1)
    segments = [(s, 2 * k, 2 * k + 2) for k, s in enumerate(Scheme)]
    r1 = np.concatenate([relay_rate(s, g01[a:b], PARAMS, 0.2) for s, a, b in segments])
    r2, _ = second_rates(segments, g01, g02, g12, PARAMS, 0.2, p1)
    assert dominance_violation(segments, g01, g02, g12, PARAMS, 0.2, r1, r2) is None

    base_r2 = rate_kernel(GBC, g01, g02, 0.0, PARAMS, 0.2)[1]
    for lane, slack, scheme in ((3, 1e-11, DF), (5, 1e-5, CF), (7, 1e-5, DPC)):
        low = r2.copy()
        low[lane, 1] = base_r2[lane, 1] - slack
        message = dominance_violation(segments, g01, g02, g12, PARAMS, 0.2, r1, low)
        assert message.startswith(f"per-pair dominance violated for {scheme.label}: "
                                  f"served=({r1[lane, 1]}, {low[lane, 1]}) ")
        assert f"g12={g12[lane, 1]} alpha=0.2" in message
    # the CF optimum has 1e-6 bits of slack; GBC itself is not checked
    low = r2.copy()
    low[4:8, 1] = base_r2[4:8, 1] - 5e-7
    low[0:2] = 0.0
    assert dominance_violation(segments, g01, g02, g12, PARAMS, 0.2, r1, low) is None
    # RBC-CF serves a lower r1 than GBC; RBC-DF must serve GBC's exactly
    changed = r1.copy()
    changed[2, 0] = np.nextafter(r1[2, 0], np.inf)
    assert "violated for rbc-df" in dominance_violation(segments, g01, g02, g12, PARAMS, 0.2,
                                                         changed, r2)
    assert np.all(r1[4:6] < rate_kernel(GBC, g01[4:6], g02[4:6], 0.0, PARAMS, 0.2)[0])
