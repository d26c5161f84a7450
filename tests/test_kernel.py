"""Property tests of the array rate kernel over gains 1e-6..1e8 and powers
1e-2..1e6: the compression-noise optimum against a dense grid, against a
scalar transcription of its closed form and against a 50-digit reference,
the one crossing of the CF bounds that the optimum assumes, the GBC and
RBC-DF r2 against the min of their bounds in bits, and the batched
candidate scoring against the scalar reference loops.  The
optimum is also held to a dense grid at powers up to 1e300, whose
products overflow."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_rbc.core import ChannelParams, PowerSplit, Scheme
from noma_rbc.rates import N_HAT_BRACKET, _CFBounds, rate_kernel

from helpers import (both_ends_optimum, exact_cf_optimum, linear_root, near_far_pair,
                     nearest_neighbor_pair, nearest_remaining, relay_rate_bits, rng_for,
                     second_rate_bits, two_log_second_rate)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
CF_SCHEMES = (Scheme.RBC_CF, Scheme.RBC_CF_DPC)
DENSE_N_HAT = np.logspace(math.log10(N_HAT_BRACKET[0]), math.log10(N_HAT_BRACKET[1]), 20_001)


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


GAIN = log_uniform(1e-6, 1e8)
POWER = log_uniform(1e-2, 1e6)
# g12 * p1 = 0 leaves the forwarding bound at the cut-set bound's limit, so
# the bounds never cross and the high bracket end wins
RELAY_GAIN = st.one_of(st.just(0.0), GAIN)
ALPHA = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
NOISE = log_uniform(0.1, 10.0)

# no positive root: the cut-set bound binds everywhere (a strong relay link
# and a relay user with some power of its own), or the forwarding-minus-loss
# bound does (no relay power at all)
LOW_END_WINS = (1.0, 0.5, 1e8, 1.0, 1e6, 0.5)
HIGH_END_WINS = (1.0, 0.5, 0.0, 1.0, 1.0, 0.5)


def scalar_cf_reference(g01, g02, g12, p0, p1, alpha, n1=1.0, n2=1.0):
    """Written out apart from the package: the CF r2 at the best of the
    crossing quadratic's positive roots and both bracket ends, in units of
    n1, the roots and whether any of them is positive."""
    a, ab = alpha, 1.0 - alpha
    s1, s2 = g01 * a * p0, g02 * a * p0
    t1, t2 = g01 * ab * p0, g02 * ab * p0
    m2, w = s2 + n2, g12 * p1
    dd = n1 * n2 + n2 * s1 + n1 * s2
    forward = math.log1p((t2 + w) / m2) / math.log(2.0)

    def objective(x):
        cutset = math.log1p(t1 / (n1 + x) + t2 / m2) / math.log(2.0)
        loss = math.log1p(n1 * n1 * m2 / (x * dd + n1 * n2 * s1)) / math.log(2.0)
        return max(0.0, min(cutset, forward - loss))

    # (la1*x + la0) * (lb1*x + lb0) = rr * (x + n1) * (dd*x + n1*n2*s1)
    la1, la0 = m2 + t2, n1 * (m2 + t2) + t1 * m2
    lb1, lb0 = dd, n1 * n2 * s1 + n1 * n1 * m2
    rr = m2 + t2 + w
    qa = la1 * lb1 - rr * dd
    qb = la1 * lb0 + la0 * lb1 - rr * (n1 * dd + n1 * n2 * s1)
    qc = la0 * lb0 - rr * (n1 * n1 * n2 * s1)
    if qa == 0.0:
        roots = [-qc / qb] if qb != 0.0 else []
    else:
        disc = qb * qb - 4.0 * qa * qc
        roots = []
        if disc >= 0.0:
            q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
            roots = [q / qa] + ([qc / q] if q != 0.0 else [])
    roots = [r for r in roots if math.isfinite(r) and r > 0.0]
    return max(map(objective, roots + [end * n1 for end in N_HAT_BRACKET])), roots, objective


def cf_kernel(g01, g02, g12, p0, p1, alpha, n_hat=None):
    return rate_kernel(Scheme.RBC_CF, g01, g02, g12, ChannelParams(p0=p0, p1=p1), alpha, n_hat)


@pytest.mark.parametrize("case, end", [(LOW_END_WINS, 0), (HIGH_END_WINS, 1)],
                         ids=["low-end", "high-end"])
def test_no_root_cases_take_the_better_bracket_end(case, end):
    _, roots, objective = scalar_cf_reference(*case)
    assert roots == []
    ends = [objective(x) for x in N_HAT_BRACKET]
    assert ends[end] > ends[1 - end]
    _, r2, n_hat, _ = cf_kernel(*case)
    assert n_hat == N_HAT_BRACKET[end]
    assert r2 == pytest.approx(ends[end], abs=1e-12)


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, POWER, ALPHA)
@example(*LOW_END_WINS)
@example(*HIGH_END_WINS)
def test_cf_r2_is_not_below_a_dense_n_hat_grid(g01, g02, g12, p0, p1, alpha):
    _, r2, _, _ = cf_kernel(g01, g02, g12, p0, p1, alpha)
    _, on_grid, _, _ = cf_kernel(g01, g02, g12, p0, p1, alpha, DENSE_N_HAT)
    assert r2 >= on_grid.max() - 1e-9


def test_cf_r2_is_not_below_a_dense_n_hat_grid_at_powers_whose_products_overflow():
    # cleared of denominators, the crossing was a quadratic whose
    # coefficients are products of up to four powers, so they or its
    # discriminant overflowed at large powers; with the relay power far
    # above the BS power, that lost the crossing and up to 15 bits of r2.
    # The linear root's terms are powers and ratios of powers, which stay
    # finite here
    rng = rng_for(2026)
    grid = np.logspace(math.log10(N_HAT_BRACKET[0]), math.log10(N_HAT_BRACKET[1]), 200_000)
    for _ in range(1000):
        p0, p1 = 10.0 ** rng.uniform(60.0, 300.0, size=2)
        g01, g02, g12 = 10.0 ** rng.uniform(-3.0, 3.0, size=3)
        alpha = rng.uniform()
        _, r2, _, _ = cf_kernel(g01, g02, g12, p0, p1, alpha)
        _, on_grid, _, _ = cf_kernel(g01, g02, g12, p0, p1, alpha, grid)
        assert r2 >= on_grid.max() - 1e-9, (g01, g02, g12, p0, p1, alpha)
    # a batch whose products overflow in some entries only gives each
    # entry's own r2, bit for bit (at p0 = 1e30, 124 of these 200 overflow)
    g01, g02, g12 = 10.0 ** rng.uniform(-3.0, 3.0, size=(3, 200))
    p1, alpha = 10.0 ** rng.uniform(0.0, 300.0, size=200), rng.uniform(size=200)
    batch = rate_kernel(Scheme.RBC_CF, g01, g02, g12, ChannelParams(p0=1e30), alpha, p1=p1)[1]
    assert batch.tolist() == [cf_kernel(*args, 1e30, *rest)[1]
                              for *args, rest in zip(g01, g02, g12, zip(p1, alpha))]


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, POWER, ALPHA)
@example(*LOW_END_WINS)
@example(*HIGH_END_WINS)
def test_cf_r2_matches_the_scalar_reference(g01, g02, g12, p0, p1, alpha):
    reference, _, _ = scalar_cf_reference(g01, g02, g12, p0, p1, alpha)
    _, r2, _, _ = cf_kernel(g01, g02, g12, p0, p1, alpha)
    assert r2 == pytest.approx(reference, abs=1e-12)


def cf_bounds(g01, g02, g12, p0, p1, n1, n2, alpha):
    """The CF bounds at relay power ``p1``, which may be an array, as in the
    scheduler's lanes."""
    return _CFBounds(g01, g02, g12, ChannelParams(p0=p0, p1=1.0, n1=n1, n2=n2), alpha, p1)


def crosses_once(cf, g01, g02, g12, p0, p1, n1, n2, alpha):
    """Whether the crossing of the CF bounds cleared of denominators, the
    quadratic (la1*x + la0)*(dd*x + lb0) - rr*(x + n1)*(dd*x + n1*n2*s1)
    written out from the inputs, vanishes at -n1 and, where it is finite,
    at the kernel's root of ``cf``, per entry: to 1e-12 of the sum of its
    terms' magnitudes, which bounds its rounding.  A quadratic has two
    roots, so these are all of them, and the bounds cross at most once."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        root = cf._crossing()
    a, ab = alpha, 1.0 - alpha
    s1, s2 = g01 * a * p0, g02 * a * p0
    t1, t2 = g01 * ab * p0, g02 * ab * p0
    m2, w = s2 + n2, g12 * p1
    dd = n1 * n2 + n2 * s1 + n1 * s2
    la1, off = m2 + t2, n1 * n2 * s1
    la0, lb0, rr = n1 * la1 + t1 * m2, off + n1 * n1 * m2, la1 + w

    def vanishes(x):
        left = (la1 * x + la0) * (dd * x + lb0)
        right = rr * (x + n1) * (dd * x + off)
        x = np.abs(x)
        scale = (la1 * x + la0) * (dd * x + lb0) + rr * (x + n1) * (dd * x + off)
        return np.abs(left - right) <= 1e-12 * scale

    finite = np.isfinite(root)
    return vanishes(-n1) & (~finite | vanishes(np.where(finite, root, 0.0)))


def no_crossing(cf):
    """Where the bounds of ``cf`` do not cross: ``linear_root`` is not
    finite or not positive."""
    root = linear_root(cf)
    return ~(np.isfinite(root) & (root > 0.0))


def same_bits(ours, reference):
    """The arrays of ``ours`` equal those of ``reference`` bit for bit, as
    floats, NaNs and signed zeros included: the optimum's (r2, n_hat,
    clamped), or one r2."""
    return all(np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                              np.asarray(b, dtype=float).view(np.int64))
               for a, b in zip(ours, reference))


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, POWER, NOISE, NOISE, ALPHA, st.booleans())
@example(1e8, 1e-6, 1e8, 1e6, 1e6, 0.1, 10.0, 0.5, True)
@example(1e8, 1e-6, 1e8, 1e6, 1e6, 0.1, 10.0, 0.5, False)
@example(1e-6, 1e-6, 1e8, 1e-2, 1e6, 10.0, 0.1, 0.0, True)
@example(1e8, 1e8, 1e-6, 1e6, 1e-2, 0.1, 0.1, 1.0, False)
@example(1e-6, 1e8, 0.0, 1e6, 1e6, 10.0, 10.0, 5e-324, True)
@example(*LOW_END_WINS[:5], 1.0, 1.0, LOW_END_WINS[5], True)
@example(*HIGH_END_WINS[:5], 1.0, 1.0, HIGH_END_WINS[5], True)
def test_the_cf_bounds_cross_at_most_once(g01, g02, g12, p0, p1, n1, n2, alpha, ordered):
    # the degraded order g01/n1 >= g02/n2, or its reverse, which nearest
    # pairing scores
    if ordered != (g01 * n2 >= g02 * n1):
        g01, g02 = g02, g01
    cf = cf_bounds(g01, g02, g12, p0, p1, n1, n2, alpha)
    assert crosses_once(cf, g01, g02, g12, p0, p1, n1, n2, alpha)
    assert same_bits(cf.optimum(), both_ends_optimum(cf))


def test_the_cf_bounds_cross_at_most_once_at_the_corners_of_the_ranges():
    # every combination of extreme gains, powers and noises, at array alphas
    # with both ends and at scalar alphas, which take the optimum's scalar path
    gains = np.array([1e-6, 1e-3, 1.0, 1e4, 1e8])
    alphas = np.array([0.0, 1e-9, 0.2, 0.5, 1.0 - 1e-9, 1.0])
    g01, g02, g12, alpha = (x.ravel() for x in np.meshgrid(gains, gains, np.append(gains, 0.0),
                                                           alphas, indexing="ij"))
    for p0, p1, n1, n2 in itertools.product((1e-2, 1e6), (1e-2, 1e6), (0.1, 10.0), (0.1, 10.0)):
        for a in (alpha, 0.0, 0.5, 1.0):
            cf = cf_bounds(g01, g02, g12, p0, p1, n1, n2, a)
            assert crosses_once(cf, g01, g02, g12, p0, p1, n1, n2, a).all()
            assert same_bits(cf.optimum(), both_ends_optimum(cf))


def test_the_cf_bounds_cross_at_most_once_on_random_batches():
    rng = rng_for(2024)
    for _ in range(10):
        p0, n1, n2 = 10.0 ** rng.uniform(-2.0, 6.0), *(10.0 ** rng.uniform(-1.0, 1.0, size=2))
        g01, g02, g12 = 10.0 ** rng.uniform(-6.0, 8.0, size=(3, 20_000))
        p1 = 10.0 ** rng.uniform(-2.0, 6.0, size=20_000)
        alpha = np.concatenate([[0.0, 1.0], rng.uniform(size=19_998)])
        cf = cf_bounds(g01, g02, g12, p0, p1, n1, n2, alpha)
        assert crosses_once(cf, g01, g02, g12, p0, p1, n1, n2, alpha).all()
        assert same_bits(cf.optimum(), both_ends_optimum(cf))


def assert_near_the_exact_optimum(n_hat, r2, g01, g02, g12, p0, p1, n1, n2, alpha):
    """n_hat within 1e-12 relative of the exact crossing, where one exists,
    and r2 within 1e-13 bits of the exact optimum.  Where the crossing
    is far below the terms that cancel in its numerator, rounding those
    terms moves it by a few ulp of their size over the divisor,
    ``spread``, so n_hat may also be off by 1e-14 of that."""
    crossing, exact_r2, spread = exact_cf_optimum(g01, g02, g12, p0, p1, alpha, n1, n2)
    if crossing is not None:
        assert abs(n_hat - crossing) <= 1e-12 * crossing + 1e-14 * spread, crossing
    assert abs(r2 - exact_r2) <= 1e-13, exact_r2


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, POWER, NOISE, NOISE, ALPHA, st.booleans())
@example(*LOW_END_WINS[:5], 1.0, 1.0, LOW_END_WINS[5], True)
@example(*HIGH_END_WINS[:5], 1.0, 1.0, HIGH_END_WINS[5], True)
@example(1e8, 1e-6, 1e8, 1e6, 1e6, 0.1, 10.0, 0.5, True)
@example(1e-6, 1e8, 0.0, 1e6, 1e6, 10.0, 10.0, 5e-324, True)
def test_the_cf_optimum_is_within_rounding_of_a_50_digit_reference(g01, g02, g12, p0, p1, n1,
                                                                    n2, alpha, ordered):
    if ordered != (g01 * n2 >= g02 * n1):
        g01, g02 = g02, g01
    r2, n_hat, _ = cf_bounds(g01, g02, g12, p0, p1, n1, n2, alpha).optimum()
    assert_near_the_exact_optimum(n_hat, r2, g01, g02, g12, p0, p1, n1, n2, alpha)


def test_the_cf_optimum_is_within_rounding_of_a_50_digit_reference_on_random_batches():
    # each batch in both role orders: the degraded order and its reverse
    rng = rng_for(2027)
    for _ in range(8):
        p0, n1, n2 = 10.0 ** rng.uniform(-2.0, 6.0), *(10.0 ** rng.uniform(-1.0, 1.0, size=2))
        g01, g02, g12 = 10.0 ** rng.uniform(-6.0, 8.0, size=(3, 250))
        p1 = 10.0 ** rng.uniform(-2.0, 6.0, size=250)
        alpha = rng.uniform(size=250)
        for relay, second in ((g01, g02), (g02, g01)):
            r2s, n_hats, _ = cf_bounds(relay, second, g12, p0, p1, n1, n2, alpha).optimum()
            for k in range(250):
                assert_near_the_exact_optimum(n_hats[k], r2s[k], relay[k], second[k], g12[k],
                                              p0, p1[k], n1, n2, alpha[k])


def test_the_cf_r2_is_within_1e_15_relative_of_a_50_digit_reference_on_wide_ranges():
    # r2 is one log of a ratio: the cut-set ratio alone at the crossing, a
    # sum of positive terms, and the smaller ratio at a bracket end.  The
    # forwarding bound minus the compression loss, a difference of logs,
    # cancels at the crossing: taken from it, r2 is up to 1.8e-8 relative
    # off on these draws
    rng = rng_for(2028)
    g = 10.0 ** rng.uniform(-6.0, 8.0, size=(3, 1500))
    p0, p1 = 10.0 ** rng.uniform(-2.0, 6.0, size=(2, 1500))
    n1, n2 = 10.0 ** rng.uniform(-1.0, 1.0, size=(2, 1500))
    alpha = rng.uniform(size=1500)
    # no relay power reaching the second user: the bounds never cross, and
    # r2 is the forwarding-minus-loss ratio's at the high bracket end
    g[2, :150], p1[150:300] = 0.0, 0.0
    off = []
    for relay, second in ((g[0], g[1]), (g[1], g[0])):  # both role orders
        for draw in zip(relay, second, g[2], p0, p1, alpha, n1, n2):
            g01, g02, g12, p0_, p1_, alpha_, n1_, n2_ = map(float, draw)
            params = ChannelParams(p0=p0_, p1=p1_, n1=n1_, n2=n2_)
            r2 = float(rate_kernel(Scheme.RBC_CF, g01, g02, g12, params, alpha_)[1])
            exact = exact_cf_optimum(*draw)[1]
            if abs(r2 - exact) > 1e-15 * exact:
                off.append((abs(r2 - exact) / exact if exact else r2, draw))
    assert not off, (len(off), max(off))


def assert_the_min_of_the_bounds_in_bits(scheme, g01, g02, g12, params, alpha):
    r2, n_hat, clamped = rate_kernel(scheme, g01, g02, g12, params, alpha)[1:]
    assert (n_hat, clamped) == (None, False)
    assert same_bits((r2,), (two_log_second_rate(scheme, g01, g02, g12, params, alpha),))


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, POWER, NOISE, NOISE, ALPHA,
       st.sampled_from([Scheme.GBC, Scheme.RBC_DF]))
def test_gbc_and_df_r2_are_the_min_of_their_bounds_in_bits_bit_for_bit(g01, g02, g12, p0, p1,
                                                                      n1, n2, alpha, scheme):
    # log1p is monotone, so the log of the smaller ratio is the smaller log
    params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
    assert_the_min_of_the_bounds_in_bits(scheme, g01, g02, g12, params, alpha)


@pytest.mark.parametrize("scheme", [Scheme.GBC, Scheme.RBC_DF])
def test_gbc_and_df_r2_are_the_min_of_their_bounds_in_bits_bit_for_bit_on_random_batches(scheme):
    # numpy's vector log1p loops, over arrays in both role orders
    rng = rng_for(2029)
    for _ in range(5):
        p0, p1, n1, n2 = 10.0 ** rng.uniform([-2.0, -2.0, -1.0, -1.0], [6.0, 6.0, 1.0, 1.0])
        params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
        g01, g02, g12 = 10.0 ** rng.uniform(-6.0, 8.0, size=(3, 20_000))
        alpha = np.concatenate([[0.0, 1.0], rng.uniform(size=19_998)])
        for relay, second in ((g01, g02), (g02, g01)):
            assert_the_min_of_the_bounds_in_bits(scheme, relay, second, g12, params, alpha)


# p1 = 0 makes the crossing equation's divisor w/m2 zero: the bounds never cross
RELAY_POWER = st.one_of(st.just(0.0), POWER)


@PROPERTY
@given(GAIN, GAIN, RELAY_GAIN, POWER, RELAY_POWER, ALPHA, st.booleans())
@example(*LOW_END_WINS, True)
@example(*HIGH_END_WINS, True)
@example(1.0, 0.5, 1.0, 1.0, 0.0, 0.5, True)
@example(1e8, 1e-6, 1e8, 1e6, 0.0, 0.0, False)
@example(1e-6, 1e8, 1e-6, 1e-2, 1e6, 1.0, True)
def test_the_optimum_equals_the_rule_that_scored_both_bracket_ends(g01, g02, g12, p0, p1, alpha,
                                                                   ordered):
    # the high end is scored only where the forwarding-minus-loss bound
    # binds at the low end; elsewhere the cut-set bound, monotone in floating
    # point as np.log1p is, keeps the high end from winning
    if ordered != (g01 >= g02):
        g01, g02 = g02, g01
    # a scalar alpha, and an array one, which takes the alpha = 1 branch
    for relay, alpha_ in ((g01, alpha), (np.array([g01, g01]), np.array([alpha, 1.0]))):
        cf = cf_bounds(relay, g02, g12, p0, p1, 1.0, 1.0, alpha_)
        assert same_bits(cf.optimum(), both_ends_optimum(cf))


def test_the_optimum_equals_the_rule_that_scored_both_bracket_ends_on_random_batches():
    rng = rng_for(2025)
    for _ in range(10):
        p0 = 10.0 ** rng.uniform(-2.0, 6.0)
        g01, g02, g12 = 10.0 ** rng.uniform(-6.0, 8.0, size=(3, 20_000))
        g12[:2000] = 0.0
        p1 = 10.0 ** rng.uniform(-2.0, 6.0, size=20_000)
        p1[1000:4000] = 0.0
        alpha = np.concatenate([[0.0, 1.0], rng.uniform(size=19_998)])
        cf = cf_bounds(g01, g02, g12, p0, p1, 1.0, 1.0, alpha)
        no_root = no_crossing(cf)
        assert 0 < no_root.sum() < no_root.size
        assert same_bits(cf.optimum(), both_ends_optimum(cf))


@pytest.mark.parametrize("scale", [1e-12, 1e6])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_the_rates_do_not_depend_on_the_noise_unit(scheme, scale):
    # every power and noise times ``scale``: the same rates at bracket ends
    # (no root) as at roots, and the bracket end in the new unit
    rng = rng_for(37)
    g01, g02, g12 = 10.0 ** rng.uniform(-4.0, 4.0, size=(3, 4000))
    g12[:500] = 0.0  # no relay power reaches the second user: the high end wins
    alpha = np.concatenate([[0.0, 1.0], rng.uniform(size=3998)])
    unit = ChannelParams(p0=10.0, p1=10.0, n1=0.5, n2=2.0)
    scaled = ChannelParams(p0=10.0 * scale, p1=10.0 * scale, n1=0.5 * scale, n2=2.0 * scale)
    r1, r2, n_hat, _ = rate_kernel(scheme, g01, g02, g12, unit, alpha)
    s1, s2, scaled_n_hat, _ = rate_kernel(scheme, g01, g02, g12, scaled, alpha)
    assert np.abs(s1 - r1).max() <= 1e-9
    assert np.abs(s2 - r2).max() <= 1e-9
    if scheme.uses_compression:
        no_root = no_crossing(_CFBounds(g01, g02, g12, unit, alpha, unit.p1))
        assert 100 < no_root.sum() < no_root.size
        assert np.allclose(scaled_n_hat[no_root], n_hat[no_root] * scale, rtol=1e-9, atol=0.0)


@st.composite
def blocks(draw):
    """One block's candidates: BS gains, PF ledger, inter-user gain
    estimates and positions of 2..10 users, and the powers."""
    k = draw(st.integers(2, 10))
    gains = np.array(draw(st.lists(GAIN, min_size=k, max_size=k)))
    avg = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=k, max_size=k)))
    est = np.array(draw(st.lists(GAIN, min_size=k * k, max_size=k * k))).reshape(k, k)
    xy = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=2 * k, max_size=2 * k)))
    xy = xy.reshape(k, 2)
    dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
    params = ChannelParams(p0=draw(POWER), p1=draw(POWER))
    return gains, avg, est, dist, params, PowerSplit(draw(st.floats(0.0, 1.0)))


def pf_best(scores):
    """Reference argmax: the largest score, the lowest index on ties."""
    return -max((s, -i) for i, s in scores)[1]


@PROPERTY
@given(blocks(), st.sampled_from(list(Scheme)))
def test_near_far_scoring_matches_the_scalar_loop(block, scheme):
    gains, avg, est, _, params, split = block
    order = np.argsort(-gains, kind="stable")
    strong, weak = np.sort(order[: (len(gains) + 1) // 2]), np.sort(order[(len(gains) + 1) // 2:])
    k1, k2 = near_far_pair(strong, weak, gains, avg, est, scheme, params, split)
    assert k1 == pf_best((i, relay_rate_bits(scheme, gains[i], params, split) / avg[i])
                         for i in strong)
    assert k2 == pf_best(
        (j, second_rate_bits(scheme, gains[k1], gains[j], est[k1, j], params, split) / avg[j])
        for j in weak)


@PROPERTY
@given(blocks(), st.sampled_from(list(Scheme)))
def test_nearest_scoring_matches_the_scalar_loop(block, scheme):
    gains, avg, est, dist, params, split = block
    ids = list(range(len(gains)))
    nn = nearest_remaining(ids, dist)
    k1, k2 = nearest_neighbor_pair(ids, dist, gains, avg, est, scheme, params, split)
    expect = pf_best(
        (i, relay_rate_bits(scheme, gains[i], params, split) / avg[i]
         + second_rate_bits(scheme, gains[i], gains[nn[i]], est[i, nn[i]], params, split)
         / avg[nn[i]])
        for i in ids)
    assert (k1, k2) == (expect, nn[expect])


@pytest.mark.parametrize("scheme", CF_SCHEMES)
def test_nearest_scoring_picks_an_unordered_cf_pair(scheme):
    # user 0 is the weaker one but starved, so the metric makes it the relay
    # of its stronger neighbour: the scored pair is unordered (g02 > g01)
    gains = np.array([1.0, 50.0, 0.5])
    avg = np.array([1e-3, 1.0, 1.0])
    dist = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    est = np.full((3, 3), 2.0)
    params, split = ChannelParams(p0=10.0, p1=10.0), PowerSplit(0.8)
    assert nearest_neighbor_pair([0, 1, 2], dist, gains, avg, est, scheme, params, split) == (0, 1)
    metric = [relay_rate_bits(scheme, gains[i], params, split) / avg[i]
              + second_rate_bits(scheme, gains[i], gains[j], est[i, j], params, split) / avg[j]
              for i, j in ((0, 1), (1, 0), (2, 0))]
    assert metric[0] == max(metric)
