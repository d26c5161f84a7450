import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noma_rbc import cli, oracle, rates
from noma_rbc.core import LN2, ChannelParams, CompressionNoise, LinkGains, PowerSplit, Scheme
from noma_rbc.oracle import (
    GaussianSystem,
    TermDelta,
    gaussian_mi,
    random_verification_draws,
    verify_terms,
)

from helpers import rng_for, stack_draws

REF_PARAMS = ChannelParams(p0=10.0, p1=10.0, n1=1.0, n2=1.0)
# the reference draw as the arguments of verify_terms: (g01, g02, g12,
# params, alpha, n_hat)
REF = (8.0, 1.0, 8.0, REF_PARAMS, 0.2, 1.0)


def ref_system():
    return GaussianSystem.from_values(*REF)


def random_systems(rng, count):
    """A stack of ``count`` random draws."""
    return GaussianSystem.from_values(*random_verification_draws(rng, count))


def draw_at(batch, k):
    """Draw ``k`` of a stacked ``verify_terms`` argument tuple, as scalars."""
    return tuple(x if isinstance(x, ChannelParams) else float(x[k]) for x in batch)


def max_delta(terms) -> float:
    """The largest |closed form - oracle| of ``terms`` over every draw."""
    return max(float(np.max(t.delta_nats)) for t in terms)


def describe(terms) -> str:
    return "; ".join(f"{t.name}: closed={t.closed_form_nats!r} oracle={t.oracle_nats!r}"
                     for t in terms)


def test_known_scalar_values():
    sys_ = ref_system()
    # interference-limited relay-user rate: ln(1 + 16/65) = ln(81/65)
    assert gaussian_mi(sys_, "U", "Y1") == pytest.approx(math.log(81.0 / 65.0), abs=1e-12)
    # conditioning on the left set kills the information
    assert gaussian_mi(sys_, "U", "Y2", "U") == pytest.approx(0.0, abs=1e-12)
    # independent primitives
    assert gaussian_mi(sys_, "U", "X1") == pytest.approx(0.0, abs=1e-12)


def test_symmetry():
    rng = rng_for(13)
    pairs = [("U", "Y1"), ("V", "Y2"), ("Y1", "Y2"), ("Y1HAT", "Y1"),
             (("V", "X1"), "Y2"), ("U", ("Y1", "Y2"))]
    sys_ = random_systems(rng, 200)
    for left, right in pairs:
        a = gaussian_mi(sys_, left, right)
        b = gaussian_mi(sys_, right, left)
        assert np.all(np.abs(a - b) <= 1e-12)


def test_chain_rule():
    rng = rng_for(17)
    sys_ = random_systems(rng, 300)
    joint = gaussian_mi(sys_, "V", ("Y1HAT", "Y2"), "X1")
    split_sum = (gaussian_mi(sys_, "V", "Y1HAT", "X1")
                 + gaussian_mi(sys_, "V", "Y2", ("Y1HAT", "X1")))
    assert np.all(np.abs(joint - split_sum) <= 1e-9)


def test_non_negativity():
    rng = rng_for(19)
    sets = [("U", "Y1", ()), ("V", "Y2", ("X1",)), ("Y1HAT", "Y1", ("V", "X1", "Y2")),
            (("V", "X1"), "Y2", ()), ("V", ("Y1HAT", "Y2"), ("X1",))]
    sys_ = random_systems(rng, 300)
    for left, right, given in sets:
        assert np.all(gaussian_mi(sys_, left, right, given) >= -1e-12)


def test_verify_reference_setting():
    for scheme, terms in verify_terms(*REF).items():
        assert max_delta(terms) <= 1e-9, (scheme, describe(terms))


def test_verify_alpha_zero_is_clean():
    at_zero = REF[:4] + (0.0,) + REF[5:]
    for scheme, terms in verify_terms(*at_zero).items():
        assert max_delta(terms) <= 1e-12, (scheme, describe(terms))


def test_verify_randomized():
    chunk = verify_terms(*random_verification_draws(rng_for(23), 250))
    assert max(map(max_delta, chunk.values())) <= 1e-9


def test_verify_term_names_cover_rate_expressions():
    chunk = verify_terms(*REF)
    names = {t.name for t in chunk[Scheme.RBC_CF]}
    assert names == {"r1", "r2_cutset", "r2_forward", "r2_compression_loss"}
    df = chunk[Scheme.RBC_DF]
    assert {t.name for t in df} == {"r1", "r2_forward", "r2_decode"}
    # closed forms are converted to nats with the single package constant
    r1_bits = math.log2(17.0)
    assert df[0].closed_form_nats == pytest.approx(r1_bits * LN2, abs=1e-12)


def test_degenerate_variances_reduce_cleanly():
    # zero relay power and full split: several primitives drop to rank zero
    params = ChannelParams(p0=5.0, p1=0.0, n1=1.0, n2=2.0)
    for alpha in (0.0, 1.0):
        sys_ = GaussianSystem.from_values(4.0, 0.5, 0.0, params, alpha, 0.5)
        assert gaussian_mi(sys_, "X1", "Y2") == 0.0
        value = gaussian_mi(sys_, ("U", "V"), ("Y1", "Y2"))
        assert math.isfinite(value) and value >= 0.0


def test_unknown_variable_rejected():
    sys_ = ref_system()
    with pytest.raises(ValueError, match="unknown variable"):
        gaussian_mi(sys_, "U", "Y3")


def test_system_validation():
    with pytest.raises(ValueError):
        GaussianSystem(var_u=-1.0, var_v=1.0, var_x1=1.0, var_z1=1.0,
                       var_z2=1.0, var_zh=1.0, g01=1.0, g02=1.0, g12=1.0)


# ---------------------------------------------------------------------------
# stacked evaluation

MI_SPECS = [("U", "Y1", ()), ("U", "Y1", "V"), ("V", "Y2", "X1"), (("V", "X1"), "Y2", ()),
            ("V", ("Y1HAT", "Y2"), "X1"), ("Y1HAT", "Y1", ("V", "X1", "Y2")),
            (("U", "V"), ("Y1", "Y2"), ()), ("X1", "Y2", ()), ("U", "Y2", "U")]


def mixed_draws(seed, count=60):
    """Random typed ``(gains, params, split, n_hat)`` draws with degenerate
    ones mixed in: alpha 0, alpha 1 and no relay link."""
    g01, g02, g12, params, alpha, n_hat = random_verification_draws(rng_for(seed), count)
    alpha[1::4], alpha[2::4], g12[3::4] = 0.0, 1.0, 0.0
    return [(LinkGains(*gains), params, PowerSplit(a), CompressionNoise(n))
            for *gains, a, n in zip(*(x.tolist() for x in (g01, g02, g12, alpha, n_hat)))]


def test_stacked_mi_equals_one_draw_calls_bit_for_bit():
    batch = stack_draws(mixed_draws(29))
    count = len(batch[0])
    stacked = GaussianSystem.from_values(*batch)
    assert stacked.shape == (count,)
    for left, right, cond in MI_SPECS:
        values = gaussian_mi(stacked, left, right, cond)
        assert isinstance(values, np.ndarray) and values.shape == (count,)
        singles = [gaussian_mi(GaussianSystem.from_values(*draw_at(batch, k)), left, right, cond)
                   for k in range(count)]
        assert all(isinstance(x, float) for x in singles)
        assert values.tolist() == singles, (left, right, cond)


def test_zero_relay_power_stack_equals_one_draw_calls():
    # p1 = 0 is shared by the whole stack, so it gets a stack of its own
    g01, g02, g12, _, alpha, n_hat = stack_draws(mixed_draws(31, 24))
    batch = (g01, g02, g12, ChannelParams(p0=10.0, p1=0.0, n1=1.0, n2=1.0), alpha, n_hat)
    stacked = GaussianSystem.from_values(*batch)
    for left, right, cond in MI_SPECS:
        singles = [gaussian_mi(GaussianSystem.from_values(*draw_at(batch, k)), left, right, cond)
                   for k in range(len(g01))]
        assert gaussian_mi(stacked, left, right, cond).tolist() == singles


def test_stacked_terms_equal_one_draw_terms_bit_for_bit():
    batch = stack_draws(mixed_draws(37))
    chunk = verify_terms(*batch)
    for k in range(len(batch[0])):
        for scheme, singles in verify_terms(*draw_at(batch, k)).items():
            terms = chunk[scheme]
            assert [t.name for t in terms] == [t.name for t in singles]
            for stacked, single in zip(terms, singles):
                assert stacked.closed_form_nats[k] == single.closed_form_nats
                assert stacked.oracle_nats[k] == single.oracle_nats
                assert stacked.delta_nats[k] == single.delta_nats


def test_one_draw_gives_numpy_scalars():
    for scheme, terms in verify_terms(*REF).items():
        for term in terms:
            for value in (term.closed_form_nats, term.oracle_nats, term.delta_nats):
                assert type(value) is np.float64, (scheme, term.name)
    assert type(gaussian_mi(ref_system(), "U", "Y1")) is np.float64
    assert type(gaussian_mi(ref_system(), (), "Y1")) is np.float64


def test_divergence_names_the_first_offending_draw():
    # I(U; U) is infinite wherever U has variance; alpha 0 makes it 0
    stacked = GaussianSystem.from_values(
        np.full(4, 2.0), np.ones(4), np.ones(4), REF_PARAMS,
        np.array([0.0, 0.0, 0.3, 0.6]), np.ones(4))
    with pytest.raises(ValueError, match=r"at draw 2; mutual information diverges"):
        gaussian_mi(stacked, "U", "U")
    with pytest.raises(ValueError, match=r"determines left set; mutual information diverges"):
        gaussian_mi(ref_system(), "U", "U")
    zero = GaussianSystem.from_values(np.full(2, 2.0), np.ones(2), np.ones(2), REF_PARAMS,
                                  np.zeros(2), np.ones(2))
    assert gaussian_mi(zero, "U", "U").tolist() == [0.0, 0.0]


@pytest.mark.parametrize("field, bad, message", [
    ("var_zh", np.array([1.0, -1.0, -2.0]), r"var_zh must be finite and non-negative, got -1\.0 at draw 1"),
    ("g12", np.array([1.0, 2.0, np.nan]), r"g12 must be finite and non-negative, got nan at draw 2"),
    ("var_u", np.array([np.inf, 1.0, 1.0]), r"var_u must be finite and non-negative, got inf at draw 0"),
    ("g01", np.ones((3, 1)), r"g01 must be a scalar or a 1-D array"),
    ("var_v", np.ones(2), r"equal lengths, got \[2, 3\]"),
])
def test_stacked_system_validation_names_the_field(field, bad, message):
    fields = dict(var_u=np.ones(3), var_v=np.ones(3), var_x1=1.0, var_z1=1.0, var_z2=1.0,
                  var_zh=np.ones(3), g01=np.ones(3), g02=np.ones(3), g12=np.ones(3))
    fields[field] = bad
    with pytest.raises(ValueError, match=message):
        GaussianSystem(**fields)


def reference_verify_output(count, seed, inject_error):
    """``verify``'s report written out as a scalar loop: one draw and one
    scheme at a time, the worst case kept on a strict improvement."""
    rng = rng_for(seed)
    worst_delta, worst, term_worst = 0.0, None, {}
    for _ in range(count):
        draw = draw_at(random_verification_draws(rng, 1), 0)
        for scheme in Scheme:
            terms = verify_terms(*draw, schemes=(scheme,))[scheme]
            for term in terms:
                key = (scheme.label, term.name)
                term_worst[key] = max(term_worst.get(key, 0.0), term.delta_nats)
            delta = max_delta(terms) + (1e-6 if inject_error else 0.0)
            if delta > worst_delta:
                worst_delta, worst = delta, (*draw, scheme)
    lines = [f"verified 4 schemes x {count} draws: max delta = {worst_delta:.3e} nats "
             f"(tolerance 1e-09)"]
    lines += [f"  {label:10s} {name:19s} max delta = {delta:.3e} nats"
              for (label, name), delta in term_worst.items()]
    if worst_delta > 1e-9:
        g01, g02, g12, params, alpha, n_hat, scheme = worst
        lines += ["worst case:", f"  scheme = {scheme.label}",
                  f"  gains  = g01={g01!r} g02={g02!r} g12={g12!r}",
                  f"  params = p0={params.p0!r} p1={params.p1!r} n1={params.n1!r} n2={params.n2!r}",
                  f"  alpha  = {alpha!r}  n_hat = {n_hat!r}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", [3, 20240, 77])
@pytest.mark.parametrize("inject_error", [False, True])
def test_cmd_verify_equals_scalar_reference_loop(monkeypatch, capsys, seed, inject_error):
    # small chunks, so the worst case is carried across chunk boundaries
    monkeypatch.setattr(cli, "VERIFY_CHUNK_DRAWS", 7)
    argv = ["verify", "--count", "30", "--seed", str(seed)] + (["--inject-error"] * inject_error)
    rc = cli.main(argv)
    assert rc == (cli.EXIT_VERIFY_FAILED if inject_error else cli.EXIT_OK)
    assert capsys.readouterr().out == reference_verify_output(30, seed, inject_error)


def test_cmd_verify_worst_case_is_the_first_of_equal_deltas(monkeypatch, capsys):
    # every draw and scheme gets the same delta, so the worst case must be
    # the first draw under the first scheme, in whichever chunk it falls
    monkeypatch.setattr(cli, "VERIFY_CHUNK_DRAWS", 4)
    monkeypatch.setattr(cli, "verify_terms", lambda g01, *rest: {
        scheme: (TermDelta("r1", np.full(len(g01), 2.0), np.ones(len(g01))),)
        for scheme in Scheme})
    assert cli.main(["verify", "--count", "10", "--seed", "5", "--inject-error"]) == \
        cli.EXIT_VERIFY_FAILED
    g01 = draw_at(random_verification_draws(rng_for(5), 1), 0)[0]
    out = capsys.readouterr().out
    assert "max delta = 1.000e+00 nats" in out.splitlines()[0]
    assert "  scheme = gbc\n" in out and f"g01={g01!r} " in out


# ---------------------------------------------------------------------------
# oracle equivalence away from the reference point

def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


POWER = log_uniform(1e-2, 1e6)
NOISE = log_uniform(0.1, 10.0)
GAIN = log_uniform(1e-6, 1e8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p0=POWER, p1=POWER, n1=NOISE, n2=NOISE, g=st.tuples(GAIN, GAIN, GAIN),
       alpha=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       n_hat_over_n1=log_uniform(1e-2, 1e2))
@example(p0=1e6, p1=1e6, n1=0.1, n2=10.0, g=(1e2, 1e-2, 1e2), alpha=0.5, n_hat_over_n1=0.1)
@example(p0=1e-2, p1=1e6, n1=10.0, n2=0.1, g=(1e-2, 1e-2, 1e2), alpha=1.0, n_hat_over_n1=10.0)
# var_v = 1e-7 beside var_x1 = 1e6: V stays in the left set (V, X1) of r2_forward
@example(p0=1e-2, p1=1e6, n1=1.0, n2=1.0, g=(1e8, 1e8, 1e-6), alpha=1 - 1e-5, n_hat_over_n1=1.0)
def test_oracle_equivalence_away_from_reference_point(p0, p1, n1, n2, g, alpha, n_hat_over_n1):
    # the BS gains in degraded order, as random_verification_draws orders them
    g01, g02 = (g[0], g[1]) if g[0] * n2 >= g[1] * n1 else (g[1], g[0])
    params = ChannelParams(p0=p0, p1=p1, n1=n1, n2=n2)
    n_hat = n_hat_over_n1 * n1
    for scheme, terms in verify_terms(g01, g02, g[2], params, alpha, n_hat).items():
        assert max_delta(terms) <= 1e-9, (scheme, describe(terms))


# ---------------------------------------------------------------------------
# one draw and one oracle pass per chunk

CHUNK_SIZES = (1, 7, cli.VERIFY_CHUNK_DRAWS, cli.VERIFY_CHUNK_DRAWS + 1)


def per_draw_reference(rng, count):
    """The draw stream as one ``rng.uniform`` call per quantity and draw
    (three gains, alpha, n_hat; the gains and n_hat through numpy's array
    power), as five value lists, and the generator's next value after each
    of ``CHUNK_SIZES`` draws."""
    uniform, rows, after = rng.uniform, [], {}
    for k in range(count + 1):
        if k in CHUNK_SIZES:
            after[k] = copy.deepcopy(rng).random()
        if k == count:
            return [list(column) for column in zip(*rows)], after
        g = (10.0 ** uniform(-2.0, 2.0, size=3)).tolist()
        g01, g02 = (g[0], g[1]) if g[0] >= g[1] else (g[1], g[0])
        alpha = uniform(0.0, 1.0)
        rows.append((g01, g02, g[2], alpha, (10.0 ** uniform(-2.0, 2.0, size=1)).item()))


def test_chunk_draw_equals_one_draw_at_a_time():
    # a chunk takes five uniforms per draw in draw order, each power through
    # numpy's array power, for every chunk size verify uses
    for seed in range(100):
        ref, after = per_draw_reference(rng_for(seed), max(CHUNK_SIZES))
        for count in CHUNK_SIZES:
            rng = rng_for(seed)
            g01, g02, g12, params, alpha, n_hat = random_verification_draws(rng, count)
            assert params == ChannelParams(p0=10.0, p1=10.0, n1=1.0, n2=1.0)
            chunk = [c.tolist() for c in (g01, g02, g12, alpha, n_hat)]
            assert chunk == [column[:count] for column in ref], (seed, count)
            assert rng.random() == after[count], (seed, count)
        for count in CHUNK_SIZES[:2]:
            rng = rng_for(seed)
            singles = [draw_at(random_verification_draws(rng, 1), 0) for _ in range(count)]
            assert all(p == params for _, _, _, p, _, _ in singles)
            values = [(g01, g02, g12, a, n) for g01, g02, g12, _, a, n in singles]
            assert values == list(zip(*ref))[:count], (seed, count)
            assert rng.random() == after[count], (seed, count)


def test_verify_evaluates_each_distinct_oracle_term_once_per_chunk(monkeypatch, capsys):
    calls = []

    def counted(system, *sets):
        calls.append((system.shape, sets))
        return gaussian_mi(system, *sets)

    monkeypatch.setattr(oracle, "gaussian_mi", counted)
    monkeypatch.setattr(cli, "VERIFY_CHUNK_DRAWS", 4)
    assert cli.main(["verify", "--count", "10", "--seed", "3"]) == cli.EXIT_OK
    # 13 (scheme, term) pairs over 8 distinct triples, one stacked call each
    assert len(capsys.readouterr().out.splitlines()) == 1 + 13
    assert [shape for shape, _ in calls] == [(4,)] * 8 + [(4,)] * 8 + [(2,)] * 8
    assert len(set(sets for _, sets in calls[:8])) == 8
    assert [sets for _, sets in calls[8:16]] == [sets for _, sets in calls[:8]]


def test_verify_fails_when_rates_put_a_scheme_under_another_r1_formula(monkeypatch, capsys):
    # RBC-CF+DPC's r1 in RBC-CF's formula group: the closed form keeps the
    # second user's component as noise, which the oracle's relay user
    # under DPC does not see
    monkeypatch.setattr(rates, "relay_rate_formulas",
                        lambda schemes: rates._formulas(schemes, lambda s: s.uses_compression))
    assert cli.main(["verify", "--count", "20"]) == cli.EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "  scheme = rbc-cf-dpc\n" in out
    worst = {line.split()[0]: float(line.split()[-2]) for line in out.splitlines()[1:14]
             if line.split()[1] == "r1"}
    assert worst["rbc-cf-dpc"] > 1e-3 and max(worst.values()) == worst["rbc-cf-dpc"]


def test_schemes_share_their_common_terms():
    batch = stack_draws(mixed_draws(43, 12))
    chunk = verify_terms(*batch)
    gbc, df, cf, dpc = (chunk[s] for s in Scheme)
    assert gbc[0] is dpc[0]                            # r1 without interference
    assert df[1] is cf[2] is dpc[2]                    # r2_forward
    assert all(a is b for a, b in zip(cf[1:], dpc[1:]))  # the CF r2 terms
    assert df[0] is not gbc[0] and cf[0] is not gbc[0]
    # a subset of schemes gives the same terms as the whole chunk
    for scheme in Scheme:
        alone = verify_terms(*batch, schemes=(scheme,))
        assert list(alone) == [scheme]
        for mine, full in zip(alone[scheme], chunk[scheme]):
            assert mine.name == full.name
            assert mine.closed_form_nats.tolist() == full.closed_form_nats.tolist()
            assert mine.oracle_nats.tolist() == full.oracle_nats.tolist()


def test_a_verify_chunk_factors_each_left_and_given_pair_once(monkeypatch):
    # 8 distinct terms, 6 distinct (left, given) pairs: each pair's left set
    # is factored once, by the basis of its given set when it has one (4 of
    # the 6) and Gram-Schmidt of its residual, and each term adds the basis
    # of its right and given sets and Gram-Schmidt of the left set's
    # residual on it.  So 4 + 6 + 8 + 8 = 26 Gram-Schmidt calls, of one to
    # four rows; none goes to LAPACK.
    calls, lapack = [], []

    def counted(log, real):
        def call(a, *args, **kwargs):
            log.append(np.shape(a))
            return real(a, *args, **kwargs)
        return call

    monkeypatch.setattr(oracle, "_orthonormal_basis", counted(calls, oracle._orthonormal_basis))
    monkeypatch.setattr(np.linalg, "svd", counted(lapack, np.linalg.svd))
    for batch in (stack_draws(mixed_draws(47, 12)), REF):
        for log in (calls, lapack):
            log.clear()
        verify_terms(*batch)
        assert len(calls) == 26 and lapack == []
        assert len({shape[:-2] for shape in calls}) == 1
        assert sorted(shape[-2] for shape in calls) == [1] * 16 + [2] * 6 + [3] * 3 + [4]


def test_verify_terms_oracle_values_are_gaussian_mi_on_a_fresh_system_bit_for_bit():
    batch = stack_draws(mixed_draws(53, 16))
    for draw in (batch, draw_at(batch, 1), draw_at(batch, 2), draw_at(batch, 3), REF):
        chunk = verify_terms(*draw)
        for scheme, terms in chunk.items():
            for term, (name, _, sets) in zip(terms, oracle._SCHEME_TERMS[scheme]):
                fresh = gaussian_mi(GaussianSystem.from_values(*draw), *sets)
                assert term.name == name
                assert np.array_equal(np.asarray(term.oracle_nats).view(np.int64),
                                      np.asarray(fresh).view(np.int64)), (scheme, name)
