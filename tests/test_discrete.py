import math

import numpy as np
import pytest

from noma_rbc.discrete import (
    BOUND_FAMILIES,
    DiscreteJoint,
    dmc_bound_rates,
    load_discrete_joint,
)

from helpers import rng_for


def binary_entropy(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_joint(crossover):
    pmf = 0.5 * np.array([[1.0 - crossover, crossover],
                          [crossover, 1.0 - crossover]])
    return DiscreteJoint(names=("X", "Y"), pmf=pmf)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_bsc_mutual_information(p):
    joint = bsc_joint(p)
    expected = 1.0 - binary_entropy(p)
    assert joint.mutual_information("X", "Y") == pytest.approx(expected, abs=1e-12)


def test_entropy_and_conditionals():
    joint = bsc_joint(0.1)
    assert joint.entropy("X") == pytest.approx(1.0, abs=1e-12)
    assert joint.conditional_entropy("Y", "X") == pytest.approx(binary_entropy(0.1), abs=1e-12)
    # conditioning on itself leaves nothing
    assert joint.conditional_entropy("X", "X") == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_given_nothing_is_the_entropy():
    joint = bsc_joint(0.1)
    assert joint.conditional_entropy(("X", "Y")) == joint.entropy(("X", "Y"))
    assert joint.conditional_entropy("Y") == pytest.approx(1.0, abs=1e-12)


def test_mutual_information_with_an_empty_set_is_zero():
    joint = bsc_joint(0.1)
    assert joint.mutual_information((), "Y") == 0.0
    assert joint.mutual_information("X", (), given="Y") == 0.0


def test_marginal_axis_order():
    rng = rng_for(3)
    pmf = rng.dirichlet(np.ones(24)).reshape(2, 3, 4)
    joint = DiscreteJoint(names=("A", "B", "C"), pmf=pmf)
    ab = joint.marginal(("A", "B"))
    ba = joint.marginal(("B", "A"))
    assert ab.shape == (2, 3)
    assert ba.shape == (3, 2)
    assert np.allclose(ab, ba.T)


def test_broadcast_bounds_noiseless_binary():
    # U = X0 uniform, Y1 = Y2 = X0: everything rides on the second user's message
    pmf = np.zeros((2, 2, 2, 2))
    for u in range(2):
        pmf[u, u, u, u] = 0.5
    joint = DiscreteJoint(names=("U", "X0", "Y1", "Y2"), pmf=pmf)
    bounds = dmc_bound_rates(joint, "broadcast")
    assert bounds.r1_bound == pytest.approx(0.0, abs=1e-12)
    assert bounds.r2_bound == pytest.approx(1.0, abs=1e-12)
    assert bounds.compression_rate is None


def test_fully_independent_joint_gives_zero_bounds():
    rng = rng_for(5)
    marginals = {name: rng.dirichlet(np.ones(2)) for name in
                 ("U", "V", "X1", "X0", "Y1", "Y1HAT", "Y2")}

    def product_joint(names):
        pmf = np.array(1.0)
        for n in names:
            pmf = np.multiply.outer(pmf, marginals[n])
        return DiscreteJoint(names=names, pmf=pmf.reshape([2] * len(names)))

    bc = dmc_bound_rates(product_joint(("U", "X0", "Y1", "Y2")), "broadcast")
    assert abs(bc.r1_bound) <= 1e-12 and abs(bc.r2_bound) <= 1e-12
    df = dmc_bound_rates(product_joint(("U", "X1", "X0", "Y1", "Y2")), "decode-forward")
    assert abs(df.r1_bound) <= 1e-12 and abs(df.r2_bound) <= 1e-12
    cf = dmc_bound_rates(product_joint(("U", "V", "X1", "Y1", "Y1HAT", "Y2")), "compress-forward")
    assert abs(cf.r1_bound) <= 1e-12 and abs(cf.r2_bound) <= 1e-12
    assert abs(cf.compression_rate) <= 1e-12


def random_cf_joint(rng, lossless=True):
    """Random joint over (U, V, X1, Y1, Y2) extended with Y1HAT; lossless
    mode copies Y1 into Y1HAT, otherwise Y1HAT is an independent coin."""
    base = rng.dirichlet(np.ones(32)).reshape(2, 2, 2, 2, 2)  # U,V,X1,Y1,Y2
    pmf = np.zeros((2, 2, 2, 2, 2, 2))  # U,V,X1,Y1,Y1HAT,Y2
    for y1 in range(2):
        for yh in range(2):
            if lossless:
                weight = 1.0 if yh == y1 else 0.0
            else:
                weight = 0.5
            pmf[:, :, :, y1, yh, :] = base[:, :, :, y1, :] * weight
    return DiscreteJoint(names=("U", "V", "X1", "Y1", "Y1HAT", "Y2"), pmf=pmf)


def test_lossless_compression_identity():
    # with Y1HAT == Y1: I(Y1HAT; Y1 | V, X1, Y2) = H(Y1 | V, X1, Y2)
    rng = rng_for(11)
    for _ in range(20):
        joint = random_cf_joint(rng, lossless=True)
        lhs = joint.mutual_information("Y1HAT", "Y1", ("V", "X1", "Y2"))
        rhs = joint.conditional_entropy("Y1", ("V", "X1", "Y2"))
        assert lhs == pytest.approx(rhs, abs=1e-12)
        bounds = dmc_bound_rates(joint, "compress-forward")
        assert bounds.compression_rate == pytest.approx(
            joint.conditional_entropy("Y1", "X1"), abs=1e-12
        )


def test_independent_compression_carries_nothing():
    rng = rng_for(12)
    joint = random_cf_joint(rng, lossless=False)
    assert joint.mutual_information("Y1HAT", "Y1", ("V", "X1", "Y2")) == pytest.approx(0.0, abs=1e-12)


def test_bound_family_validation():
    joint = bsc_joint(0.1)
    with pytest.raises(ValueError, match="unknown bound family"):
        dmc_bound_rates(joint, "amplify-forward")
    with pytest.raises(ValueError, match="not in joint"):
        dmc_bound_rates(joint, "broadcast")
    assert set(BOUND_FAMILIES) == {"broadcast", "decode-forward", "compress-forward"}


def test_joint_validation():
    with pytest.raises(ValueError, match="sums to"):
        DiscreteJoint(names=("X",), pmf=np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="non-negative"):
        DiscreteJoint(names=("X",), pmf=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="axes"):
        DiscreteJoint(names=("X", "Y"), pmf=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="duplicate"):
        DiscreteJoint(names=("X", "X"), pmf=np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="exceeds"):
        # broadcast view: the size guard trips before anything is copied
        DiscreteJoint(names=("X",), pmf=np.broadcast_to(0.0, (10_000_001,)))
    joint = bsc_joint(0.1)
    with pytest.raises(ValueError):
        joint.pmf[0, 0] = 1.0  # stored pmf is read-only


BSC_FILE = """\
# binary symmetric channel, crossover 0.1
var X 2
var Y 2
probs
0.45
0.05   # comments allowed after values too
0.05
0.45
"""


def test_load_discrete_joint_round_trip(tmp_path):
    path = tmp_path / "bsc.txt"
    path.write_text(BSC_FILE, encoding="utf-8")
    joint = load_discrete_joint(path)
    assert joint.names == ("X", "Y")
    assert np.allclose(joint.pmf, bsc_joint(0.1).pmf)
    expected = 1.0 - binary_entropy(0.1)
    assert joint.mutual_information("X", "Y") == pytest.approx(expected, abs=1e-12)


def test_load_discrete_joint_lexicographic_order(tmp_path):
    # first declared variable is the slowest index
    path = tmp_path / "asym.txt"
    path.write_text("var A 2\nvar B 3\nprobs\n" +
                    "\n".join(str(v / 21.0) for v in range(1, 7)) + "\n",
                    encoding="utf-8")
    joint = load_discrete_joint(path)
    assert joint.pmf.shape == (2, 3)
    assert joint.pmf[0, 2] == pytest.approx(3.0 / 21.0)
    assert joint.pmf[1, 0] == pytest.approx(4.0 / 21.0)


@pytest.mark.parametrize("content,message", [
    ("var X 2\nprobs\n0.5\n", "expected 2 probabilities"),
    ("var X 2\nprobs\n0.5\n0.25\n0.25\n", "expected 2 probabilities"),
    ("var X two\nprobs\n0.5\n0.5\n", "not an integer"),
    ("var X\nprobs\n1.0\n", ":1: expected 'var NAME SIZE'"),
    ("var X 2 3\nprobs\n0.5\n0.5\n", ":1: expected 'var NAME SIZE'"),
    ("var X 2\nvar Y 0\nprobs\n", ":2: alphabet size must be >= 1"),
    ("var X -1\nprobs\n", ":1: alphabet size must be >= 1"),
    ("vars X 2\nprobs\n0.5\n0.5\n", "unknown directive"),
    ("var X 2\n0.5\n0.5\n", "unknown directive"),
    ("probs\n1.0\n", "'probs' before any 'var'"),
    ("var X 2\nprobs\n0.5\noops\n", "bad probability"),
    ("var X 2\n", "missing 'probs'"),
])
def test_load_discrete_joint_errors(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_discrete_joint(path)
