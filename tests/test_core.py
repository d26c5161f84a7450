import math

import numpy as np
import pytest

from noma_rbc import oracle
from noma_rbc.config import TABLE, check_value, coerce
from noma_rbc.core import (
    CF_TERMS,
    ChannelParams,
    CompressionNoise,
    LinkGains,
    PowerSplit,
    RatePair,
    Scheme,
    is_degraded_ordered,
)
from noma_rbc.discrete import DiscreteJoint, dmc_bound_rates

from helpers import rng_for


def test_degraded_ordering_examples():
    params = ChannelParams(p0=10.0, n1=1.0, n2=1.0)
    assert is_degraded_ordered(8.0, 1.0, params)
    assert is_degraded_ordered(1.0, 1.0, params)  # equality counts
    assert not is_degraded_ordered(1.0, 8.0, params)


def test_degraded_ordering_uses_noise_ratio():
    assert is_degraded_ordered(2.0, 3.0, ChannelParams(p0=1.0, n1=1.0, n2=2.0))
    assert not is_degraded_ordered(2.0, 3.0, ChannelParams(p0=1.0, n1=2.0, n2=1.0))


def test_power_split_is_exact_partition():
    rng = rng_for(7)
    for alpha in np.concatenate([[0.0, 1.0, 0.5, 0.2], rng.uniform(size=1000)]):
        split = PowerSplit(float(alpha))
        assert split.alpha + split.alpha_bar == 1.0


@pytest.mark.parametrize("bad", [
    lambda: LinkGains(-1.0, 1.0),
    lambda: LinkGains(1.0, math.nan),
    lambda: LinkGains(1.0, 1.0, math.inf),
    lambda: ChannelParams(p0=0.0),
    lambda: ChannelParams(p0=1.0, p1=-1.0),
    lambda: ChannelParams(p0=1.0, n1=0.0),
    lambda: ChannelParams(p0=1.0, n2=-2.0),
    lambda: PowerSplit(-0.1),
    lambda: PowerSplit(1.1),
    lambda: PowerSplit(math.nan),
    lambda: CompressionNoise(0.0),
    lambda: CompressionNoise(-1.0),
    lambda: CompressionNoise(math.inf),
    lambda: RatePair(-1e-9, 0.0),
    lambda: RatePair(0.0, math.nan),
])
def test_invalid_values_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_scheme_labels_round_trip():
    schemes = TABLE["simulate"]["schemes"]
    for scheme in Scheme:
        assert coerce(schemes, scheme.label) == (scheme,)
    assert coerce(schemes, " GBC ,rbc-cf") == (Scheme.GBC, Scheme.RBC_CF)
    with pytest.raises(ValueError, match="schemes lists 'amplify', which is not one of"):
        check_value(schemes, coerce(schemes, "amplify"))
    assert Scheme.RBC_CF.uses_compression
    assert not Scheme.RBC_DF.uses_compression


def test_both_evaluators_read_the_cf_terms_from_one_table():
    # the oracle checks the table's triples under RBC-CF
    assert [sets for _, _, sets in oracle._SCHEME_TERMS[Scheme.RBC_CF]] == \
        [CF_TERMS[key] for key in ("r1", "cutset", "forward", "loss")]
    # and the discrete compress-forward bounds are the table's terms, on
    # joints with no structure to hide a wrong set
    names = ("U", "V", "X1", "Y1", "Y1HAT", "Y2")
    for seed in range(20):
        pmf = rng_for(seed).random((2, 3, 2, 2, 3, 2))
        joint = DiscreteJoint(names=names, pmf=pmf / pmf.sum())
        mi = {key: joint.mutual_information(*sets) for key, sets in CF_TERMS.items()}
        bounds = dmc_bound_rates(joint, "compress-forward")
        assert bounds.r1_bound == mi["r1"]
        assert bounds.r2_bound == min(mi["cutset"], mi["forward"] - mi["loss"])
