"""Pinned outputs of the engine: ``trial_means``, role swaps and r2 clamps
for three configs over all four schemes, both pairings and two relay
powers, printed with ``repr``.  The two 8-user configs were printed by the
engine that ran one trial and one relay power at a time (scalar pair
draws, one scheduler call per interval), and the lane-batched engine must
reproduce them bit for bit.  The 40-user config, whose nearest-neighbour
pointers walk far down each user's distance order, was printed by the
lane-batched engine before its block stages moved to flat indices.

numpy evaluates ``log1p`` with CPU-specific vector code, which may round
differently in the last bit.  The values were printed with numpy 2.4 on
an x86-64 CPU with AVX-512; with another numpy or CPU, the means must
match to 1e-12 relative and the counters exactly."""

from dataclasses import replace

import pytest

from noma_rbc.core import Scheme
from noma_rbc.simulation import SimConfig, run_experiment

from helpers import BIT_EXACT

CONFIGS = {
    "iid": SimConfig(users=8, blocks=3, intervals=12, trials=2, seed=5),
    "static": SimConfig(users=8, blocks=2, intervals=12, trials=2, seed=6,
                        fading="static", neighbors="static"),
    "large": SimConfig(users=40, blocks=4, intervals=20, trials=2, seed=9),
}

# (scheme, pairing, p1_over_p0_db): (trial_means, role_swaps, r2_clamps)
PINNED = {
    "iid": {
        ('gbc', 'near-far', -10.0):
            ((22.48017959588125, 18.17598840932267), 0, 0),
        ('gbc', 'near-far', 0.0):
            ((22.48017959588125, 18.17598840932267), 0, 0),
        ('gbc', 'nearest', -10.0):
            ((20.396784967834623, 17.44830870311338), 15, 0),
        ('gbc', 'nearest', 0.0):
            ((20.396784967834623, 17.44830870311338), 15, 0),
        ('rbc-df', 'near-far', -10.0):
            ((22.944489228636794, 19.628974863898804), 0, 0),
        ('rbc-df', 'near-far', 0.0):
            ((23.244307201826405, 19.381584134323756), 0, 0),
        ('rbc-df', 'nearest', -10.0):
            ((20.96390301507962, 18.887737542333667), 15, 0),
        ('rbc-df', 'nearest', 0.0):
            ((21.067888461276183, 18.79582306625804), 14, 0),
        ('rbc-cf', 'near-far', -10.0):
            ((8.906433746715436, 9.128959663413584), 0, 0),
        ('rbc-cf', 'near-far', 0.0):
            ((12.985272318668784, 13.745559732141727), 0, 0),
        ('rbc-cf', 'nearest', -10.0):
            ((10.69181043480794, 10.64949355527809), 19, 0),
        ('rbc-cf', 'nearest', 0.0):
            ((14.81265722299363, 14.914496354799903), 14, 0),
        ('rbc-cf-dpc', 'near-far', -10.0):
            ((24.614923230719242, 21.936161350116606), 0, 0),
        ('rbc-cf-dpc', 'near-far', 0.0):
            ((29.479253909584134, 27.055693862914097), 0, 0),
        ('rbc-cf-dpc', 'nearest', -10.0):
            ((24.348397963824045, 22.209559274920778), 10, 0),
        ('rbc-cf-dpc', 'nearest', 0.0):
            ((29.016229749367366, 26.763422126720286), 7, 0),
    },
    "static": {
        ('gbc', 'near-far', -10.0):
            ((14.978190140544372, 15.781641102107452), 0, 0),
        ('gbc', 'near-far', 0.0):
            ((14.978190140544372, 15.781641102107452), 0, 0),
        ('gbc', 'nearest', -10.0):
            ((14.909492148552564, 15.54174515453805), 30, 0),
        ('gbc', 'nearest', 0.0):
            ((14.909492148552564, 15.54174515453805), 30, 0),
        ('rbc-df', 'near-far', -10.0):
            ((15.459737549664808, 16.29116550703129), 0, 0),
        ('rbc-df', 'near-far', 0.0):
            ((15.485904462342232, 16.34056322886469), 0, 0),
        ('rbc-df', 'nearest', -10.0):
            ((15.851120264913282, 15.589418633147952), 27, 0),
        ('rbc-df', 'nearest', 0.0):
            ((15.851120264913282, 15.589418633147952), 27, 0),
        ('rbc-cf', 'near-far', -10.0):
            ((5.869800629026652, 6.83205910918791), 0, 0),
        ('rbc-cf', 'near-far', 0.0):
            ((8.530781022271304, 10.864744813308704), 0, 0),
        ('rbc-cf', 'nearest', -10.0):
            ((8.228353452251161, 9.25001465812332), 33, 0),
        ('rbc-cf', 'nearest', 0.0):
            ((10.81622703690403, 13.412615421289283), 36, 0),
        ('rbc-cf-dpc', 'near-far', -10.0):
            ((19.114354002290476, 18.794815035081964), 0, 0),
        ('rbc-cf-dpc', 'near-far', 0.0):
            ((21.286896737682525, 22.35427161500206), 0, 0),
        ('rbc-cf-dpc', 'nearest', -10.0):
            ((18.82960216042316, 18.520143078947402), 16, 0),
        ('rbc-cf-dpc', 'nearest', 0.0):
            ((21.364059851177945, 23.244275189600604), 9, 0),
    },
    "large": {
        ('gbc', 'near-far', -10.0):
            ((29.75949456242921, 27.96113197746407), 0, 0),
        ('gbc', 'near-far', 0.0):
            ((29.75949456242921, 27.96113197746407), 0, 0),
        ('gbc', 'nearest', -10.0):
            ((27.0231206830669, 26.00664343749376), 17, 0),
        ('gbc', 'nearest', 0.0):
            ((27.0231206830669, 26.00664343749376), 17, 0),
        ('rbc-df', 'near-far', -10.0):
            ((31.308032443194254, 29.543111596633942), 0, 0),
        ('rbc-df', 'near-far', 0.0):
            ((31.126311580838614, 29.786947435353873), 0, 0),
        ('rbc-df', 'nearest', -10.0):
            ((27.814996832522905, 26.78212228767061), 10, 0),
        ('rbc-df', 'nearest', 0.0):
            ((27.814996832522905, 26.78212228767061), 10, 0),
        ('rbc-cf', 'near-far', -10.0):
            ((15.637151278015457, 16.801024526610597), 0, 0),
        ('rbc-cf', 'near-far', 0.0):
            ((21.80059294674186, 22.62975997851242), 0, 0),
        ('rbc-cf', 'nearest', -10.0):
            ((22.94616902568001, 22.964985608906698), 18, 0),
        ('rbc-cf', 'nearest', 0.0):
            ((25.570455616811156, 25.633141076239063), 15, 0),
        ('rbc-cf-dpc', 'near-far', -10.0):
            ((40.38795669713457, 37.663854843144804), 0, 0),
        ('rbc-cf-dpc', 'near-far', 0.0):
            ((46.096871768813756, 44.780631768060466), 0, 0),
        ('rbc-cf-dpc', 'nearest', -10.0):
            ((41.18502765933979, 39.90142462162676), 9, 0),
        ('rbc-cf-dpc', 'nearest', 0.0):
            ((43.92989294612743, 43.10077095061957), 12, 0),
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_engine_reproduces_pinned_outputs(name):
    results = run_experiment(replace(CONFIGS[name], p1_over_p0_db=(-10.0, 0.0),
                                     schemes=tuple(Scheme), pairings=("near-far", "nearest")))[0]
    got = {(r.scheme, r.pairing, r.p1_over_p0_db): (r.trial_means, r.role_swaps, r.r2_clamps)
           for r in results}
    assert got.keys() == PINNED[name].keys()
    for key, (means, swaps, clamps) in PINNED[name].items():
        assert got[key][0] == (means if BIT_EXACT else pytest.approx(means, rel=1e-12)), key
        assert got[key][1:] == (swaps, clamps), key
