"""Metamorphic tests of ``run_experiment``: relations between runs that must
hold whatever the numbers are.  Lanes never interact and a trial's draws
depend on the master seed and the trial index only, so a config's results
are bit-equal when its tasks are planned for any ``--parallel``, when its
schemes are permuted or run one at a time, when each pairing or relay-power
point runs alone, and its trials are the first ones of a longer run.

Configs are small: 4-12 users, 1-3 blocks, 1-4 trials, at most 6
intervals, any schemes in any order, any pairings, 1-3 relay powers and
every fading and neighbour mode.  Every task runs in this process.  The
search is derandomized, so every run tries the same configs."""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from noma_rbc import simulation
from noma_rbc.core import Scheme
from noma_rbc.config import FADING_MODES, NEIGHBOR_MODES, PAIRINGS
from noma_rbc.simulation import SimConfig, run_experiment


@st.composite
def configs(draw):
    users = draw(st.integers(4, 12))
    order = draw(st.permutations(list(Scheme)))
    return SimConfig(
        users=users,
        blocks=draw(st.integers(1, min(3, users // 2))),
        intervals=draw(st.integers(1, 6)),
        trials=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2 ** 32)),
        p1_over_p0_db=tuple(draw(st.lists(st.integers(-30, 30).map(float), min_size=1,
                                          max_size=3, unique=True))),
        schemes=tuple(order[:draw(st.integers(1, len(order)))]),
        pairings=tuple(draw(st.lists(st.sampled_from(PAIRINGS), min_size=1, max_size=2,
                                     unique=True))),
        fading=draw(st.sampled_from(FADING_MODES)),
        neighbors=draw(st.sampled_from(NEIGHBOR_MODES)),
    )


def rows(config, results=None):
    """The results of ``config``, run serially unless given, keyed by
    (scheme, pairing, relay power)."""
    results = run_experiment(config)[0] if results is None else results
    return {(r.scheme, r.pairing, r.p1_over_p0_db): r for r in results}


def subset(results, **keep):
    """The rows of ``results`` whose scheme, pairing or relay power is the
    one given."""
    at = {"scheme": 0, "pairing": 1, "p1_over_p0_db": 2}
    return {k: r for k, r in results.items() if all(k[at[f]] == v for f, v in keep.items())}


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs(), permutation=st.permutations(range(4)))
def test_results_are_the_same_however_the_experiment_is_cut(config, permutation):
    with pytest.MonkeyPatch.context() as mp:
        # plan for up to five workers, then run every task here in turn
        mp.setattr(simulation, "usable_cpus", lambda: 5)
        mp.setattr(simulation, "effective_parallel", lambda parallel, n_tasks: 1)
        serial = run_experiment(config)[0]
        for parallel in range(2, 6):
            assert run_experiment(config, parallel)[0] == serial, parallel
    whole = rows(config, serial)
    schemes = config.schemes
    shuffled = tuple(schemes[k] for k in permutation if k < len(schemes))
    assert rows(replace(config, schemes=shuffled)) == whole
    for scheme in schemes:
        alone = rows(replace(config, schemes=(scheme,)))
        assert alone == subset(whole, scheme=scheme.label), scheme
    for pairing in config.pairings:
        alone = rows(replace(config, pairings=(pairing,)))
        assert alone == subset(whole, pairing=pairing), pairing
    for db in config.p1_over_p0_db:
        alone = rows(replace(config, p1_over_p0_db=(db,)))
        assert alone == subset(whole, p1_over_p0_db=db), db
    # the first T trials of a longer run are a T-trial run's
    longer = run_experiment(replace(config, trials=config.trials + 1))[0]
    assert [r.trial_means[:-1] for r in longer] == [r.trial_means for r in serial]
