import collections
import itertools
import math
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from noma_rbc import rates, simulation
from noma_rbc.core import ChannelParams, PowerSplit, Scheme
from noma_rbc.rates import rate_kernel
from noma_rbc.simulation import (
    AVG_RATE_FLOOR,
    AVG_RATE_INIT,
    SECTOR_HALF_ANGLE,
    PairPathGains,
    SimConfig,
    draw_bs_gains,
    generate_topology,
    mean_radius_analytic,
    pair_fading,
    path_gain,
    plan_tasks,
    positions_xy,
    rayleigh_power,
    run_experiment,
    run_lanes,
    schedule_lanes,
    usable_cpus,
    write_results_csv,
)
from noma_rbc.simulation import BS_CHUNK_INTERVALS

from helpers import (BIT_EXACT, near_far_reference, nearest_reference, rng_for, run_lanes_recorded,
                     run_trial, split_groups)

SMALL = SimConfig(users=8, blocks=2, intervals=10, trials=2, seed=5)


def test_config_validation_collects_all_errors():
    bad = SimConfig(users=3, blocks=2, edge_radius_m=10.0, inner_radius_m=20.0,
                    tau=1.5, alpha=2.0, intervals=0, trials=0, pairings=("x",),
                    fading="y", neighbors="z")
    errors = "\n".join(bad.validate())
    for needle in ("users", "edge_radius_m", "tau", "alpha", "intervals",
                   "trials", "pairing", "fading", "neighbors"):
        assert needle in errors
    assert SMALL.validate() == []


def test_powers_follow_db_settings():
    cfg = SimConfig(edge_snr_db=10.0, p1_over_p0_db=(-10.0,))
    assert cfg.p0 == pytest.approx(10.0)
    assert cfg.relay_powers[0] == pytest.approx(1.0)
    cfg = SimConfig(edge_snr_db=0.0, p1_over_p0_db=(0.0, 10.0))
    assert cfg.p0 == 1.0
    assert cfg.relay_powers == (1.0, 10.0)


def test_topology_support_and_mean_radius():
    cfg = replace(SimConfig(), users=100_000)
    polar = generate_topology(cfg, rng_for(123))
    radius, angle = polar[:, 0], polar[:, 1]
    assert np.all((radius >= cfg.inner_radius_m) & (radius <= cfg.edge_radius_m))
    assert np.all((angle >= -SECTOR_HALF_ANGLE) & (angle <= SECTOR_HALF_ANGLE))
    analytic = mean_radius_analytic(cfg)
    assert analytic == pytest.approx((2.0 / 3.0) * (500.0 ** 3 - 50.0 ** 3) / (500.0 ** 2 - 50.0 ** 2))
    assert abs(radius.mean() - analytic) / analytic < 0.01


def test_topology_seed_determinism():
    cfg = SimConfig()
    a = generate_topology(cfg, rng_for(9))
    b = generate_topology(cfg, rng_for(9))
    c = generate_topology(cfg, rng_for(10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_positions_xy_round_trip():
    polar = np.array([[100.0, 0.0], [200.0, math.pi / 4]])
    xy = positions_xy(polar)
    assert np.allclose(np.hypot(xy[:, 0], xy[:, 1]), polar[:, 0])


def test_rayleigh_power_unit_mean():
    draws = rayleigh_power(rng_for(77), 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.005


def test_path_gain_anchors():
    cfg = SimConfig()  # De = 500 m, gamma = 3
    assert path_gain(500.0, cfg) == 1.0
    assert path_gain(250.0, cfg) == 8.0  # midpoint relay of the reference setting


def test_pair_gain_model():
    cfg = SimConfig()
    dist = np.array([[0.0, 250.0], [250.0, 0.0]])
    draws = PairPathGains(dist[None], cfg)(0, 0, 1) * pair_fading(rng_for(5), 25_000, 4).ravel()
    # independent Rayleigh fading on top of the distance path gain
    assert abs(draws.mean() - 8.0) / 8.0 < 0.02
    assert np.array_equal(pair_fading(rng_for(3), 2, 4), pair_fading(rng_for(3), 2, 4))


def test_pair_gains_equal_one_scalar_draw_per_served_pair():
    # the (intervals, blocks, 2) draw is the per-pair scalar draw order,
    # real then imaginary part, block by block; values match bit for bit
    # (numpy's array square differs from the scalar one on a few draws in
    # 10^4, hence the count)
    rng = rng_for(8)
    scalar = [np.abs((rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)) ** 2
              for _ in range(12_500 * 4)]
    assert pair_fading(rng_for(8), 12_500, 4).ravel().tolist() == scalar
    cfg = replace(SimConfig(), path_loss_exp=3.7)
    dist = np.triu(rng_for(9).uniform(1.0, 900.0, size=(30, 30)), 1)
    dist += dist.T  # distances are symmetric
    gains = PairPathGains(dist[None], cfg)
    assert all(gains(0, i, j) == path_gain(dist[i, j], cfg)
               for i in range(30) for j in range(30) if i != j)


def test_symmetric_pair_path_gain_equals_the_per_element_table():
    # each pair's gain is one scalar power per (i, j), as computed before,
    # on distance matrices of drawn topologies, whichever of (i, j) and
    # (j, i) is looked up first
    users = np.arange(30)
    for seed, gamma in ((1, 3.0), (2, 3.7), (3, 2.0), (4, 0.0)):
        cfg = SimConfig(users=30, path_loss_exp=gamma)
        xy = positions_xy(generate_topology(cfg, rng_for(seed)))
        dist = np.sqrt(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2))
        d_safe = dist / cfg.edge_radius_m
        np.fill_diagonal(d_safe, 1.0)
        per_element = np.array([[x ** -gamma for x in row] for row in d_safe.tolist()])
        lower_first = PairPathGains(np.stack((dist, dist)), cfg)
        lower_first(1, users[:, None], users[:users.size // 2])
        table = lower_first(np.array([[0], [1]])[:, :, None], users[:, None], users)
        assert table.tolist() == [per_element.tolist()] * 2


def test_pair_path_gains_are_computed_for_looked_up_pairs_only():
    dist = np.triu(rng_for(11).uniform(1.0, 900.0, size=(2, 6, 6)), 1)
    dist += dist.transpose(0, 2, 1)
    gains = PairPathGains(dist, SimConfig())
    assert np.isnan(gains.table).sum() == 2 * 6 * 5  # only the diagonal is known
    gains(np.array([[0], [1]]), np.array([[1, 3], [2, 2]]), np.array([[4, 5], [0, 0]]))
    known = [tuple(k) for k in np.argwhere(~np.isnan(gains.table)) if k[1] != k[2]]
    assert known == [(0, 1, 4), (0, 3, 5), (1, 2, 0)]


@pytest.mark.parametrize("intervals", [1, BS_CHUNK_INTERVALS - 1, BS_CHUNK_INTERVALS,
                                       BS_CHUNK_INTERVALS + 1, 2 * BS_CHUNK_INTERVALS + 3])
def test_chunked_bs_draws_equal_one_draw_per_interval(intervals):
    # chunk after chunk, as the engine draws them, against one
    # rayleigh_power call per interval from the same stream: bit for bit
    cfg = SimConfig(users=6, blocks=3)
    radii = np.linspace(cfg.inner_radius_m, cfg.edge_radius_m, cfg.users)
    pl = path_gain(radii, cfg)[:, None]
    for seed in range(100):
        rng = rng_for(seed)
        chunked = np.concatenate([
            draw_bs_gains(radii, cfg, rng, min(BS_CHUNK_INTERVALS, intervals - first))
            for first in range(0, intervals, BS_CHUNK_INTERVALS)])
        rng = rng_for(seed)
        per_interval = np.stack([rayleigh_power(rng, (cfg.users, cfg.blocks)) * pl
                                 for _ in range(intervals)])
        assert chunked.tolist() == per_interval.tolist()


@pytest.mark.parametrize("pairing, fading, neighbors", [
    ("near-far", "iid", "recompute"), ("nearest", "iid", "recompute"),
    ("nearest", "static", "static"),
])
def test_lane_results_do_not_depend_on_the_chunk_size(monkeypatch, pairing, fading, neighbors):
    cfg = replace(SMALL, pairings=(pairing,), fading=fading, neighbors=neighbors, intervals=20,
                  p1_over_p0_db=(-10.0, 0.0))
    for scheme in Scheme:
        runs = []
        for chunk in (1, 7, BS_CHUNK_INTERVALS):
            monkeypatch.setattr(simulation, "BS_CHUNK_INTERVALS", chunk)
            runs.append(run_lanes_recorded(replace(cfg, schemes=(scheme,)), range(2)))
        for other in runs[1:]:
            assert other.mean_sum_rate.tolist() == runs[0].mean_sum_rate.tolist()
            assert np.array_equal(other.role_swaps, runs[0].role_swaps)
            assert np.array_equal(other.r2_clamps, runs[0].r2_clamps)
            assert np.array_equal(other.assignments, runs[0].assignments)


def test_edge_user_sees_configured_snr():
    cfg = SimConfig(users=2, blocks=1, edge_snr_db=10.0)
    rng = rng_for(31)
    radii = np.array([500.0, 500.0])
    gains = np.concatenate([draw_bs_gains(radii, cfg, rng).ravel() for _ in range(200_000)])
    snr = gains.mean() * cfg.p0
    assert abs(snr - 10.0) / 10.0 < 0.01


def test_degenerate_trial_equals_direct_computation():
    cfg = SimConfig(users=2, blocks=1, intervals=1, trials=1, seed=42,
                    schemes=(Scheme.RBC_DF,), p1_over_p0_db=(0.0,))
    result = run_trial(cfg, 0, keep_assignments=True)

    # replay the trial's three child streams by hand
    ss = np.random.SeedSequence(42, spawn_key=(0,))
    topo_ss, fading_ss, pair_ss = ss.spawn(3)
    polar = generate_topology(cfg, np.random.Generator(np.random.Philox(topo_ss)))
    gains = draw_bs_gains(polar[:, 0], cfg, np.random.Generator(np.random.Philox(fading_ss)))[0]
    strong, weak = split_groups(gains[:, 0])
    relay, second = int(strong[0]), int(weak[0])
    xy = positions_xy(polar)
    d12 = float(np.hypot(*(xy[relay] - xy[second])))
    g12 = float(path_gain(d12, cfg) * rayleigh_power(
        np.random.Generator(np.random.Philox(pair_ss))))
    params = ChannelParams(p0=cfg.p0, p1=cfg.relay_powers[0], n1=1.0, n2=1.0)
    r1, r2, _, _ = rate_kernel(Scheme.RBC_DF, gains[relay, 0], gains[second, 0], g12, params,
                               cfg.alpha)
    assert result.assignments == (((relay, second),),)
    assert result.mean_sum_rate == pytest.approx(r1 + r2, rel=1e-12)


def _trial_reference(config, t):
    """Trial ``t`` of ``config``'s one pairing by the rules of the
    simulation module's docstring in plain Python, one lane and one BS draw
    at a time: per (scheme, relay-power point), in that order, the mean sum
    rate, the role swaps, the r2 clamps and the (intervals, B, 2) served
    (relay, second).

    The trial draws from the children (t, k), k = 0, 1, 2, of the master
    seed: the user positions, uniform by area over the 120-degree annular
    sector, radii then angles, and from them the distances and the gain
    estimates (d / De)^(-gamma); per interval the (K, B) real, then
    imaginary, parts of the BS fading, which scale the users' path gains
    (one draw for every interval under static fading); per interval, when
    a scheme uses the relay, the (B, 2) inter-user fading, real then
    imaginary part block by block.  Each interval pairs the users through
    the pairing's plain reference, serves each pair on its true gains, the
    inter-user gain being the pair's path gain times its block's fading,
    sums r1 + r2 in block order and updates the PF ledger by (1 - tau) avg
    + tau served, floored at ``AVG_RATE_FLOOR``."""
    n_users, n_blocks = config.users, config.blocks
    rng_topo, rng_fading, rng_pair = (
        np.random.Generator(np.random.Philox(child))
        for child in np.random.SeedSequence(config.seed, spawn_key=(t,)).spawn(3))
    r0, edge, gamma = config.inner_radius_m, config.edge_radius_m, config.path_loss_exp
    radius = np.sqrt(r0 * r0 + rng_topo.uniform(size=n_users) * (edge * edge - r0 * r0))
    angle = rng_topo.uniform(-math.pi / 3.0, math.pi / 3.0, size=n_users)
    x, y = (radius * np.cos(angle)).tolist(), (radius * np.sin(angle)).tolist()
    dist = np.array([[math.sqrt((x[i] - x[j]) * (x[i] - x[j]) + (y[i] - y[j]) * (y[i] - y[j]))
                      for j in range(n_users)] for i in range(n_users)])
    self_pair = np.eye(n_users, dtype=bool)
    est = np.where(self_pair, 0.0, (np.where(self_pair, 1.0, dist) / edge) ** -gamma)
    path = (radius / edge) ** -gamma
    uses_relay = any(scheme.uses_relay for scheme in config.schemes)
    bs, pair = [], []
    for interval in range(config.intervals):
        if config.fading == "iid" or interval == 0:
            re = rng_fading.standard_normal((n_users, n_blocks))
            im = rng_fading.standard_normal((n_users, n_blocks))
            gains = np.abs((re + 1j * im) / np.sqrt(2.0)) ** 2 * path[:, None]
        bs.append(gains)
        if uses_relay:
            f = np.abs((rng_pair.standard_normal((n_blocks, 2)) / np.sqrt(2.0)).view(complex))
            pair.append([float(v) ** 2 for v in f[:, 0]])

    lanes, split = [], PowerSplit(config.alpha)
    for scheme, p1 in itertools.product(config.schemes, config.relay_powers):
        params = ChannelParams(p0=config.p0, p1=p1, n1=1.0, n2=1.0)
        avg = [AVG_RATE_INIT] * n_users
        total, swaps, clamps, pairs = 0.0, 0, 0, []
        for interval, gains in enumerate(bs):
            lane = ([(scheme, 0, 1)], gains[None], np.array([avg]), est[None])
            if config.pairings[0] == "near-far":
                served, counts = near_far_reference(*lane, [0], [p1], params, split)
            else:
                served, counts = nearest_reference(*lane, dist[None], [0], [p1], params, split,
                                                   config.neighbors == "static")
            swaps += counts[-1]
            pairs.append(served[0])
            rate, sum_rate = [0.0] * n_users, 0.0
            for b, (relay, second) in enumerate(served[0].tolist()):
                g12 = math.pow(dist[relay, second] / edge, -gamma) * pair[interval][b] \
                    if uses_relay else 0.0
                r1, r2, _, clamped = rate_kernel(scheme, gains[relay, b], gains[second, b], g12,
                                                 params, config.alpha)
                rate[relay], rate[second] = float(r1), float(r2)
                sum_rate += rate[relay] + rate[second]
                clamps += bool(clamped)
            total += sum_rate
            avg = [max((1.0 - config.tau) * a + config.tau * r, AVG_RATE_FLOOR)
                   for a, r in zip(avg, rate)]
        lanes.append((total / config.intervals, swaps, clamps, np.stack(pairs)))
    return lanes


def test_lanes_equal_the_plain_trial_reference(monkeypatch):
    # small configs over both pairings, both fading and neighbour modes and
    # alpha 0, 0.2 and 1, K from 2B; half draw the BS fading in chunks of 3
    # intervals, so that chunks end inside a run
    modes = [("near-far", "iid", "recompute"), ("near-far", "static", "recompute"),
             ("nearest", "iid", "recompute"), ("nearest", "static", "recompute"),
             ("nearest", "iid", "static"), ("nearest", "static", "static")]
    rng = rng_for(139)
    swaps = clamps = 0
    for k in range(30):
        pairing, fading, neighbors = modes[k % len(modes)]
        blocks = int(rng.integers(1, 4))
        order = rng.permutation(len(Scheme))[:int(rng.integers(1, len(Scheme) + 1))]
        cfg = SimConfig(users=int(rng.integers(2 * blocks, 2 * blocks + 4)), blocks=blocks,
                        intervals=int(rng.integers(4, 9)), trials=3,
                        seed=int(rng.integers(2 ** 32)), alpha=(0.0, 0.2, 1.0)[k // 6 % 3],
                        tau=float(rng.choice([0.01, 0.5])), fading=fading, neighbors=neighbors,
                        schemes=tuple(list(Scheme)[i] for i in order), pairings=(pairing,),
                        p1_over_p0_db=tuple(rng.choice([-10.0, 0.0, 10.0],
                                                       size=int(rng.integers(1, 3)),
                                                       replace=False).tolist()),
                        cross_check=bool(k % 2))
        monkeypatch.setattr(simulation, "BS_CHUNK_INTERVALS", (3, BS_CHUNK_INTERVALS)[k // 2 % 2])
        first = int(rng.integers(0, 2))
        trials = range(first, first + int(rng.integers(1, 3)))
        got = run_lanes_recorded(cfg, trials)
        n_points = len(cfg.p1_over_p0_db)
        for position, t in enumerate(trials):
            for c_s, (mean, n_swaps, n_clamps, pairs) in enumerate(_trial_reference(cfg, t)):
                c, s = divmod(c_s, n_points)
                lane = (c * len(trials) + position) * n_points + s
                assert np.array_equal(got.assignments[:, lane], pairs), (k, t, c, s)
                assert got.mean_sum_rate[lane] == \
                    (mean if BIT_EXACT else pytest.approx(mean, rel=1e-12)), (k, t, c, s)
                assert (got.role_swaps[lane], got.r2_clamps[lane]) == (n_swaps, n_clamps)
                swaps, clamps = swaps + n_swaps, clamps + n_clamps
    assert swaps >= 200 and clamps >= 5, (swaps, clamps)  # these configs hold 532 and 12


@pytest.mark.parametrize("seed, trials, trial", [
    (0, 1, 0), (5, 2, 1), (11, 3, 0), (42, 50, 49), (2 ** 63 + 7, 1000, 517),
])
def test_trial_streams_are_the_children_of_the_spawned_trial_seed(seed, trials, trial):
    # trial t draws what child k of SeedSequence(seed).spawn(T)[t] draws,
    # whatever T > t: the derivation the pinned outputs were made with
    spawned = np.random.SeedSequence(seed).spawn(trials)[trial].spawn(3)
    streams = simulation._trial_streams(seed, trial)
    assert len(streams) == 3
    for rng, child in zip(streams, spawned):
        expected = np.random.Generator(np.random.Philox(child))
        assert rng.random(8).tolist() == expected.random(8).tolist()
        assert rng.standard_normal(8).tolist() == expected.standard_normal(8).tolist()


def test_trial_reproducibility_and_fading_policies():
    a = run_trial(SMALL, 1)
    b = run_trial(SMALL, 1)
    c = run_trial(SMALL, 2)
    assert a.mean_sum_rate == b.mean_sum_rate
    assert a.mean_sum_rate != c.mean_sum_rate
    static = run_trial(replace(SMALL, fading="static"), 1)
    assert static.mean_sum_rate != a.mean_sum_rate


def test_trial_rejects_invalid_config():
    with pytest.raises(ValueError, match="invalid config"):
        run_trial(replace(SMALL, users=3), 1)


@pytest.mark.parametrize("scheme", [Scheme.RBC_DF, Scheme.RBC_CF, Scheme.RBC_CF_DPC])
@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_per_pair_dominance_cross_check_mode(scheme, pairing):
    # the simulator asserts r1/r2 dominance against the GBC baseline per
    # served pair; any violation raises from inside the run
    cfg = replace(SMALL, schemes=(scheme,), pairings=(pairing,), intervals=25, cross_check=True)
    run_trial(cfg, 3)


def test_run_experiment_row_counts_and_gbc_sweep_invariance():
    sweep = [-10.0, 0.0]
    results = run_experiment(replace(
        SMALL, p1_over_p0_db=tuple(sweep),
        schemes=(Scheme.GBC, Scheme.RBC_DF),
        pairings=("near-far", "nearest"),
    ))[0]
    assert len(results) == len(sweep) * 2 * 2
    gbc = [r for r in results if r.scheme == "gbc" and r.pairing == "near-far"]
    # GBC ignores the relay power entirely
    assert gbc[0].mean_sum_rate == gbc[1].mean_sum_rate
    assert gbc[0].trial_means == gbc[1].trial_means
    for r in results:
        assert r.trials == SMALL.trials and r.intervals == SMALL.intervals
        assert r.stderr >= 0.0
        assert len(r.trial_means) == SMALL.trials


def test_run_experiment_stderr_matches_trials():
    results = run_experiment(replace(SMALL, trials=4))[0]
    r = results[0]
    means = np.array(r.trial_means)
    assert r.mean_sum_rate == pytest.approx(means.mean(), rel=1e-12)
    assert r.stderr == pytest.approx(means.std(ddof=1) / 2.0, rel=1e-12)


ALL_PAIRINGS = ("near-far", "nearest")
# every scheme under both pairings at two relay-power points
FULL = replace(SMALL, p1_over_p0_db=(-10.0, 0.0), schemes=tuple(Scheme), pairings=ALL_PAIRINGS)


def test_parallel_degree_does_not_change_results():
    serial = run_experiment(FULL)[0]
    parallel = run_experiment(FULL, parallel=2)[0]
    assert len(serial) == 16
    assert [r.trial_means for r in serial] == [r.trial_means for r in parallel]
    assert serial == parallel


def test_relay_power_row_is_the_same_alone_or_inside_a_sweep():
    # GBC runs one lane per trial and repeats it over the points
    for scheme in (Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF):
        sweep = run_experiment(replace(SMALL, p1_over_p0_db=(-10.0, -3.0, 5.0),
                                       schemes=(scheme,), pairings=ALL_PAIRINGS))[0]
        for pairing in ALL_PAIRINGS:
            alone = run_experiment(replace(SMALL, p1_over_p0_db=(-3.0,), schemes=(scheme,),
                                           pairings=(pairing,)))[0][0]
            inside = [r for r in sweep if r.pairing == pairing and r.p1_over_p0_db == -3.0]
            assert inside == [alone]


def test_first_trials_do_not_depend_on_the_trial_count():
    # a trial's streams depend on the master seed and its index only, and
    # trials are lanes that never interact
    cfg = replace(FULL, schemes=(Scheme.RBC_CF_DPC,))
    short = run_experiment(replace(cfg, trials=2))[0]
    longer = run_experiment(replace(cfg, trials=3))[0]
    for a, b in zip(short, longer):
        assert b.trial_means[:2] == a.trial_means


def test_lanes_match_one_lane_trials():
    cfg = replace(SMALL, schemes=(Scheme.RBC_CF,), pairings=("nearest",), neighbors="static",
                  p1_over_p0_db=(-10.0, 0.0))
    lanes = run_lanes(cfg, range(2))
    for t in range(2):
        for s, db in enumerate([-10.0, 0.0]):
            one = run_trial(replace(cfg, p1_over_p0_db=(db,)), t)
            assert lanes.mean_sum_rate[2 * t + s] == one.mean_sum_rate
            assert lanes.role_swaps[2 * t + s] == one.role_swaps


@pytest.mark.parametrize("name", ["p1_over_p0_db", "schemes", "pairings"])
def test_run_experiment_rejects_an_empty_list(name):
    with pytest.raises(ValueError, match=f"{name} must list at least one value"):
        run_experiment(replace(SMALL, **{name: ()}))


def test_run_lanes_names_an_empty_trial_range():
    with pytest.raises(ValueError, match="trials must not be empty"):
        run_lanes(SMALL, range(0))


class RecordingPool:
    """Stands in for the process pool: records each pool's ``max_workers``,
    runs its initializer here and runs each submitted call here at once."""

    created: list = []

    def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
        RecordingPool.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def allow_cpus(monkeypatch, n):
    """Makes the process's affinity set hold ``n`` CPUs, on any platform."""
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def recording_pool(monkeypatch):
    RecordingPool.created = []
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    # the initializer sets it here
    monkeypatch.setattr(simulation, "_pool_claims", None)
    allow_cpus(monkeypatch, 6)
    return RecordingPool.created


def test_one_pool_per_experiment(recording_pool):
    results = run_experiment(FULL, parallel=2)[0]
    assert recording_pool == [1]  # this process is the other worker
    assert results == run_experiment(FULL)[0]
    assert recording_pool == [1]  # the serial run starts no pool


@pytest.mark.parametrize("parallel, trials, schemes, workers", [
    (64, 2, 4, 6),   # clamped to the usable CPUs
    (64, 2, 1, 2),   # clamped to the task count: one task per trial
    (5, 10, 4, 5),   # 2 chunks x 4 schemes = 8 tasks
    (3, 1, 2, 2),    # one trial: one task per scheme
    (1, 4, 4, None),
])
def test_parallel_degree_is_clamped(recording_pool, parallel, trials, schemes, workers):
    cfg = replace(SMALL, trials=trials, intervals=2)
    _, _, used = run_experiment(replace(cfg, schemes=tuple(Scheme)[:schemes]), parallel=parallel)
    # this process is one of the workers, the pool forks the others
    assert recording_pool == ([] if workers is None else [workers - 1])
    assert used == (workers or 1)


def test_usable_cpus_are_the_affinity_set_where_the_platform_has_one(monkeypatch):
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 6)
    allow_cpus(monkeypatch, 1)  # as under ``taskset -c 0``
    assert usable_cpus() == 1
    monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
    assert usable_cpus() == 6


def test_the_run_plans_for_the_degree_that_runs(recording_pool, monkeypatch):
    # two usable CPUs: --parallel 16 plans the tasks of --parallel 2, not
    # 16 tasks for two workers
    allow_cpus(monkeypatch, 2)
    assert run_experiment(FULL, parallel=16) == run_experiment(FULL, parallel=2)
    assert recording_pool == [1, 1]


def test_the_size_check_probes_the_task_with_the_most_trials(recording_pool, monkeypatch):
    # three trials at degree 2 plan trials 0 and 1-2, so the (T, K, K)
    # distances to probe are two trials', not the first task's one
    allow_cpus(monkeypatch, 2)
    cfg = replace(SMALL, trials=3, schemes=(Scheme.GBC,))
    assert [task.trials for task in plan_tasks(cfg, 2)] == [range(0, 1), range(1, 3)]
    empty = np.empty

    def one_trial_of_distances(shape, dtype=float, **kwargs):
        # as a host whose memory holds one trial's (K, K) distances, no more
        if math.prod(shape) * np.dtype(dtype).itemsize > cfg.users ** 2 * 8:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, dtype, **kwargs)
    monkeypatch.setattr(np, "empty", one_trial_of_distances)
    with pytest.raises(MemoryError, match=re.escape("(2, 8, 8)")):
        run_experiment(cfg, parallel=2)
    assert recording_pool == []  # refused before any worker starts


def task_log(path):
    """(task index in ``plan_tasks`` order, pid) per line of ``path``."""
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


def logging_run_lanes(monkeypatch, path, config, parallel, before=None):
    """Replaces ``run_lanes`` with one that appends the index of its task
    and the pid that runs it to ``path``, then calls ``before(pid)`` and
    runs the task.  Forked pool workers inherit the replacement."""
    index = {(t.config.schemes, t.config.pairings, t.trials): k
             for k, t in enumerate(plan_tasks(config, parallel))}
    original = simulation.run_lanes

    def run_lanes(task_config, trials):
        key = (task_config.schemes, task_config.pairings, trials)
        with open(path, "a", encoding="ascii") as fh:
            fh.write(f"{index[key]} {os.getpid()}\n")
        if before is not None:
            before(os.getpid())
        return original(task_config, trials)
    monkeypatch.setattr(simulation, "run_lanes", run_lanes)


forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="pool workers see the replaced run_lanes only when forked")


@forked
@pytest.mark.parametrize("parallel", [2, 4])  # 4: more processes than a small host has CPUs
def test_this_process_and_the_pool_run_every_task_once(tmp_path, monkeypatch, parallel):
    serial = run_experiment(FULL)[0]
    allow_cpus(monkeypatch, parallel)
    log = tmp_path / "tasks.log"
    logging_run_lanes(monkeypatch, log, FULL, parallel)
    assert run_experiment(FULL, parallel=parallel)[0] == serial
    ran = task_log(log)
    # a lost claim would run a task twice or never
    assert sorted(k for k, _ in ran) == list(range(len(plan_tasks(FULL, parallel))))
    assert os.getpid() in {pid for _, pid in ran}
    assert len({pid for _, pid in ran}) <= parallel
    assert multiprocessing.active_children() == []


def wait_for(condition, seconds=30.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


@forked
@pytest.mark.parametrize("failing", ["a pool worker", "this process"])
def test_a_failing_task_stops_every_process_claiming(tmp_path, monkeypatch, failing):
    # Each process starts one task.  The failing one raises once the other
    # has started; the other finishes its task well after the failure, then
    # must find no task left to claim, although two of the four are.
    allow_cpus(monkeypatch, 2)
    log, failed = tmp_path / "tasks.log", tmp_path / "failed"
    parent = os.getpid()

    def before(pid):
        if (pid == parent) == (failing == "this process"):
            wait_for(lambda: len({p for _, p in task_log(log)}) == 2)
            failed.touch()
            raise RuntimeError(f"task failed in {failing}")
        wait_for(failed.exists)
        time.sleep(0.2)
    logging_run_lanes(monkeypatch, log, FULL, 2, before)
    assert len(plan_tasks(FULL, 2)) == 4
    with pytest.raises(RuntimeError, match=f"task failed in {failing}"):
        run_experiment(FULL, parallel=2)
    ran = task_log(log)
    assert len(ran) == 2 and len({pid for _, pid in ran}) == 2
    assert multiprocessing.active_children() == []


@forked
def test_each_process_reports_a_task_when_it_ends(tmp_path, monkeypatch, capfd):
    # this process's first task ends only after the pool worker has ended
    # one and claimed the next, so the worker's line must come first on fd 2
    allow_cpus(monkeypatch, 2)
    log = tmp_path / "tasks.log"
    parent = os.getpid()

    def before(pid):
        if pid == parent:
            wait_for(lambda: sum(p != parent for _, p in task_log(log)) >= 2)
    logging_run_lanes(monkeypatch, log, FULL, 2, before)
    _, tasks, workers = run_experiment(FULL, parallel=2)
    assert (tasks, workers) == (4, 2)
    done = [line for line in capfd.readouterr().err.splitlines() if line.startswith("done ")]
    assert len(done) == tasks
    assert sorted(re.search(r"\((\d)/4\)", line).group(1) for line in done) == list("1234")
    assert " in a pool worker at " in done[0]
    assert any(" in this process at " in line for line in done)


def test_each_done_line_is_one_write(monkeypatch):
    # the processes share stderr, so a line written in two calls can take
    # another process's line in between
    writes = []
    monkeypatch.setattr(sys, "stderr", SimpleNamespace(write=writes.append))
    tasks = run_experiment(FULL)[1]
    done = [w for w in writes if w.startswith("done ")]
    assert len(done) == tasks and all(w.endswith(" s\n") and w.count("\n") == 1 for w in done)


def test_tasks_hold_every_relay_power_of_their_trials():
    tasks = plan_tasks(replace(FULL, trials=5), 16)
    assert len(tasks) == 2 * 4 * 2  # pairings x scheme groups x trial chunks
    assert [t.trials for t in tasks[:2]] == [range(0, 2), range(2, 5)]
    assert all(t.config.p1_over_p0_db == (-10.0, 0.0) for t in tasks)
    with pytest.raises(ValueError, match="parallel"):
        plan_tasks(SMALL, 0)


SCHEME_SUBSETS = [tuple(s for k, s in enumerate(Scheme) if mask >> k & 1) for mask in range(1, 16)]


@pytest.mark.parametrize("pairings", [("near-far",), ("nearest",), ALL_PAIRINGS])
def test_every_scheme_pairing_and_trial_lies_in_exactly_one_task(pairings):
    sweep = (-10.0, 0.0, 5.0)
    for trials, parallel, schemes in itertools.product(range(1, 6), range(1, 10),
                                                       SCHEME_SUBSETS + [tuple(Scheme)[::-1]]):
        cfg = replace(SMALL, trials=trials, p1_over_p0_db=sweep, schemes=schemes,
                      pairings=pairings)
        tasks = plan_tasks(cfg, parallel)
        held = collections.Counter(
            (scheme, task.config.pairings[0], t)
            for task in tasks for scheme in task.config.schemes for t in task.trials)
        assert held == collections.Counter(itertools.product(schemes, pairings, range(trials)))
        for task in tasks:
            assert task.config.p1_over_p0_db == sweep
        # per (scheme, pairing), the tasks' ranges tile range(trials) in plan order
        for scheme, pairing in itertools.product(schemes, pairings):
            ranges = [task.trials for task in tasks
                      if scheme in task.config.schemes and task.config.pairings == (pairing,)]
            assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
            assert ranges[-1].stop == trials and all(r.step == 1 and r for r in ranges)
        assert len(tasks) >= min(parallel, len(schemes) * len(pairings) * trials)
        if parallel == 1:
            assert [(t.config.pairings[0], set(t.config.schemes)) for t in tasks] == \
                [(pairing, set(schemes)) for pairing in pairings]


@pytest.mark.parametrize("name, values, shown", [
    ("schemes", (Scheme.GBC, Scheme.RBC_DF, Scheme.GBC), "'gbc'"),
    ("pairings", ("nearest", "near-far", "nearest"), "'nearest'"),
    ("p1_over_p0_db", (0.0, -10.0, 0.0), "0.0"),
])
def test_a_repeated_entry_is_rejected(name, values, shown):
    with pytest.raises(ValueError, match=f"{name} lists {shown} more than once"):
        run_experiment(replace(FULL, **{name: values}), parallel=2)


@pytest.mark.parametrize("pairing, fading, neighbors, cross_check", [
    ("near-far", "iid", "recompute", False),
    ("near-far", "static", "recompute", True),
    ("nearest", "iid", "recompute", True),
    ("nearest", "iid", "static", False),
    ("nearest", "static", "static", True),
])
@pytest.mark.parametrize("schemes", [
    (Scheme.GBC,), (Scheme.RBC_CF_DPC, Scheme.GBC, Scheme.RBC_CF), tuple(Scheme),
], ids=["gbc", "mixed", "all"])
def test_scheme_batched_lanes_equal_one_scheme_runs(schemes, pairing, fading, neighbors,
                                                    cross_check):
    # K = 10 < 4B lets near-far removals exhaust a half
    sweep = (-10.0, 0.0, 5.0)
    cfg = replace(SMALL, users=10, blocks=3, intervals=12, pairings=(pairing,), fading=fading,
                  neighbors=neighbors, cross_check=cross_check, p1_over_p0_db=sweep)
    trials = range(2)
    together = run_lanes_recorded(replace(cfg, schemes=schemes), trials)
    per_scheme = len(trials) * len(sweep)
    for c, scheme in enumerate(schemes):
        alone = run_lanes_recorded(replace(cfg, schemes=(scheme,)), trials)
        lanes = slice(c * per_scheme, (c + 1) * per_scheme)
        assert together.mean_sum_rate[lanes].tolist() == alone.mean_sum_rate.tolist()
        assert together.role_swaps[lanes].tolist() == alone.role_swaps.tolist()
        assert together.r2_clamps[lanes].tolist() == alone.r2_clamps.tolist()
        assert np.array_equal(together.assignments[:, lanes], alone.assignments)


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_lanes_reject_a_repeated_scheme(pairing):
    cfg = replace(SMALL, pairings=(pairing,), schemes=(Scheme.GBC, Scheme.GBC))
    with pytest.raises(ValueError, match="schemes lists 'gbc' more than once"):
        run_lanes(cfg, range(2))


def test_lanes_run_one_pairing():
    with pytest.raises(ValueError, match="one pairing"):
        run_lanes(FULL, range(2))


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_relay_rates_are_evaluated_once_per_r1_formula(monkeypatch, pairing):
    # GBC, RBC-DF and RBC-CF+DPC share one r1: two evaluations per chunk,
    # and none in selection or serving, which read the per-chunk table
    calls = []
    for module in (simulation, rates):
        def counting(scheme, *args, real=module.relay_rate):
            calls.append(scheme)
            return real(scheme, *args)
        monkeypatch.setattr(module, "relay_rate", counting)
    monkeypatch.setattr(simulation, "BS_CHUNK_INTERVALS", 4)
    cfg = replace(SMALL, intervals=10, pairings=(pairing,), p1_over_p0_db=(-10.0, 0.0),
                  schemes=(Scheme.RBC_CF_DPC, Scheme.RBC_CF, Scheme.GBC, Scheme.RBC_DF))
    run_lanes(cfg, range(2))
    assert calls == [Scheme.RBC_CF_DPC, Scheme.RBC_CF] * 3


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
@pytest.mark.parametrize("schemes, builds", [
    (tuple(Scheme), 1),
    ((Scheme.RBC_CF_DPC, Scheme.RBC_CF), 1),
    ((Scheme.RBC_CF, Scheme.GBC, Scheme.RBC_CF_DPC, Scheme.RBC_DF), 2),
    ((Scheme.GBC, Scheme.RBC_DF), 0),
], ids=["adjacent", "adjacent-pair", "apart", "no-cf"])
def test_the_cf_bounds_are_built_once_per_stage_for_adjacent_cf_schemes(monkeypatch, pairing,
                                                                         schemes, builds):
    # one selection stage per block and one serving stage per interval; RBC-CF
    # and RBC-CF+DPC share r2, so adjacent ones share the stage's CF call
    count = collections.Counter()

    class Counting(rates._CFBounds):
        def __init__(self, *args):
            count["built"] += 1
            super().__init__(*args)
    monkeypatch.setattr(rates, "_CFBounds", Counting)
    cfg = replace(SMALL, intervals=6, pairings=(pairing,), p1_over_p0_db=(-10.0, 0.0),
                  schemes=schemes)
    run_lanes(cfg, range(2))
    assert count["built"] == cfg.intervals * (cfg.blocks + 1) * builds


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_the_cf_optimum_evaluates_its_objective_once(monkeypatch, pairing):
    # with a root or with the cut-set bound binding at the low bracket end,
    # the high end is not scored; these runs never need it.  The optimum
    # runs under its own guard and evaluates the unguarded ``_objective``
    calls = collections.Counter()
    real_optimum, real_objective = rates._CFBounds.optimum, rates._CFBounds._objective

    def optimum(self):
        calls["optimum"] += 1
        return real_optimum(self)

    def objective(self, n_hat):
        calls["objective"] += 1
        return real_objective(self, n_hat)
    monkeypatch.setattr(rates._CFBounds, "optimum", optimum)
    monkeypatch.setattr(rates._CFBounds, "_objective", objective)
    cfg = replace(SMALL, users=40, blocks=4, intervals=40, pairings=(pairing,),
                  p1_over_p0_db=(-10.0, 0.0), schemes=(Scheme.RBC_CF, Scheme.RBC_CF_DPC))
    run_lanes(cfg, range(4))
    assert calls["optimum"] == cfg.intervals * (cfg.blocks + 1)
    assert calls["objective"] == calls["optimum"]


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_a_scheme_without_the_relay_runs_one_lane_per_trial(monkeypatch, pairing):
    segments = []

    def recording(**kwargs):
        segments.append([(s.label, a, b) for s, a, b in kwargs["segments"]])
        return schedule_lanes(**kwargs)
    monkeypatch.setattr(simulation, "schedule_lanes", recording)
    sweep = (-10.0, 0.0, 5.0)
    cfg = replace(SMALL, users=10, blocks=3, intervals=6, pairings=(pairing,),
                  p1_over_p0_db=sweep, schemes=(Scheme.RBC_CF, Scheme.GBC, Scheme.RBC_DF))
    lanes = run_lanes_recorded(cfg, range(2))
    assert segments == [[("rbc-cf", 0, 6), ("gbc", 6, 8), ("rbc-df", 8, 14)]] * cfg.intervals
    # the result keeps one lane per (scheme, trial, point); GBC's equal a
    # one-point run's, bit for bit, at every point
    assert lanes.mean_sum_rate.shape == (3 * 2 * 3,)
    gbc = slice(6, 12)
    for s, db in enumerate(sweep):
        alone = run_lanes_recorded(replace(cfg, schemes=(Scheme.GBC,), p1_over_p0_db=(db,)),
                                   range(2))
        at = slice(gbc.start + s, gbc.stop, len(sweep))
        assert lanes.mean_sum_rate[at].tolist() == alone.mean_sum_rate.tolist()
        assert lanes.role_swaps[at].tolist() == alone.role_swaps.tolist()
        assert lanes.r2_clamps[at].tolist() == alone.r2_clamps.tolist()
        assert np.array_equal(lanes.assignments[:, at], alone.assignments)


ORDERED_SUBSETS = [order for n in range(1, 5) for order in itertools.permutations(Scheme, n)]


def lane_count(schemes, points):
    """Lanes per trial of ``schemes``: one per relay-power point, one for
    GBC, which does not use the relay."""
    return sum(len(points) if s.uses_relay else 1 for s in schemes)


def scheme_groups(config, parallel):
    """The scheme group of each task of the first pairing's first trials."""
    return [t.config.schemes for t in plan_tasks(config, parallel)
            if t.trials.start == 0 and t.config.pairings == config.pairings[:1]]


@pytest.mark.parametrize("points", [(0.0,), (-10.0, 0.0), (-10.0, 0.0, 5.0)])
def test_fewer_groups_than_schemes_hold_whole_r2_runs_with_the_least_largest_group(points):
    cf_pair = {Scheme.RBC_CF, Scheme.RBC_CF_DPC}
    for schemes, parallel in itertools.product(ORDERED_SUBSETS, range(1, 6)):
        cfg = replace(SMALL, p1_over_p0_db=points, schemes=schemes)
        groups = scheme_groups(cfg, parallel)
        assert collections.Counter(s for g in groups for s in g) == collections.Counter(schemes)
        for g in groups:  # the CF pair is adjacent wherever a task holds both
            at = [k for k, s in enumerate(g) if s in cf_pair]
            assert not at or at[-1] - at[0] == len(at) - 1
        if parallel >= len(schemes):
            assert groups == [(s,) for s in schemes]
            continue
        runs = rates.second_rate_runs(schemes)
        assert len(groups) == parallel
        assert all(any(set(run) <= set(g) for g in groups) for run in runs)
        # the least largest group over every assignment of whole runs to groups
        best = min(max(lane_count([s for run, home in zip(runs, homes) if home == g for s in run],
                                  points) for g in range(parallel))
                   for homes in itertools.product(range(parallel), repeat=len(runs)))
        assert max(lane_count(g, points) for g in groups) == best


@pytest.mark.parametrize("parallel", [1, 2, 3])
def test_the_cf_pair_shares_each_stage_call_in_every_scheme_order(recording_pool, monkeypatch,
                                                                 parallel):
    # RBC-CF and RBC-CF+DPC share r2, so one CF call per stage (one per
    # block and one serving stage per interval) serves both, whatever
    # their config order, while there are fewer groups than schemes
    built = collections.Counter()

    class Counting(rates._CFBounds):
        def __init__(self, *args):
            built["cf"] += 1
            super().__init__(*args)
    monkeypatch.setattr(rates, "_CFBounds", Counting)
    cfg = replace(FULL, intervals=2)
    for order in itertools.permutations(Scheme):
        built.clear()
        run_experiment(replace(cfg, schemes=order), parallel=parallel)
        assert built["cf"] == len(cfg.pairings) * cfg.intervals * (cfg.blocks + 1)


@pytest.mark.parametrize("field, value", [
    ("path_loss_exp", float("nan")),
    ("edge_snr_db", float("nan")),
    ("seed", -1),
    ("users", 8.5),
    ("blocks", True),
    ("tau", float("inf")),
    ("p1_over_p0_db", ("x",)),
    ("edge_snr_db", 4000.0),
    ("p1_over_p0_db", (4000.0,)),
])
def test_validation_names_mistyped_and_non_finite_fields(field, value):
    errors = replace(SMALL, **{field: value}).validate()
    assert len(errors) == 1 and errors[0].startswith(field)
    with pytest.raises(ValueError, match=field):
        run_trial(replace(SMALL, **{field: value}), 1)


def test_common_random_numbers_across_schemes():
    # same master seed: per-pair DF dominance makes DF trials win under the
    # identical topology / BS fading streams
    df = run_experiment(replace(SMALL, intervals=50, schemes=(Scheme.RBC_DF,)))[0][0]
    gbc = run_experiment(replace(SMALL, intervals=50, schemes=(Scheme.GBC,)))[0][0]
    assert df.mean_sum_rate >= gbc.mean_sum_rate


def test_results_csv_layout(tmp_path):
    results = run_experiment(SMALL)[0]
    path = tmp_path / "rows.csv"
    write_results_csv(results, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "scheme,pairing,p1_over_p0_db,mean_sum_rate,stderr,trials,intervals,seed"
    assert len(lines) == 1 + len(results)
    fields = lines[1].split(",")
    assert fields[0] == "gbc" and fields[1] == "near-far"
    assert int(fields[6]) == SMALL.intervals
