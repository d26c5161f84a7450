from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from noma_rbc import scheduling
from noma_rbc.core import ChannelParams, PowerSplit, Scheme
from noma_rbc.rates import relay_rate, second_rates
from noma_rbc.scheduling import (
    NearestStages,
    NearFarStages,
    _NeighborCursor,
    _pf_argmax,
    distance_order,
    near_far_tables,
    pf_update,
    schedule_lanes,
)

from helpers import (
    near_far_pair,
    nearest_available,
    nearest_neighbor_pair,
    nearest_remaining,
    relay_rate_bits,
    rng_for,
    schedule_interval,
    second_rate_bits,
    split_groups,
)

PARAMS = ChannelParams(p0=10.0, p1=10.0, n1=1.0, n2=1.0)
SPLIT = PowerSplit(0.2)


def no_fading_pair_gain(est_gain):
    return lambda i, j: float(est_gain[i, j])


def near_far_stages(gains, trial_of=None):
    """Near-far stages of the lanes' BS gains (L, K, B), lane l reading
    the estimates of trial ``trial_of[l]``, by default its own lane's."""
    trial_of = np.arange(len(gains)) if trial_of is None else trial_of
    return partial(NearFarStages, near_far_tables(np.moveaxis(gains, -1, 0)), trial_of)


def nearest_stages(dist, neighbor_of=None):
    """Nearest-pairing stages of the lanes' distances (L, K, K), one trial
    per lane."""
    return partial(NearestStages, distance_order(dist), np.arange(len(dist)),
                   neighbor_of=neighbor_of)


def test_split_groups_examples():
    strong, weak = split_groups(np.array([3.0, 1.0, 4.0, 2.0]))
    assert set(strong) == {0, 2} and set(weak) == {1, 3}

    strong, weak = split_groups(np.ones(4))
    assert list(strong) == [0, 1] and list(weak) == [2, 3]  # ties to lower index

    rng = rng_for(1)
    strong, weak = split_groups(rng.uniform(size=40))
    assert len(strong) == len(weak) == 20
    assert set(strong) | set(weak) == set(range(40))

    strong, weak = split_groups(np.array([5.0, 1.0, 3.0]))  # odd count: ceil to strong
    assert list(strong) == [0, 2] and list(weak) == [1]


def test_split_groups_subset():
    gains = np.array([9.0, 1.0, 8.0, 2.0, 7.0, 3.0])
    strong, weak = split_groups(gains, ids=[1, 3, 4, 5])
    assert set(strong) == {4, 5} and set(weak) == {1, 3}


def test_pf_update_examples():
    assert pf_update(np.array([1.0]), np.array([1.0]), 0.01)[0] == 1.0
    assert pf_update(np.array([1.0]), np.array([0.0]), 0.01)[0] == 0.99
    with pytest.raises(ValueError):
        pf_update(np.array([1.0]), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        pf_update(np.array([1.0]), np.array([0.0]), 1.0)


def test_pf_update_converges_geometrically():
    tau, target, steps = 0.01, 3.0, 2000
    avg = np.array([1e-3])
    for _ in range(steps):
        avg = pf_update(avg, np.array([target]), tau)
    closed_form = (1 - tau) ** steps * 1e-3 + (1 - (1 - tau) ** steps) * target
    assert avg[0] == pytest.approx(closed_form, rel=1e-9)
    assert abs(avg[0] - target) < 1e-6


def test_pf_ledger_stays_positive():
    rng = rng_for(2)
    avg = np.full(8, 1e-3)
    for _ in range(500):
        served = np.where(rng.uniform(size=8) < 0.3, rng.uniform(size=8), 0.0)
        avg = pf_update(avg, served, 0.01)
        assert np.all(avg > 0.0)


def test_near_far_single_candidates():
    gains = np.array([5.0, 1.0])
    est = np.full((2, 2), 0.5)
    k1, k2 = near_far_pair([0], [1], gains, np.ones(2), est, Scheme.GBC, PARAMS, SPLIT)
    assert (k1, k2) == (0, 1)


def test_near_far_equal_avg_reduces_to_max_rate():
    # identical PF denominators: the instantaneous rate decides (greedy limit)
    gains = np.array([5.0, 7.0, 1.0, 2.0])
    est = np.full((4, 4), 0.3)
    avg = np.ones(4)
    k1, k2 = near_far_pair([0, 1], [2, 3], gains, avg, est, Scheme.GBC, PARAMS, SPLIT)
    assert k1 == 1  # larger gain -> larger r1
    assert k2 == 3  # larger g02 -> larger r2 under GBC
    # PF denominators flip the choice
    avg = np.array([1.0, 100.0, 1.0, 100.0])
    k1, k2 = near_far_pair([0, 1], [2, 3], gains, avg, est, Scheme.GBC, PARAMS, SPLIT)
    assert (k1, k2) == (0, 2)


def test_near_far_ties_break_to_lower_index():
    gains = np.array([5.0, 5.0, 2.0, 2.0])
    est = np.full((4, 4), 0.3)
    avg = np.ones(4)
    k1, k2 = near_far_pair([0, 1], [2, 3], gains, avg, est, Scheme.GBC, PARAMS, SPLIT)
    assert (k1, k2) == (0, 2)


def test_near_far_empty_group_rejected():
    gains = np.array([5.0, 1.0])
    est = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="empty candidate group"):
        near_far_pair([], [1], gains, np.ones(2), est, Scheme.GBC, PARAMS, SPLIT)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_near_far_matches_exhaustive_enumeration(scheme):
    rng = rng_for(31)
    for _ in range(25):
        k = 8
        gains = 10.0 ** rng.uniform(-1, 1, size=k)
        est = np.abs(rng.uniform(0.05, 2.0, size=(k, k)))
        est = 0.5 * (est + est.T)
        avg = rng.uniform(0.5, 2.0, size=k)
        strong, weak = split_groups(gains)
        k1, k2 = near_far_pair(strong, weak, gains, avg, est, scheme, PARAMS, SPLIT)

        # stage 1 oracle: exhaustive PF scan of the strong half
        scores = [(relay_rate_bits(scheme, gains[i], PARAMS, SPLIT) / avg[i], -i)
                  for i in strong]
        expect_k1 = -max(scores)[1]
        assert k1 == expect_k1
        # stage 2 oracle: exhaustive PF scan of the weak half given k1
        scores = [
            (second_rate_bits(scheme, gains[k1], gains[j], est[k1, j], PARAMS, SPLIT) / avg[j], -j)
            for j in weak
        ]
        assert k2 == -max(scores)[1]


def test_nearest_remaining_collinear():
    # users on a line at distances 1, 2, 4 from user 0: its neighbour is
    # the distance-1 user; user 1 ties between 0 and 2 and takes the lower
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    d = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
    nn = nearest_remaining([0, 1, 2, 3], d)
    assert nn == {0: 1, 1: 0, 2: 1, 3: 2}
    # removals change the neighbour map
    nn = nearest_remaining([0, 2, 3], d)
    assert nn == {0: 2, 2: 0, 3: 2}


def test_nearest_remaining_tie_breaks_low_index():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    d = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
    assert nearest_remaining([0, 1, 2], d)[0] == 1


def test_nearest_pair_two_users_evaluates_both_orientations():
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    est = np.array([[0.0, 1.0], [1.0, 0.0]])

    def expected(gains, avg):
        m0 = (relay_rate_bits(Scheme.GBC, gains[0], PARAMS, SPLIT) / avg[0]
              + second_rate_bits(Scheme.GBC, gains[0], gains[1], est[0, 1], PARAMS, SPLIT) / avg[1])
        m1 = (relay_rate_bits(Scheme.GBC, gains[1], PARAMS, SPLIT) / avg[1]
              + second_rate_bits(Scheme.GBC, gains[1], gains[0], est[1, 0], PARAMS, SPLIT) / avg[0])
        return (0, 1) if m0 >= m1 else (1, 0)

    # both outcomes occur: the strong user serves as relay either way round
    for gains in (np.array([5.0, 1.0]), np.array([1.0, 5.0])):
        choice = nearest_neighbor_pair([0, 1], d, gains, np.ones(2), est,
                                       Scheme.GBC, PARAMS, SPLIT)
        assert choice == expected(gains, np.ones(2))
    assert expected(np.array([5.0, 1.0]), np.ones(2)) == (0, 1)
    assert expected(np.array([1.0, 5.0]), np.ones(2)) == (1, 0)
    # and the choice follows the literal metric under a skewed ledger too
    avg = np.array([50.0, 1.0])
    gains = np.array([5.0, 1.0])
    choice = nearest_neighbor_pair([0, 1], d, gains, avg, est, Scheme.GBC, PARAMS, SPLIT)
    assert choice == expected(gains, avg)


@pytest.mark.parametrize("scheme", [Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF_DPC])
def test_nearest_pair_matches_exhaustive_enumeration(scheme):
    rng = rng_for(41)
    for _ in range(20):
        k = 8
        xy = rng.uniform(-5, 5, size=(k, 2))
        d = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
        gains = 10.0 ** rng.uniform(-1, 1, size=k)
        est = np.abs(rng.uniform(0.05, 2.0, size=(k, k)))
        est = 0.5 * (est + est.T)
        avg = rng.uniform(0.5, 2.0, size=k)
        ids = list(range(k))
        k1, k2 = nearest_neighbor_pair(ids, d, gains, avg, est, scheme, PARAMS, SPLIT)
        nn = nearest_remaining(ids, d)
        scores = []
        for i in ids:
            j = nn[i]
            metric = (relay_rate_bits(scheme, gains[i], PARAMS, SPLIT) / avg[i]
                      + second_rate_bits(scheme, gains[i], gains[j], est[i, j], PARAMS, SPLIT) / avg[j])
            scores.append((metric, -i))
        expect = -max(scores)[1]
        assert k1 == expect and k2 == nn[expect]


def test_nearest_pair_needs_two_users():
    d = np.zeros((3, 3))
    with pytest.raises(ValueError, match="fewer than two"):
        nearest_neighbor_pair([1], d, np.ones(3), np.ones(3), np.ones((3, 3)),
                              Scheme.GBC, PARAMS, SPLIT)


def _compare_with_nearest_available(cursor, avail, dist):
    """The cursor's neighbours equal ``nearest_available`` on every
    available user that has another available user."""
    expect = nearest_available(avail, dist)
    got = cursor.nearest(avail)
    rows = avail & (avail.sum(axis=1) >= 2)[:, None]
    assert np.array_equal(got[rows], expect[rows])


def test_pointer_neighbours_equal_nearest_available():
    # 6 lanes of 12 users; positions on a coarse integer grid with some
    # users copied onto others, so zero and tied distances occur
    rng = rng_for(89)
    for _ in range(40):
        xy = rng.integers(0, 4, size=(6, 12, 2)).astype(float)
        xy[:, 5] = xy[:, 2]
        xy[:, 9] = xy[:, 2]
        dist = np.sqrt(((xy[:, :, None] - xy[:, None, :]) ** 2).sum(-1))
        order = distance_order(dist)
        assert np.array_equal(order[:, :, 0], nearest_available(np.ones((6, 12), dtype=bool),
                                                                 dist))
        # availability shrinking within an interval, two users per block
        cursor, avail = _NeighborCursor(order, np.arange(6)), np.ones((6, 12), dtype=bool)
        for _ in range(5):
            for lane in range(6):
                avail[lane, rng.choice(np.flatnonzero(avail[lane]), 2, replace=False)] = False
            _compare_with_nearest_available(cursor, avail, dist)
        # and any random mask from a fresh cursor
        _compare_with_nearest_available(_NeighborCursor(order, np.arange(6)),
                                        rng.uniform(size=(6, 12)) < 0.4, dist)


def _interval_inputs(rng, k, b):
    gains = 10.0 ** rng.uniform(-1, 1, size=(k, b))
    xy = rng.uniform(-100, 100, size=(k, 2))
    dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
    d_safe = dist.copy()
    np.fill_diagonal(d_safe, 1.0)
    est = (d_safe / 100.0) ** -3.0
    np.fill_diagonal(est, 0.0)
    avg = rng.uniform(0.1, 2.0, size=k)
    return gains, dist, est, avg


def test_schedule_interval_forced_pair():
    gains = np.array([[2.0], [5.0]])
    dist = np.array([[0.0, 10.0], [10.0, 0.0]])
    est = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = schedule_interval(
        scheme=Scheme.GBC, pairing="near-far", bs_gains=gains, dist_matrix=dist,
        avg_rates=np.ones(2), params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est),
    )
    assert res.assignment == ((1, 0),)  # the stronger user serves as relay
    assert res.sum_rate == res.block_rates[0][0] + res.block_rates[0][1]
    assert res.served[1] == res.block_rates[0][0]
    assert res.served[0] == res.block_rates[0][1]


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_cross_check_raises_on_a_served_pair_below_gbc(monkeypatch, pairing):
    # every r2 zeroed: RBC-DF then serves less than GBC would
    def zeroed(*args, real=scheduling.second_rates):
        r2, clamped = real(*args)
        return np.zeros_like(r2), clamped
    monkeypatch.setattr(scheduling, "second_rates", zeroed)
    gains, dist, est, avg = _interval_inputs(rng_for(67), k=10, b=3)
    with pytest.raises(RuntimeError, match="per-pair dominance violated for rbc-df: served="):
        schedule_interval(scheme=Scheme.RBC_DF, pairing=pairing, bs_gains=gains,
                          dist_matrix=dist, avg_rates=avg, params=PARAMS, split=SPLIT,
                          est_gain=est, draw_pair_gain=no_fading_pair_gain(est),
                          cross_check=True)


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
@pytest.mark.parametrize("scheme", [Scheme.GBC, Scheme.RBC_DF, Scheme.RBC_CF_DPC])
def test_schedule_interval_invariants(pairing, scheme):
    rng = rng_for(61)
    for _ in range(10):
        gains, dist, est, avg = _interval_inputs(rng, k=10, b=3)
        res = schedule_interval(
            scheme=scheme, pairing=pairing, bs_gains=gains, dist_matrix=dist,
            avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
            draw_pair_gain=no_fading_pair_gain(est), cross_check=True,
        )
        scheduled = [i for pair in res.assignment for i in pair]
        assert len(scheduled) == len(set(scheduled)) == 6
        # served roles respect the degraded ordering on true gains
        for b, (relay, second) in enumerate(res.assignment):
            assert gains[relay, b] >= gains[second, b]
        # sum rate recomputes from the per-user served vector
        recomputed = sum(res.served[i] + res.served[j] for i, j in res.assignment)
        assert res.sum_rate == pytest.approx(recomputed, rel=1e-12)
        assert res.sum_rate == pytest.approx(
            sum(r1 + r2 for r1, r2 in res.block_rates), rel=1e-12
        )


def test_schedule_interval_near_far_group_membership():
    # relay from the strong half, second from the weak half, every block
    rng = rng_for(67)
    gains, dist, est, avg = _interval_inputs(rng, k=12, b=3)
    res = schedule_interval(
        scheme=Scheme.GBC, pairing="near-far", bs_gains=gains, dist_matrix=dist,
        avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est),
    )
    removed = set()
    for b, (relay, second) in enumerate(res.assignment):
        strong, weak = split_groups(gains[:, b])
        assert relay in set(strong) - removed
        assert second in set(weak) - removed
        removed |= {relay, second}


def test_schedule_interval_determinism():
    rng = rng_for(71)
    gains, dist, est, avg = _interval_inputs(rng, k=8, b=2)
    kwargs = dict(
        scheme=Scheme.RBC_DF, pairing="nearest", bs_gains=gains, dist_matrix=dist,
        avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est),
    )
    a = schedule_interval(**kwargs)
    b = schedule_interval(**kwargs)
    assert a.assignment == b.assignment
    assert a.sum_rate == b.sum_rate


def test_schedule_interval_counts_role_swaps():
    # starved weak user whose r1 (2.32 bits at gain 2) beats its r2 as a
    # second user (2.07 bits): the PF metric makes it the candidate relay,
    # and serving must swap it back under the true ordering
    gains = np.array([[2.0], [5.0]])
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    est = np.array([[0.0, 1.0], [1.0, 0.0]])
    avg = np.array([1e-6, 1.0])
    res = schedule_interval(
        scheme=Scheme.GBC, pairing="nearest", bs_gains=gains, dist_matrix=dist,
        avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est),
    )
    assert res.role_swaps == 1
    assert res.assignment == ((1, 0),)  # roles swapped so the ordering holds


@pytest.mark.parametrize("pairing", ["near-far", "nearest"])
def test_served_roles_keep_the_degraded_order_and_count_the_swaps(monkeypatch, pairing):
    # 40 lanes of 12 users over 5 blocks, ten lanes per scheme, with ledgers
    # spread over four decades.  The selection of each block names the
    # selected relay, as the first of its flat (relay, second).  Only
    # nearest pairing can select the weaker user: a near-far relay comes
    # from the strong half of the available users
    rng = rng_for(97)
    n_lanes, n_users, n_blocks = 40, 12, 5
    gains, dist, est, avg = (np.stack(x) for x in zip(*[
        _interval_inputs(rng, k=n_users, b=n_blocks) for _ in range(n_lanes)]))
    avg = avg * 10.0 ** rng.uniform(-3.0, 1.0, size=avg.shape)
    segments = [(scheme, 10 * k, 10 * k + 10) for k, scheme in enumerate(Scheme)]
    relay_r1 = np.concatenate([relay_rate(s, gains[a:b], PARAMS, SPLIT.alpha)
                               for s, a, b in segments])
    relay_power = 10.0 ** rng.uniform(-1.0, 2.0, size=n_lanes)
    lanes = np.arange(n_lanes)[:, None]
    picks = []

    stages = near_far_stages(gains) if pairing == "near-far" else nearest_stages(dist)

    def recording(*args, real=stages.func.select):
        picks.append(real(*args))
        return picks[-1]
    monkeypatch.setattr(stages.func, "select", recording)
    res = schedule_lanes(segments, stages, gains, avg, PARAMS, SPLIT, est,
                         pair_gains=lambda relays, seconds: est[lanes, relays, seconds],
                         relay_power=relay_power, relay_r1=relay_r1)
    selected = np.stack([relay for relay, _ in picks], axis=1) - lanes * n_users
    assert selected.shape == (n_lanes, n_blocks)
    blocks = np.arange(n_blocks)
    g01, g02 = gains[lanes, res.relays, blocks], gains[lanes, res.seconds, blocks]
    # every served pair keeps the degraded ordering g01/n1 >= g02/n2
    assert (g01 * PARAMS.n2 >= g02 * PARAMS.n1).all()
    # a block is swapped exactly when its selected relay was the weaker user
    swapped = res.seconds == selected
    assert (swapped | (res.relays == selected)).all()
    other = np.where(swapped, res.relays, res.seconds)
    weaker = gains[lanes, selected, blocks] * PARAMS.n2 < gains[lanes, other, blocks] * PARAMS.n1
    assert np.array_equal(swapped, weaker)
    assert weaker.any() == (pairing == "nearest") and not weaker.all()
    assert res.role_swaps.tolist() == weaker.sum(axis=1).tolist()
    # the served rates sit at the users in their served roles
    assert np.array_equal(res.r1, relay_r1[lanes, res.relays, blocks])
    expect = np.zeros((n_lanes, n_users))
    expect[lanes, res.relays] = res.r1
    expect[lanes, res.seconds] = res.r2
    assert np.array_equal(res.served, expect)
    r2, _ = second_rates(segments, g01, g02, est[lanes, res.relays, res.seconds], PARAMS,
                         SPLIT.alpha, relay_power[:, None])
    assert np.array_equal(res.r2, r2)


def test_schedule_interval_near_far_exhausted_half_resplits():
    # K=8, B=3 can exhaust one per-block half; engineered gains force it
    gains = np.zeros((8, 3))
    gains[:, 0] = [8, 7, 6, 5, 4, 3, 2, 1]
    gains[:, 1] = [8, 7, 6, 5, 4, 3, 2, 1]
    # blocks 0-1 schedule (0, 4) then (1, 5); on block 2 exactly those four
    # users make up the entire strong half, so it must be re-split
    gains[:, 2] = [8, 7, 1, 2, 6, 5, 3, 4]
    avg = np.ones(8)
    est = np.full((8, 8), 0.5)
    np.fill_diagonal(est, 0.0)
    dist = np.ones((8, 8))
    res = schedule_interval(
        scheme=Scheme.GBC, pairing="near-far", bs_gains=gains, dist_matrix=dist,
        avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est),
    )
    assert res.assignment[0] == (0, 4)
    assert res.assignment[1] == (1, 5)
    strong2, _ = split_groups(gains[:, 2])
    assert set(strong2) == {0, 1, 4, 5}  # entirely removed before block 2
    relay, second = res.assignment[2]
    assert {relay, second} <= {2, 3, 6, 7}
    assert gains[relay, 2] >= gains[second, 2]
    assert res.assignment[2] == (7, 3)  # re-split of the remainder, PF greedy


def test_schedule_interval_rejects_bad_inputs():
    gains = np.ones((3, 2))
    dist = np.zeros((3, 3))
    est = np.ones((3, 3))
    with pytest.raises(ValueError, match="cannot fill"):
        schedule_interval(
            scheme=Scheme.GBC, pairing="near-far", bs_gains=gains, dist_matrix=dist,
            avg_rates=np.ones(3), params=PARAMS, split=SPLIT, est_gain=est,
            draw_pair_gain=no_fading_pair_gain(est),
        )


def test_no_finite_score_is_rejected_not_mapped_to_the_last_user():
    # an all-zero ledger at alpha = 1: every relay score is r1/0 = inf and
    # every second-user score 0/0 = NaN; no user may be picked by position
    gains = np.array([5.0, 4.0, 1.0, 2.0])
    est = np.full((4, 4), 0.3)
    split = PowerSplit(1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite PF score"):
            near_far_pair([0, 1], [2, 3], gains, np.zeros(4), est, Scheme.GBC, PARAMS, split)
        # an infinite score wins, a NaN one never does
        avg = np.array([1.0, 0.0, 1.0, 1.0])
        assert near_far_pair([0, 1], [2, 3], gains, avg, est, Scheme.GBC, PARAMS, split)[0] == 1
        avg = np.array([1.0, 1.0, 0.0, 1.0])
        assert near_far_pair([0, 1], [2, 3], gains, avg, est, Scheme.GBC, PARAMS, split) == (0, 3)


def _pf_argmax_full_scan(scores, candidates):
    """Reference: prove a finite candidate score in every lane, then take
    the masked argmax with NaN scores excluded."""
    usable = (np.isfinite(scores) & candidates).any(axis=1)
    if not usable.all():
        lane = int(np.argmin(usable))
        raise ValueError(f"no candidate has a finite PF score in lane {lane}: "
                         f"{scores[lane][candidates[lane]]}")
    return np.argmax(np.where(candidates & ~np.isnan(scores), scores, -np.inf), axis=1)


def test_pf_argmax_equals_the_full_scan():
    # few distinct values, so that ties, NaN, +-inf and empty lanes all occur
    rng = rng_for(89)
    values = np.array([np.nan, -np.inf, np.inf, -1.0, 0.0, 2.0])
    for _ in range(3000):
        scores = rng.choice(values, size=(2, 5))
        candidates = rng.uniform(size=(2, 5)) < 0.6
        try:
            expect = _pf_argmax_full_scan(scores, candidates)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                _pf_argmax(scores, candidates, np.array([0, 5]))
            assert str(got.value) == str(exc)
        else:
            at = _pf_argmax(scores, candidates, np.array([0, 5]))
            assert (at - [0, 5]).tolist() == expect.tolist()


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_schedule_interval_rejects_a_ledger_that_is_not_finite_and_positive(bad):
    rng = rng_for(73)
    gains, dist, est, avg = _interval_inputs(rng, k=6, b=2)
    avg[3] = bad
    with pytest.raises(ValueError, match="ledger"):
        schedule_interval(
            scheme=Scheme.GBC, pairing="near-far", bs_gains=gains, dist_matrix=dist,
            avg_rates=avg, params=PARAMS, split=SPLIT, est_gain=est,
            draw_pair_gain=no_fading_pair_gain(est),
        )


def test_static_neighbours_fall_back_to_the_nearest_remaining():
    # static map 0->1, 1->0, 2->1, 3->0: once (0, 1) is served, neither
    # remaining user has its mapped neighbour left, so the block recomputes
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.1, 0.0], [-1.1, 0.0]])
    dist = np.sqrt(((xy[:, None] - xy[None]) ** 2).sum(-1))
    static = nearest_remaining(range(4), dist)
    assert static == {0: 1, 1: 0, 2: 1, 3: 0}
    gains = np.array([[9.0, 1.0], [8.0, 1.0], [1.0, 3.0], [1.0, 2.0]])
    est = np.full((4, 4), 0.5)
    assert nearest_neighbor_pair([2, 3], dist, gains[:, 1], np.ones(4), est, Scheme.GBC,
                                 PARAMS, SPLIT, neighbor_of=static) == (2, 3)
    res = schedule_interval(
        scheme=Scheme.GBC, pairing="nearest", bs_gains=gains, dist_matrix=dist,
        avg_rates=np.ones(4), params=PARAMS, split=SPLIT, est_gain=est,
        draw_pair_gain=no_fading_pair_gain(est), neighbors="static",
    )
    assert res.assignment == ((0, 1), (2, 3))


def _near_far_reference(segments, gains, avg, est, trial_of, relay_power):
    """(L, B, 2) served (relay, second) of every lane and block under
    near-far pairing, and the count of re-splits, by the rules of the
    scheduling module's docstring in plain Python, lane by lane and block
    by block.  Each block splits all K users by that block's BS gains
    into a strong half of ceil(K/2) users and a weak half, ranked by gain
    with ties to the lower index; a lane whose strong or weak half has no
    available user left splits its available users the same way.  The
    relay is the available strong user with the largest r1/avg, the
    second user the available weak user with the largest r2/avg given
    that relay, ties to the lower index; the pair serves in degraded role
    order."""
    n_lanes, n_users, n_blocks = gains.shape
    served = np.empty((n_lanes, n_blocks, 2), dtype=int)
    resplits = 0
    for scheme, start, stop in segments:
        for lane in range(start, stop):
            params = replace(PARAMS, p1=float(relay_power[lane]))
            taken = set()
            for b in range(n_blocks):
                g, pf = gains[lane, :, b].tolist(), avg[lane].tolist()

                def split(users):
                    ranked = sorted(users, key=lambda u: -g[u])  # a stable sort
                    cut = (len(ranked) + 1) // 2
                    return sorted(ranked[:cut]), sorted(ranked[cut:])

                def best(users, score):
                    pick = users[0]
                    for u in users[1:]:
                        if score(u) > score(pick):
                            pick = u
                    return pick

                strong, weak = ([u for u in half if u not in taken]
                                for half in split(range(n_users)))
                if not strong or not weak:
                    resplits += 1
                    strong, weak = split([u for u in range(n_users) if u not in taken])
                relay = best(strong, lambda u: relay_rate_bits(scheme, g[u], params, SPLIT) / pf[u])
                second = best(weak, lambda u: second_rate_bits(
                    scheme, g[relay], g[u], est[trial_of[lane], relay, u], params, SPLIT) / pf[u])
                taken |= {relay, second}
                if g[relay] * params.n2 < g[second] * params.n1:
                    relay, second = second, relay
                served[lane, b] = relay, second
    return served, resplits


def test_near_far_lanes_equal_the_plain_reference_with_ties_and_resplits():
    # few distinct gains, ledger entries and estimates, so that BS gains and
    # PF scores tie; K from 2B to 3B + 1 lets removals exhaust a half
    rng = rng_for(131)
    resplits = 0
    for _ in range(100):
        n_blocks = int(rng.integers(1, 5))
        n_users = int(rng.integers(2 * n_blocks, 3 * n_blocks + 2))
        n_lanes, n_trials = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        cuts = np.flatnonzero(rng.uniform(size=n_lanes - 1) < 0.5) + 1
        bounds = [0, *cuts.tolist(), n_lanes]
        segments = [(Scheme(rng.choice(list(Scheme))), a, b) for a, b in zip(bounds, bounds[1:])]
        gains = rng.choice([0.3, 1.0, 3.0], size=(n_lanes, n_users, n_blocks))
        avg = rng.choice([0.5, 1.0], size=(n_lanes, n_users))
        est = rng.choice([0.1, 1.0, 10.0], size=(n_trials, n_users, n_users))
        est = np.triu(est, 1) + np.triu(est, 1).transpose(0, 2, 1)
        trial_of = rng.integers(0, n_trials, size=n_lanes)
        relay_power = rng.choice([1.0, 10.0], size=n_lanes)
        relay_r1 = np.concatenate([relay_rate(s, gains[a:b], PARAMS, SPLIT.alpha)
                                   for s, a, b in segments])
        res = schedule_lanes(segments, near_far_stages(gains, trial_of), gains, avg, PARAMS,
                             SPLIT, est,
                             pair_gains=lambda relays, seconds: np.ones(relays.shape),
                             relay_power=relay_power, relay_r1=relay_r1)
        expect, count = _near_far_reference(segments, gains, avg, est, trial_of, relay_power)
        assert np.array_equal(np.stack((res.relays, res.seconds), axis=-1), expect)
        resplits += count
    assert resplits >= 10


@pytest.mark.parametrize("pairing, neighbors", [
    ("near-far", "recompute"), ("nearest", "recompute"), ("nearest", "static"),
])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_lanes_do_not_interact(scheme, pairing, neighbors):
    # one batched call over five lanes, each with its own gains, ledger and
    # relay power, equals five one-lane calls; K=8, B=3 lets near-far
    # removals exhaust a half
    rng = rng_for(79)
    gains, dist, est, avg = (np.stack(x) for x in zip(*[_interval_inputs(rng, k=8, b=3)
                                                         for _ in range(5)]))
    relay_power = np.array([0.0, 0.1, 1.0, 10.0, 100.0])
    static = nearest_available(np.ones((5, 8), dtype=bool), dist) \
        if neighbors == "static" else None
    lanes = np.arange(5)[:, None]
    stages = near_far_stages(gains) if pairing == "near-far" else nearest_stages(dist, static)
    res = schedule_lanes([(scheme, 0, 5)], stages, gains, avg, PARAMS, SPLIT, est,
                         pair_gains=lambda relays, seconds: est[lanes, relays, seconds],
                         relay_r1=relay_rate(scheme, gains, PARAMS, SPLIT.alpha),
                         relay_power=relay_power, cross_check=True)
    for lane in range(5):
        one = schedule_interval(scheme, pairing, gains[lane], dist[lane], avg[lane],
                                replace(PARAMS, p1=float(relay_power[lane])), SPLIT, est[lane],
                                no_fading_pair_gain(est[lane]), neighbors=neighbors)
        assert tuple(zip(res.relays[lane].tolist(), res.seconds[lane].tolist())) == one.assignment
        assert res.sum_rate[lane] == one.sum_rate
        assert np.array_equal(res.served[lane], one.served)
        assert res.role_swaps[lane] == one.role_swaps


def test_a_lane_without_a_finite_score_is_named():
    rng = rng_for(83)
    gains, dist, est, avg = (np.stack(x) for x in zip(*[_interval_inputs(rng, k=6, b=2)
                                                         for _ in range(2)]))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite PF score in lane 1"):
            schedule_lanes([(Scheme.GBC, 0, 2)], near_far_stages(gains), gains, avg, PARAMS,
                           PowerSplit(1.0), est, pair_gains=None,
                           relay_r1=relay_rate(Scheme.GBC, gains, PARAMS, 1.0),
                           relay_power=np.array([1.0, np.nan]))


@pytest.mark.parametrize("segments", [
    [],
    [(Scheme.GBC, 0, 2)],
    [(Scheme.GBC, 0, 1), (Scheme.RBC_DF, 2, 3)],
    [(Scheme.GBC, 0, 3), (Scheme.RBC_DF, 3, 3)],
    [(Scheme.GBC, 1, 3)],
])
def test_scheme_segments_must_cut_the_lanes_into_contiguous_runs(segments):
    rng = rng_for(89)
    gains, dist, est, avg = (np.stack(x) for x in zip(*[_interval_inputs(rng, k=6, b=2)
                                                         for _ in range(3)]))
    with pytest.raises(ValueError, match="do not cut the 3 lanes"):
        schedule_lanes(segments, near_far_stages(gains), gains, avg, PARAMS, SPLIT, est,
                       pair_gains=None,
                       relay_r1=relay_rate(Scheme.GBC, gains, PARAMS, SPLIT.alpha),
                       relay_power=np.ones(3))
