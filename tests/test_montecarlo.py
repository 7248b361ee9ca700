import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import full_field
from oracles import (
    _conditioned_interference,
    association_estimate,
    conditioned_oracles,
    laplace_estimate,
    sums,
)
from uavcov import analytic, montecarlo
from uavcov.errors import ParameterError
from uavcov.geometry import lens_complement_area, receiving_radius
from uavcov.model import (
    BOUNDARY_DEFAULTS,
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    EnvironmentParams,
    LinkType,
    OmniAntenna,
    Waypoint,
    default_params,
    horizontal_speed,
    params_from_boundary,
    path_loss,
    sample_fading,
)
from uavcov.montecarlo import (
    MAX_MEAN_STATIONS,
    ORIGIN_CANDIDATES,
    _FieldBlock,
    _segment_argmax,
    _segment_sums,
    associate,
    classify_links,
    episode_rng,
    field_radius,
    sample_ppp,
    simulate_episode,
    summary_estimates,
    wilson_interval,
)

SYM_CHANNEL = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                            m_l=2, m_n=2)
OMNI = OmniAntenna(BOUNDARY_DEFAULTS["r_max"])
NEAREST = AssociationPolicy.NEAREST

# (overrides, episodes): the policy x antenna grid at the baseline density,
# an empty network (every block all-void), a dense field of about 29,600
# stations, above half of montecarlo.BLOCK_STATIONS, so each full-field
# block is one episode, and a 30-degree beam at 1000/km^2: about 33
# stations per field, of which 1-3 are in range, so most of each block is
# compacted away
ENGINE_CASES = [
    pytest.param({}, 2000, id="strongest_rss-directional"),
    pytest.param({"policy": NEAREST}, 2000, id="nearest-directional"),
    pytest.param({"antenna": OMNI}, 500, id="strongest_rss-omni"),
    pytest.param({"policy": NEAREST, "antenna": OMNI}, 500,
                 id="nearest-omni"),
    pytest.param({"lambda_b": 1e-12}, 500, id="empty"),
    pytest.param({"lambda_b": 1e-3, "antenna": OMNI}, 100, id="dense"),
    pytest.param({"lambda_b": 1e-3, "antenna": DirectionalAntenna(30.0)}, 2000,
                 id="narrow-beam"),
]
# and a sparse omni field of about 296 stations, 110 episodes per full-field
# block
REPLAY_CASES = ENGINE_CASES + [
    pytest.param({"lambda_b": 1e-5, "antenna": OMNI}, 500,
                 id="sparse-omni"),
]


class TestEpisodeRng:
    def test_replays_and_separates_streams(self):
        first = episode_rng(7, 3).random(4)
        assert isinstance(episode_rng(7, 3).bit_generator, np.random.PCG64DXSM)
        assert np.array_equal(episode_rng(7, 3).random(4), first)
        for seed, k in ((7, 2), (7, 4), (6, 3), (8, 3), (3, 7)):
            assert not np.any(episode_rng(seed, k).random(4) == first)

    def test_keys_reduce_mod_two_to_the_64(self):
        a = episode_rng(-1, 2**64 + 5).random(4)
        assert np.array_equal(a, episode_rng(2**64 - 1, 5).random(4))


class TestStationFading:
    @pytest.mark.parametrize("los_fraction", [0.0, 0.04, 1.0])
    def test_per_type_nakagami_laws(self, params, los_fraction):
        # KS tests of each type's rows against its Gamma(m, 1/m) power law,
        # on a field where each present type has at least 20 000 rows
        ch = params.channel
        n = 500_000 if 0.0 < los_fraction < 1.0 else 20_000
        los = episode_rng(24, 0).permutation(n) < round(los_fraction * n)
        fading = montecarlo._station_fading(los, params, episode_rng(24, 3))
        assert fading.shape == (n,)
        for mask, m in ((los, ch.m_l), (~los, ch.m_n)):
            if mask.any():
                assert mask.sum() >= 20_000
                law = stats.gamma(m, scale=1.0 / m)
                assert stats.kstest(fading[mask], law.cdf).pvalue > 1e-3

    @pytest.mark.parametrize("size", [28_000, 0, None])
    def test_unit_shape_is_the_gamma_draw(self, size):
        # m = 1 draws standard_exponential: the values standard_gamma(1)
        # gives, leaving the stream where it leaves it
        ch = replace(default_params().channel, m_l=1, m_n=1)
        got, want = episode_rng(26, 0), episode_rng(26, 0)
        fading = sample_fading(LinkType.NLOS, ch, got, size)
        gamma = want.standard_gamma(1, size) / 1
        assert type(fading) is type(gamma)
        assert np.array_equal(fading, gamma)
        assert np.array_equal(got.random(8), want.random(8))

    def test_nlos_draw_then_los_rows_overwritten(self, params):
        # the NLoS law for every row, then the LoS law written over the
        # LoS rows in row order
        ch = params.channel
        los = episode_rng(25, 0).random(1000) < 0.3
        got = montecarlo._station_fading(los, params, episode_rng(25, 1))
        rng = episode_rng(25, 1)
        want = sample_fading(LinkType.NLOS, ch, rng, 1000)
        want[los] = sample_fading(LinkType.LOS, ch, rng, int(los.sum()))
        assert np.array_equal(got, want)


class TestSamplePpp:
    def test_mean_count(self):
        rng = episode_rng(1, 0)
        counts = [len(sample_ppp(1e-4, 1000.0, rng)) for _ in range(10_000)]
        expected = 1e-4 * np.pi * 1000.0**2
        assert abs(np.mean(counts) - expected) / expected < 0.01

    def test_empty_when_zero_density(self):
        rng = episode_rng(1, 1)
        for _ in range(50):
            assert len(sample_ppp(0.0, 1000.0, rng)) == 0

    def test_poisson_dispersion(self):
        rng = episode_rng(2, 0)
        counts = np.array([len(sample_ppp(1e-4, 1000.0, rng))
                           for _ in range(10_000)])
        assert abs(counts.var() / counts.mean() - 1.0) < 0.05

    def test_points_inside_disc(self):
        rng = episode_rng(3, 0)
        field = sample_ppp(1e-3, 500.0, rng)
        assert np.all(np.hypot(field[:, 0], field[:, 1])
                      <= 500.0)

    def test_radial_and_angular_laws(self):
        # uniform on the disc: a quarter of the points within r_field / 2 and
        # a quarter in each quadrant, each within 4 binomial deviations
        field = sample_ppp(1e-3, 5000.0, episode_rng(3, 1))
        x, y = field.T
        n = len(field)
        assert n > 70_000
        bound = 4.0 * math.sqrt(0.25 * 0.75 / n)
        assert abs(np.mean(x * x + y * y <= 2500.0**2) - 0.25) < bound
        for sx in (1, -1):
            for sy in (1, -1):
                assert abs(np.mean((sx * x > 0) & (sy * y > 0)) - 0.25) < bound


class TestClassifyLinks:
    def test_low_altitude_far_marks_mostly_nlos(self, params):
        rng = episode_rng(4, 0)
        n = 100_000
        field = np.column_stack([np.full(n, 2000.0), np.zeros(n)])
        los = classify_links(field, Waypoint(0, 0, 31.0), params.env,
                             params.h_b, rng.random(n))
        # elevation near zero: the LoS floor is 1/(1 + a e^{ab}) ~ 0.0219
        assert los.mean() < 0.03

    def test_frozen_fraction_at_45_degrees(self, params):
        rng = episode_rng(5, 0)
        n = 100_000
        field = np.column_stack([np.full(n, 90.0), np.zeros(n)])
        los = classify_links(field, Waypoint(0, 0, 120.0), params.env,
                             params.h_b, rng.random(n))
        p = 0.9676918999472423
        assert abs(los.mean() - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_deterministic_under_seed(self, params):
        field = sample_ppp(1e-4, 500.0, episode_rng(6, 0))
        a = classify_links(field, Waypoint(0, 0, 120.0), params.env,
                           params.h_b, episode_rng(6, 1).random(len(field)))
        b = classify_links(field, Waypoint(0, 0, 120.0), params.env,
                           params.h_b, episode_rng(6, 1).random(len(field)))
        assert np.array_equal(a, b)


class TestAssociate:
    def test_single_gbs_both_policies(self, params):
        field = np.array([[40.0, 10.0]])
        los = np.array([True])
        uav = Waypoint(0, 0, 120.0)
        for policy in AssociationPolicy:
            got = associate(field, los, uav, params.with_(policy=policy))
            assert got is not None and got[0] == 0
            assert got[1] is LinkType.LOS

    def test_void_when_out_of_range(self, params):
        field = np.array([[3000.0, 0.0]])
        got = associate(field, np.array([True]), Waypoint(0, 0, 120.0), params)
        assert got is None

    def test_policies_agree_under_symmetric_channel(self, params):
        p = params.with_(channel=SYM_CHANNEL)
        for e in range(200):
            rng = episode_rng(7, e)
            field = sample_ppp(p.lambda_b, field_radius(p), rng)
            los = classify_links(field, Waypoint(0, 0, 120.0), p.env, p.h_b,
                                 rng.random(len(field)))
            uav = Waypoint(0, 0, 120.0)
            a = associate(field, los, uav, p)
            b = associate(field, los, uav,
                          p.with_(policy=AssociationPolicy.NEAREST))
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] == b[0]

    def test_exact_tie_resolves_to_lowest_index(self, params):
        field = np.array([[50.0, 0.0], [0.0, 50.0], [-50.0, 0.0]])
        los = np.array([True, True, True])
        got = associate(field, los, Waypoint(0, 0, 120.0), params)
        assert got[0] == 0


class TestSimulateEpisode:
    def test_kappa_one_implies_no_covered_handover(self, params):
        p = params.with_(kappa=1.0)
        for e in range(2000):
            o = simulate_episode(p, episode_rng(8, e))
            if o.covered:
                assert not o.handover

    def test_empty_network_is_void(self, params):
        p = params.with_(lambda_b=1e-12)
        o = simulate_episode(p, episode_rng(9, 0))
        assert o.associated_pre is None and o.associated_post is None
        assert not o.covered
        assert o.sir is None

    def test_no_motion_no_handover(self, params):
        p = params.with_(v=0.0, h_lb=119.999999, h_ub=120.000001)
        assert all(not simulate_episode(p, episode_rng(10, e)).handover
                   for e in range(10_000))

    def test_outcome_invariants(self, params):
        for e in range(2000):
            o = simulate_episode(params, episode_rng(11, e))
            if o.handover:
                assert o.associated_pre is not None
                assert o.associated_post is not None
            if o.covered:
                assert o.sir is not None and o.sir > params.t_thresh

    def test_scale_invariance_per_episode(self, params):
        scaled = params.with_(p_t=params.p_t * 7.0, g_b=params.g_b * 31.0)
        for e in range(500):
            a = simulate_episode(params, episode_rng(12, e))
            b = simulate_episode(scaled, episode_rng(12, e))
            assert a == b


class TestEstimate:
    def test_constant_metric(self, params):
        # an empty network is void on every episode
        est = summary_estimates(params.with_(lambda_b=1e-12), 500, 13)["void"]
        assert est.mean == 1.0
        assert est.ci_high == 1.0 and est.ci_low > 0.98

    def test_requires_minimum_trials(self, params):
        with pytest.raises(ParameterError):
            summary_estimates(params, 10, 1)

    def test_bit_identical_reruns(self, params):
        a = summary_estimates(params, 2000, 14)
        b = summary_estimates(params, 2000, 14)
        assert a == b

    def test_worker_count_does_not_change_result(self, params):
        serial = summary_estimates(params, 2000, 15, workers=1)
        parallel = summary_estimates(params, 2000, 15, workers=2)
        assert serial == parallel

    def test_wilson_interval_orders(self):
        lo, hi = wilson_interval(7, 10)
        assert 0.0 <= lo <= 0.7 <= hi <= 1.0


class TestBlockEpisodes:
    def test_blocks_fill_the_station_budget(self):
        # a block of several episodes holds at most BLOCK_STATIONS stations,
        # counting one for each episode's own draws, and is as large as the
        # budget allows up to rounding; a denser field is a block of its own
        budget = montecarlo.BLOCK_STATIONS
        means = np.concatenate([
            [0.0, MAX_MEAN_STATIONS],
            np.geomspace(1e-9, MAX_MEAN_STATIONS, 20_001),
            np.arange(4 * budget, dtype=float),
            budget / np.arange(1, 4 * budget) - 1.0,  # exact quotients
        ])
        means = means[(means >= 0.0) & (means <= MAX_MEAN_STATIONS)]
        for mean in means:
            size = montecarlo._block_episodes(float(mean))
            assert size >= 1
            if size > 1:
                assert size * (mean + 1.0) <= budget
            assert (size + 1) * (mean + 1.0) > budget * (1.0 - 1e-12)


class TestSegmentArgmax:
    def test_matches_argmax_per_segment(self):
        # small integers make exact ties common; empty segments anywhere
        rng = np.random.default_rng(0)
        for _ in range(200):
            sizes = rng.integers(0, 6, size=rng.integers(1, 12))
            metric = rng.integers(0, 3, size=sizes.sum()).astype(float)
            metric[rng.random(len(metric)) < 0.3] = -np.inf
            starts = np.cumsum(sizes) - sizes
            got = _segment_argmax(metric, starts, sizes)
            for b, (s, n) in enumerate(zip(starts, sizes)):
                seg = metric[s:s + n]
                want = (s + int(np.argmax(seg)) if n and np.max(seg) > -np.inf
                        else -1)
                assert got[b] == want

    def test_exact_ties_and_empty_segments(self):
        metric = np.array([1.0, 3.0, 3.0, -np.inf, -np.inf, 2.0, 2.0, 2.0, 5.0])
        sizes = np.array([0, 3, 0, 2, 3, 1, 0])
        starts = np.cumsum(sizes) - sizes
        assert _segment_argmax(metric, starts, sizes).tolist() == [
            -1, 1, -1, -1, 5, 8, -1]
        none = np.zeros(3, dtype=int)
        assert _segment_argmax(np.empty(0), none, none).tolist() == [-1, -1, -1]


class TestSegmentSums:
    @staticmethod
    def _alone(values, sizes):
        # each segment summed on its own, as simulate_episode sums its field
        ends = np.cumsum(sizes)
        return [_segment_sums(values[e - n:e], [n])[0] for n, e in zip(sizes, ends)]

    def test_matches_each_segment_alone(self):
        # empty segments anywhere, values over 15 decades
        rng = np.random.default_rng(1)
        for _ in range(200):
            sizes = rng.integers(0, 40, size=rng.integers(1, 12))
            sizes[rng.random(len(sizes)) < 0.3] = 0
            values = rng.random(sizes.sum()) * 10.0 ** rng.uniform(-10, 5, sizes.sum())
            got = _segment_sums(values, sizes)
            assert got.tolist() == self._alone(values, sizes)
            starts = np.cumsum(sizes) - sizes
            for b, (start, n) in enumerate(zip(starts, sizes)):
                assert got[b] == pytest.approx(math.fsum(values[start:start + n]),
                                               rel=1e-14, abs=0.0)

    def test_empty_segments_take_no_rows(self):
        # np.add.reduceat at every start would give an empty segment the
        # row at its start, and raise on a start past the end
        values = np.array([1.0, 2.0, 4.0, 8.0])
        assert _segment_sums(values, np.array([0, 2, 0, 1, 0, 1, 0])).tolist() == [
            0.0, 3.0, 0.0, 4.0, 0.0, 8.0, 0.0]
        assert _segment_sums(np.empty(0), np.zeros(3, dtype=int)).tolist() == [0.0] * 3

    def test_block_sums_skip_unmasked_episodes(self):
        # episodes with stations but none masked, between masked ones: the
        # rows of an unmasked episode must not reach its neighbour's sum
        field = _FieldBlock(40, 1e-4, 200.0, episode_rng(4, 0))
        episode = np.repeat(np.arange(40), field.sizes)
        mask = (field.x ** 2 + field.y ** 2 <= 100.0 ** 2) & (episode % 3 != 1)
        values = np.arange(1.0, len(field.x) + 1.0)
        want = [math.fsum(values[s:e][mask[s:e]])
                for s, e in zip(field.starts, field.ends)]
        assert np.all(field.sizes[1::3] > 0)
        assert sums(field, values, mask).tolist() == want

    def test_all_void_block(self):
        field = _FieldBlock(5, 1e-12, 200.0, episode_rng(4, 0))
        assert len(field.x) == 0
        assert sums(field, np.empty(0), np.empty(0, dtype=bool)).tolist() == [0.0] * 5

    def test_nothing_in_range_after_the_move(self, params):
        # non-empty fields, every station out of range of the UAV
        field = _FieldBlock(30, params.lambda_b, field_radius(params),
                            episode_rng(4, 0))
        assert np.all(field.sizes > 0)
        far, z = np.full(30, 1e4), np.full(30, 120.0)
        r_m = receiving_radius(z, params.h_b, params.antenna)
        rows, sizes, los, gains, _, serving = field.serve(far, far, z, r_m, params)
        assert len(rows) == len(los) == len(gains) == 0
        assert sizes.tolist() == [0] * 30 and serving.tolist() == [-1] * 30
        assert _segment_sums(gains, sizes).tolist() == [0.0] * 30


def _draw_args(args, size):
    """A draw's arguments, a size= keyword taken as the last of them."""
    return args if size is None else (*args, size)


class _Recorder:
    """A Generator that logs each draw: method, arguments and result."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        def draw(*args, size=None):
            args = _draw_args(args, size)
            out = getattr(self._rng, name)(*args)
            # a copy: the engine may work on its draws in place
            self.calls.append((name, args, np.copy(out)))
            return out
        return draw


class _Replay:
    """Serves one episode's share of a block's draws, in order; each call
    must name the method and arguments the share records. An entry may
    also be a _Slices, which records the next slice of a block's draw."""

    def __init__(self, share):
        self.share = list(share)

    def __getattr__(self, name):
        def draw(*args, size=None):
            args = _draw_args(args, size)
            want = self.share.pop(0)
            if isinstance(want, _Slices):
                want = want.next(args[-1])
            want, want_args, value = want
            assert want == name and len(args) == len(want_args)
            assert all(np.array_equal(a, b) for a, b in zip(args, want_args))
            return value
        return draw


class _Slices:
    """Consecutive slices of one recorded scalar-parameter draw of a block,
    draw(*law, size=n): the NLoS fading of the stations in range after
    the move, the LoS fading of the LoS ones among them, or the LoS latents
    of the kept stations, in row order; how many each episode takes only
    the episode's own steps say."""

    def __init__(self, call):
        self.name, (*self.law, _), self.out = call
        self.used = 0

    def next(self, n: int):
        rows = slice(self.used, self.used + n)
        self.used = rows.stop
        return self.name, (*self.law, n), self.out[rows]


def _record_blocks(monkeypatch) -> list:
    """Make the estimators draw through recorders, one per block."""
    blocks = []

    def recording_rng(seed, k):
        blocks.append(_Recorder(episode_rng(seed, k)))
        return blocks[-1]

    monkeypatch.setattr(montecarlo, "episode_rng", recording_rng)
    return blocks


def _field_shares(calls):
    """Per episode of a block, its share of the block's field draws (square
    counts, each episode's from its own Poisson mean, then x and y of all
    points in one call, then the LoS latents of the kept stations, as many
    as the episode's own steps keep)."""
    (_, (mean,), counts), (_, _, u), latent = calls
    x, y = np.split(u, 2)
    latent = _Slices(latent)
    ends = np.cumsum(counts)
    for m, n_b, s, e in zip(mean, counts, ends - counts, ends):
        yield [("poisson", (m,), n_b),
               ("random", (2 * n_b,), np.concatenate([x[s:e], y[s:e]])),
               latent]
    assert latent.used == len(latent.out)


def _summary_counts(outcomes) -> dict:
    serving = [o.associated_pre and o.associated_pre[1] for o in outcomes]
    return {
        "coverage": sum(o.covered for o in outcomes),
        "handover": sum(o.handover for o in outcomes),
        "association_los": serving.count(LinkType.LOS),
        "association_nlos": serving.count(LinkType.NLOS),
        "void": sum(o.associated_pre is None for o in outcomes),
    }


def _assert_summary(summary: dict, counts: dict, n: int, seed: int):
    assert set(summary) == set(counts)
    for key, count in counts.items():
        est = summary[key]
        assert (est.mean, est.n, est.seed) == (count / n, n, seed)
        assert (est.ci_low, est.ci_high) == wilson_interval(count, n)


def _static_association(field, latent, uav, params) -> str:
    los = classify_links(field, uav, params.env, params.h_b, latent)
    got = associate(field, los, uav, params)
    return ("void" if got is None else "association_los"
            if got[1] is LinkType.LOS else "association_nlos")


class TestSummaryEstimates:
    @pytest.mark.parametrize("overrides, n", ENGINE_CASES)
    def test_matches_single_metric_estimates(self, params, overrides, n,
                                             monkeypatch):
        # with one episode per block, block e draws from episode_rng(seed, e)
        # exactly as simulate_episode does, so each metric equals a plain
        # loop of simulate_episode over the same streams
        monkeypatch.setattr(montecarlo, "BLOCK_STATIONS", 1)
        seed = 16
        params = params.with_(**overrides)
        summary = full_field.summary_estimates(params, n, seed)
        outcomes = [simulate_episode(params, episode_rng(seed, e))
                    for e in range(n)]
        _assert_summary(summary, _summary_counts(outcomes), n, seed)

    @pytest.mark.parametrize("overrides, n", REPLAY_CASES)
    def test_blocks_replay_into_simulate_episode(self, params, overrides, n,
                                                 monkeypatch):
        # blocks of many episodes (11 for omni at the baseline density, one
        # in the dense case); n is no multiple of a block's episode count.
        # Each episode's share of its block's draws, replayed into
        # simulate_episode, gives the same counts
        seed = 16
        params = params.with_(**overrides)
        blocks = _record_blocks(monkeypatch)
        summary = full_field.summary_estimates(params, n, seed)
        outcomes = []
        for block in blocks:
            ((_, _, alt), (_, (scale, _), rho), (_, _, theta), *field,
             nlos, los, (_, _, coin)) = block.calls
            # the block draws NLoS fading for its stations in range after
            # the move, then LoS fading for the LoS ones, each in row
            # order: each episode takes as many of each as it has
            fading = [_Slices(nlos), _Slices(los)]
            for b, share in enumerate(_field_shares(field)):
                replay = _Replay(
                    [("random", (2,), alt[b]), ("rayleigh", (scale,), rho[b]),
                     ("random", (), theta[b])] + share
                    + fading + [("random", (), coin[b])])
                outcomes.append(simulate_episode(params, replay))
                assert replay.share == []
            assert all(f.used == len(f.out) for f in fading)
        assert len(outcomes) == n
        _assert_summary(summary, _summary_counts(outcomes), n, seed)

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="baseline"),
        pytest.param({"lambda_b": 1e-5, "antenna": OMNI}, id="omni-10"),
        pytest.param({"antenna": DirectionalAntenna(30.0)}, id="beam-30"),
        pytest.param({"v": 60.0}, id="v-60"),
        pytest.param({"h_lb": 40.0, "h_ub": 300.0}, id="band-40-300"),
    ])
    def test_episode_field_holds_every_station_in_range(self, params,
                                                        overrides):
        # blocks drawn on the whole disc field_radius(p), served before and
        # after the move once as drawn and once without the stations beyond
        # each episode's R_b: the same stations in range, the same picks
        p = params.with_(**overrides)
        episodes = 1000
        rng = episode_rng(17, 0)
        z = p.h_lb + (p.h_ub - p.h_lb) * rng.random((episodes, 2))
        z_pre, z_post = z.T
        rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * p.mu), episodes)
        v_h = horizontal_speed(p.v, rho, z_post - z_pre)
        heading = 2.0 * np.pi * rng.random(episodes)
        whole = _FieldBlock(episodes, p.lambda_b, field_radius(p), rng)
        r_m = receiving_radius(z, p.h_b, p.antenna)
        radius = montecarlo._episode_radius(r_m, v_h)
        kept, sizes = whole.compact(whole.x ** 2 + whole.y ** 2
                                    <= whole.spread(radius) ** 2)
        part = object.__new__(_FieldBlock)
        part.x, part.y = whole.x[kept], whole.y[kept]
        part.latent = whole.latent[kept]
        part._index(sizes)
        assert len(kept) < len(whole.x)
        origin = np.zeros(episodes)
        for wx, wy, alt, r in ((origin, origin, z_pre, r_m[:, 0]),
                               (v_h * np.cos(heading), v_h * np.sin(heading),
                                z_post, r_m[:, 1])):
            rows, *got, _, pick = whole.serve(wx, wy, alt, r, p)
            part_rows, *part_got, _, part_pick = part.serve(wx, wy, alt, r, p)
            assert np.array_equal(kept[part_rows], rows)
            for a, b in zip(part_got, got):  # sizes, link types, gains
                assert np.array_equal(a, b)
            assert np.array_equal(part_pick, pick)
            assert np.any(pick >= 0)

    def test_handover_nondecreasing_in_density_and_speed(self, params):
        by_density = [summary_estimates(params.with_(lambda_b=lam * 1e-6),
                                        20_000, 18)["handover"]
                      for lam in (10.0, 100.0, 500.0)]
        for a, b in zip(by_density, by_density[1:]):
            assert b.mean > a.mean - (a.half_width + b.half_width)
        by_speed = [summary_estimates(params.with_(v=v), 20_000, 19)["handover"]
                    for v in (0.0, 20.0, 40.0)]
        for a, b in zip(by_speed, by_speed[1:]):
            assert b.mean > a.mean - (a.half_width + b.half_width)

    @pytest.mark.parametrize("overrides, n", [
        ({}, 4000),
        ({"lambda_b": 1e-3, "antenna": OMNI}, 1200),
    ], ids=("baseline", "dense-omni"))
    def test_receiving_radius_once_per_block(self, params, monkeypatch,
                                             overrides, n):
        # field_radius's call, then one per block for both waypoints of
        # all its episodes, whatever the disc grows through
        p = params.with_(**overrides)
        near = montecarlo._near_radius(p.lambda_b, field_radius(p))
        blocks = -(-n // montecarlo._block_episodes(p.lambda_b * np.pi * near * near))
        assert blocks > 1
        calls = []

        def counting(*args):
            calls.append(args)
            return receiving_radius(*args)

        monkeypatch.setattr(montecarlo, "receiving_radius", counting)
        summary_estimates(p, n, 5)
        assert len(calls) == 1 + blocks


HIGH_RISE = EnvironmentParams(a=27.23, b=0.08)


class TestNearField:
    """summary_estimates draws a first disc of about ORIGIN_CANDIDATES
    stations, grows it by annuli until the picks before and after the move
    stand, and integrates the stations outside it; the full-field tally of
    tests/full_field.py is its reference."""

    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    def test_counts_equal_the_full_field_where_the_disc_is_the_field(
            self, params, policy):
        # at the baseline the first disc is the whole field, so every draw
        # up to the fading is the full-field tally's
        p = params.with_(policy=policy)
        r_field = field_radius(p)
        assert montecarlo._near_radius(p.lambda_b, r_field) == r_field
        got = summary_estimates(p, 3000, 23)
        want = full_field.summary_estimates(p, 3000, 23)
        for key in ("handover", "association_los", "association_nlos", "void"):
            assert got[key] == want[key]

    @pytest.mark.parametrize("overrides, n, candidates", [
        pytest.param({}, 10_000, ORIGIN_CANDIDATES, id="baseline"),
        pytest.param({"policy": NEAREST}, 10_000, ORIGIN_CANDIDATES,
                     id="nearest"),
        pytest.param({"kappa": 1.0, "v": 60.0}, 10_000, ORIGIN_CANDIDATES,
                     id="kappa-one"),
        pytest.param({"lambda_b": 1e-3, "antenna": OMNI}, 1000,
                     ORIGIN_CANDIDATES, id="dense-omni"),
        pytest.param({"lambda_b": 1e-5, "antenna": OMNI}, 5000,
                     ORIGIN_CANDIDATES, id="omni-10"),
        pytest.param({"lambda_b": 1e-5, "antenna": OMNI,
                      "policy": NEAREST}, 5000, ORIGIN_CANDIDATES,
                     id="omni-10-nearest"),
        # NLoS serves about 44 % of the episodes
        pytest.param({"lambda_b": 1e-5, "antenna": OMNI,
                      "env": HIGH_RISE, "h_lb": 40.0, "h_ub": 80.0}, 5000,
                     ORIGIN_CANDIDATES, id="nlos-heavy"),
        # a one-station first disc of 178 m: half the episodes grow it,
        # by 0.84 doublings on average
        pytest.param({"lambda_b": 1e-5, "antenna": OMNI}, 3000, 1,
                     id="omni-10-one-station-disc"),
    ])
    def test_agrees_with_the_full_field(self, params, overrides, n,
                                        candidates, monkeypatch):
        # every column within the two estimates' joint interval: coverage
        # is a mean of conditional probabilities, the rest indicators
        monkeypatch.setattr(montecarlo, "ORIGIN_CANDIDATES", candidates)
        p = params.with_(**overrides)
        got = summary_estimates(p, n, 31)
        want = full_field.summary_estimates(p, n, 31)
        for key, est in got.items():
            assert (abs(est.mean - want[key].mean)
                    <= est.half_width + want[key].half_width), key

    @given(st.lists(st.tuples(st.floats(0.0, 1e4),
                              st.floats(BOUNDARY_DEFAULTS["h_lb"],
                                        BOUNDARY_DEFAULTS["h_ub"])),
                    min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_strongest_rss_bound_is_the_larger_law_at_the_clearance(self, points):
        # the bound written out inline, on edge = c^2 + (z - h_b)^2, bit for
        # bit: a pick of exactly that gain does not stand, one a float above
        # it does
        p = default_params()
        ch = p.channel
        c, z = np.array(points).T
        edge = c * c + (z - p.h_b) ** 2
        bound = (1.0 + montecarlo.DISC_MARGIN) * np.maximum(
            ch.eta_l * edge ** (-0.5 * ch.alpha_l),
            ch.eta_n * edge ** (-0.5 * ch.alpha_n))
        assert not np.any(montecarlo._stands(bound, c, np.inf, z, p))
        assert np.all(montecarlo._stands(np.nextafter(bound, np.inf), c,
                                         np.inf, z, p))

    def test_grow_appends_each_episodes_annulus(self):
        field = _FieldBlock(6, 1e-4, 100.0, episode_rng(5, 0))
        old = [np.column_stack([field.x[a:b], field.y[a:b]])
               for a, b in zip(field.starts, field.ends)]
        old_latent = [field.latent[a:b] for a, b in zip(field.starts, field.ends)]
        field.grow(np.array([1, 4]), 250.0, episode_rng(5, 1))
        assert field.radius.tolist() == [100.0, 200.0, 100.0, 100.0, 200.0, 100.0]
        for b, (a, e) in enumerate(zip(field.starts, field.ends)):
            xy = np.column_stack([field.x[a:e], field.y[a:e]])
            assert np.array_equal(xy[:len(old[b])], old[b])
            assert np.array_equal(field.latent[a:e][:len(old[b])], old_latent[b])
            r = np.hypot(*xy[len(old[b]):].T)
            assert np.all((r > 100.0) & (r <= 200.0))
            assert (len(r) > 0) == (b in (1, 4))
        field.grow(np.array([4]), 250.0, episode_rng(5, 2))
        assert field.radius[4] == 250.0

    def test_grown_disc_is_a_ppp(self):
        # 4000 discs of radius 100 m at 1e-4 per m^2 grown to 200 m: counts
        # Poisson with mean 4 pi, uniform on the disc
        field = _FieldBlock(4000, 1e-4, 100.0, episode_rng(6, 0))
        field.grow(np.arange(4000), 1e3, episode_rng(6, 1))
        mean = 1e-4 * np.pi * 200.0 ** 2
        assert abs(field.sizes.mean() - mean) < 4.0 * math.sqrt(mean / 4000)
        assert abs(field.sizes.var() / mean - 1.0) < 0.1
        r = np.sqrt(field.x ** 2 + field.y ** 2) / 200.0
        assert stats.kstest(r * r, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    def test_picks_stand_against_the_whole_field(self, params, policy):
        # a near field whose annuli reveal a drawn whole field picks, before
        # and after the move, the station the whole field picks; a first
        # disc of 100 m and moves of up to 60 m put many picks near the
        # disc's edge
        class Revealed(_FieldBlock):
            def __init__(self, whole, radius):
                self.lambda_b, self.whole = whole.lambda_b, whole
                self.radius = np.full(len(whole.sizes), radius)
                rows = np.flatnonzero(whole.x ** 2 + whole.y ** 2 <= radius * radius)
                self.x, self.y, self.latent = (
                    whole.x[rows], whole.y[rows], whole.latent[rows])
                self._index(np.diff(np.searchsorted(rows, whole.ends), prepend=0))

            def annulus(self, todo, outer, rng):
                w = self.whole
                grown = np.zeros(len(w.sizes))
                grown[todo] = outer
                r2 = w.x ** 2 + w.y ** 2
                new = np.flatnonzero(
                    (r2 > np.repeat(self.radius, w.sizes) ** 2)
                    & (r2 <= np.repeat(grown, w.sizes) ** 2))
                episode = np.repeat(np.arange(len(w.sizes)), w.sizes)
                return episode[new], w.x[new], w.y[new], w.latent[new]

        p = params.with_(lambda_b=1e-5, antenna=OMNI, policy=policy,
                         v=60.0)
        r_field, episodes = field_radius(p), 4000
        rng = episode_rng(12, 0)
        z_pre, z_post = p.h_lb + (p.h_ub - p.h_lb) * rng.random((2, episodes))
        v_h = p.v * rng.random(episodes)
        heading = 2.0 * np.pi * rng.random(episodes)
        wx, wy = v_h * np.cos(heading), v_h * np.sin(heading)
        whole = _FieldBlock(episodes, p.lambda_b, r_field, rng)
        near = Revealed(whole, 100.0)
        grew = 0
        for x, y, z, reach in ((np.zeros(episodes), np.zeros(episodes), z_pre,
                                np.zeros(episodes)), (wx, wy, z_post, v_h)):
            r_m = receiving_radius(z, p.h_b, p.antenna)
            rows, _, _, _, _, want = whole.serve(x, y, z, r_m, p)
            near_rows, *_, got = near.settle(x, y, z, r_m, reach,
                                             np.full(episodes, r_field), p, None)
            assert np.array_equal(got >= 0, want >= 0)
            served = want >= 0
            assert np.array_equal(near.x[near_rows[got[served]]],
                                  whole.x[rows[want[served]]])
            grew = np.count_nonzero(near.radius > 100.0)
        assert 0 < grew < episodes

    @pytest.mark.parametrize("antenna", [default_params().antenna, OMNI],
                             ids=("directional", "omni"))
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda l: l.name)
    def test_exterior_matches_the_analytic_rows(self, params, antenna, serving):
        # a UAV above the disc's centre (v_h = 0) with the disc's radius the
        # serving distance r0: the exterior is the analytic nearest rule's
        # interferer field, on the same radial nodes
        p = params.with_(policy=NEAREST, antenna=antenna)
        z = np.repeat([95.0, 120.0, 145.0], 5)
        r_m = receiving_radius(z, p.h_b, antenna)
        r0 = r_m * np.tile([0.01, 0.1, 0.3, 0.6, 0.9], 3)
        x, w = montecarlo._exterior_nodes(r0, np.zeros(15), z, r_m, p)
        panels = analytic._interference_nodes(dict.fromkeys(LinkType, r0), z, p,
                                              montecarlo.N_TAIL)
        for x_an, w_an in panels.values():
            assert np.array_equal(x[:, montecarlo.N_PHI:], x_an)
            assert np.array_equal(w[:, montecarlo.N_PHI:], w_an)
        assert np.all(w[:, :montecarlo.N_PHI] == 0.0)
        s = p.channel.m(serving) * p.t_thresh / path_loss(serving, r0, z,
                                                          p.channel, p.h_b)
        got = analytic._exponent_terms(s, analytic._panel_terms(
            dict.fromkeys(LinkType, (x, w)), z, p), p, 2)
        want = analytic._exponent_terms(s, analytic._panel_terms(panels, z, p), p, 2)
        for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
            assert np.allclose(a, b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("antenna", [DirectionalAntenna(170.0), OMNI],
                             ids=("directional-170", "omni"))
    def test_exterior_nodes_measure_the_exterior(self, params, antenna):
        # the weights integrate 2 pi rho to the area of the receiving disc
        # about the UAV outside the disc: discs inside the receiving one,
        # cut by its edge, and v_h from 0 to 20 m
        p = params.with_(antenna=antenna)
        rng = np.random.default_rng(9)
        z = rng.uniform(p.h_lb, p.h_ub, 300)
        v_h = np.concatenate([np.zeros(50), rng.uniform(0.0, p.v, 250)])
        r_m = receiving_radius(z, p.h_b, antenna)
        radius = v_h + rng.uniform(1e-3, 1.0, 300) * r_m
        x, w = montecarlo._exterior_nodes(radius, v_h, z, r_m, p)
        area = lens_complement_area(x=radius, y=r_m, v=v_h)
        assert np.allclose(2.0 * np.pi * np.sum(w * x, axis=1), area,
                           rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("overrides", [
        {"lambda_b": 1e-5, "antenna": OMNI},
        {"lambda_b": 1e-3, "antenna": OMNI},
        {"lambda_b": 1e-5, "antenna": DirectionalAntenna(170.0)},
        {"lambda_b": 1e-5, "antenna": OMNI,
         "channel": replace(default_params().channel, m_l=8), "t_thresh": 100.0},
    ], ids=("omni-10", "dense-omni", "directional-170", "omni-m8-20dB"))
    def test_exterior_nodes_converged(self, params, overrides, monkeypatch):
        # doubling the nodes, of the annulus's angle rule and of the tail,
        # moves the conditional coverage by at most 1e-7 on random rows:
        # discs of the first radius times 1, 2 or 4, cut below r_m + v_h,
        # serving LoS stations inside radius - v_h
        p = params.with_(**overrides)
        rng = np.random.default_rng(8)
        z = rng.uniform(p.h_lb, p.h_ub, 200)
        v_h = rng.uniform(0.0, p.v, 200)
        r_m = receiving_radius(z, p.h_b, p.antenna)
        radius = np.minimum(montecarlo._near_radius(p.lambda_b, field_radius(p))
                            * 2.0 ** rng.integers(0, 3, 200), r_m + v_h - 1.0)
        d = rng.uniform(0.0, 1.0, 200) * (radius - v_h)
        s = p.channel.m_l * p.t_thresh / path_loss(LinkType.LOS, d, z,
                                                   p.channel, p.h_b)
        coverage = []
        n_phi = montecarlo.N_PHI
        for factor in (1, 2):
            monkeypatch.setattr(montecarlo, "N_PHI", factor * n_phi)
            nodes = montecarlo._exterior_nodes(radius, v_h, z, r_m, p,
                                               factor * montecarlo.N_TAIL)
            terms = analytic._panel_terms(dict.fromkeys(LinkType, nodes), z, p)
            coverage.append(sum(analytic._coverage_series(*analytic._exponent_terms(
                s, terms, p, p.channel.m_l - 1))))
        assert np.max(np.abs(coverage[1] - coverage[0])) <= 1e-7


class TestStaticAssociation:
    @pytest.mark.parametrize("overrides, n", ENGINE_CASES)
    def test_matches_episode_loop(self, params, overrides, n, monkeypatch):
        # one episode per block: the block engine against a plain loop of
        # the per-episode steps over episode_rng(seed, e)
        monkeypatch.setattr(montecarlo, "BLOCK_STATIONS", 1)
        seed, z = 20, 120.0
        params = params.with_(**overrides)
        r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
        uav = Waypoint(0.0, 0.0, z)
        counts = {"association_los": 0, "association_nlos": 0, "void": 0}
        for e in range(n):
            rng = episode_rng(seed, e)
            field = sample_ppp(params.lambda_b, r_field, rng)
            counts[_static_association(field, rng.random(len(field)), uav,
                                       params)] += 1
        estimates = association_estimate(params, z, n, seed)
        assert {k: (e.mean, e.n, e.seed) for k, e in estimates.items()} == {
            k: (c / n, n, seed) for k, c in counts.items()}

    @pytest.mark.parametrize("overrides, n", REPLAY_CASES)
    def test_blocks_replay_into_episode_steps(self, params, overrides, n,
                                              monkeypatch):
        # blocks of many episodes: each episode's share of its block's
        # draws, replayed into sample_ppp and classify_links
        seed, z = 20, 120.0
        params = params.with_(**overrides)
        r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
        uav = Waypoint(0.0, 0.0, z)
        blocks = _record_blocks(monkeypatch)
        estimates = association_estimate(params, z, n, seed)
        counts = {"association_los": 0, "association_nlos": 0, "void": 0}
        for block in blocks:
            for share in _field_shares(block.calls):
                replay = _Replay(share)
                field = sample_ppp(params.lambda_b, r_field, replay)
                counts[_static_association(
                    field, replay.random(len(field)), uav, params)] += 1
                assert replay.share == []
        assert sum(counts.values()) == n
        assert {k: (e.mean, e.n, e.seed) for k, e in estimates.items()} == {
            k: (c / n, n, seed) for k, c in counts.items()}

    def test_matches_analytic_association(self, params):
        from quadpack import association_probability

        got = association_estimate(params, 120.0, 20_000, 20)
        for link, key in ((LinkType.LOS, "association_los"),
                          (LinkType.NLOS, "association_nlos")):
            analytic = association_probability(link, 120.0, params)
            est = got[key]
            # 99% Wilson-style check via the reported 95% interval widened
            slack = 1.5 * (est.ci_high - est.ci_low) / 2 + 1e-4
            assert abs(analytic - est.mean) < slack


def _beaten(field, latent, uav, r0, serving, params) -> np.ndarray:
    """Per station, whether associate picks it over the pinned GBS at
    (r0, 0) of type serving on the two-station field {station, pinned}."""
    los = classify_links(field, uav, params.env, params.h_b, latent)
    out = []
    for position, mark in zip(field, los):
        pair = np.array([position, [r0, 0.0]])
        got = associate(pair, np.array([mark, serving is LinkType.LOS]), uav,
                        params)
        out.append(got is not None and got[0] == 0)
    return np.array(out, dtype=bool)


def _pinned_handover(params, r0, z_t, serving, rng) -> bool:
    """One episode of the conditioned handover experiment, step by step."""
    band = params.h_ub - params.h_lb
    z_pre = params.h_lb + band * rng.random()
    field = sample_ppp(params.lambda_b, field_radius(params), rng)
    latent = rng.random(len(field))
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu))
    theta = np.pi * rng.random()
    keep = ~_beaten(field, latent, Waypoint(0.0, 0.0, z_pre), r0, serving,
                    params)
    v_h = horizontal_speed(params.v, rho, z_t - z_pre)
    end = Waypoint(v_h * np.cos(theta), v_h * np.sin(theta), z_t)
    kept = field[keep]
    los = np.append(classify_links(kept, end, params.env, params.h_b,
                                   latent[keep]), serving is LinkType.LOS)
    got = associate(np.vstack([kept, [[r0, 0.0]]]), los,
                    end, params)
    return got is not None and got[0] != len(kept)


def _pinned_interference(params, r0, z, serving, r_field, rng) -> float:
    """One episode's interference under the pinned conditioning: faded
    gains of the in-range stations that associate does not pick over the
    pinned GBS. Fading is drawn for those stations only, in index order:
    the NLoS law for all of them, then the LoS law for the LoS ones."""
    field = sample_ppp(params.lambda_b, r_field, rng)
    latent = rng.random(len(field))
    uav = Waypoint(0.0, 0.0, z)
    los = classify_links(field, uav, params.env, params.h_b, latent)
    keep = ~_beaten(field, latent, uav, r0, serving, params)
    ch = params.channel
    x, y = field.T
    d = np.sqrt(x * x + y * y)
    gains = np.where(los, path_loss(LinkType.LOS, d, z, ch, params.h_b),
                     path_loss(LinkType.NLOS, d, z, ch, params.h_b))
    in_range = d <= receiving_radius(z, params.h_b, params.antenna)
    summed = np.flatnonzero(keep & in_range)
    fading = sample_fading(LinkType.NLOS, ch, rng, len(summed))
    summed_los = np.flatnonzero(los[summed])
    fading[summed_los] = sample_fading(LinkType.LOS, ch, rng, len(summed_los))
    # summed in the engine's order, which np.sum's differs from in the
    # last bit for about a third of these episodes
    powers = gains[summed] * fading
    return float(_segment_sums(powers, [len(powers)])[0])


class TestConditionedOracles:
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda t: t.value)
    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("overrides, r0", [
        pytest.param({}, 50.0, id="directional"),
        # a 1 km omni footprint at 10/km^2: about 36 stations per field
        pytest.param({"antenna": OmniAntenna(1000.0), "lambda_b": 1e-5}, 200.0,
                     id="omni"),
    ])
    def test_matches_episode_loop(self, params, overrides, r0, policy, serving,
                                  monkeypatch):
        # one episode per block: conditioning by restriction against a plain
        # loop that drops, before the move, every station associate picks
        # over the pinned GBS, and re-associates the rest with the pinned
        # GBS after it
        monkeypatch.setattr(montecarlo, "BLOCK_STATIONS", 1)
        p = params.with_(policy=policy, **overrides)
        n, seed, z_t = 300, 23, 120.0
        signal_gain = path_loss(serving, r0, z_t, p.channel, p.h_b)
        # exp(-tau P_t G I) = exp(-T I / signal gain)
        tau = p.t_thresh / (p.p_t * p.g_tot * signal_gain)
        oracles = conditioned_oracles(p, r0, z_t, serving, n, seed)
        laplace = laplace_estimate(p, serving, r0, z_t, tau, n, seed)

        handovers = sum(_pinned_handover(p, r0, z_t, serving,
                                         episode_rng(seed, e))
                        for e in range(n))
        cov_seed = oracles["coverage"].seed
        covered = 0
        cov_interference = []
        for e in range(n):
            rng = episode_rng(cov_seed, e)
            interference = _pinned_interference(p, r0, z_t, serving,
                                                field_radius(p), rng)
            cov_interference.append(interference)
            signal = signal_gain * sample_fading(serving, p.channel, rng, 1)[0]
            covered += (interference <= 0.0
                        or signal / interference > p.t_thresh)
        engine_interference = np.concatenate([
            i for _, i in _conditioned_interference(
                p, r0, z_t, serving, field_radius(p), n, cov_seed)])
        r_field = receiving_radius(z_t, p.h_b, p.antenna) + 1.0
        interference = np.array([
            _pinned_interference(p, r0, z_t, serving, r_field,
                                 episode_rng(seed, e)) for e in range(n)])
        terms = np.exp(-tau * (p.p_t * p.g_tot * interference))

        # with the nearest policy and an NLoS server coverage is about
        # 0.002, so covered may be 0 here: the coverage experiment's
        # interference is matched episode by episode as well
        assert 0 < handovers < n and covered < n and 0.0 < laplace < 1.0
        assert 0 < np.count_nonzero(cov_interference)
        assert engine_interference.tolist() == cov_interference
        assert (oracles["handover"].mean, oracles["handover"].seed) == (
            handovers / n, seed)
        assert oracles["coverage"].mean == covered / n
        assert laplace == sum(terms.tolist()) / n

    def test_runs_where_rejection_could_not(self, params):
        # strongest RSS with an NLoS server at 50 m: a LoS station beats it
        # in nearly every field, and rejection sampling gave up after 20 001
        # draws; restriction needs no redraw (about 0.4 s on a 2-core machine)
        start = time.perf_counter()
        got = conditioned_oracles(params, 50.0, 120.0, LinkType.NLOS, 20_000, 5)
        assert time.perf_counter() - start < 10.0
        for est in got.values():
            assert 0.0 < est.mean < 1.0 and est.n == 20_000

    def test_sparse_remainder_field(self, params):
        p = params.with_(lambda_b=1e-8)
        got = conditioned_oracles(p, 50.0, 120.0, LinkType.LOS, 500, 21)
        assert got["handover"].mean < 0.01
        assert got["coverage"].mean == 1.0  # no interferers, SIR infinite

    def test_conditioning_validates_inputs(self, params):
        with pytest.raises(ParameterError):
            conditioned_oracles(params, 1e4, 120.0, LinkType.LOS, 500, 1)


class TestFieldBudget:
    def test_oversized_field_rejected_before_sampling(self, params, monkeypatch):
        # beamwidth 179.9 degrees at 1000/km^2: r_m is about 137 km, so a
        # field would hold about 6e7 stations
        wide = params.with_(lambda_b=1e-3,
                            antenna=DirectionalAntenna(179.9))
        assert wide.lambda_b * math.pi * field_radius(wide) ** 2 > MAX_MEAN_STATIONS

        def no_draw(*args):
            raise AssertionError("sampled a field above the budget")

        monkeypatch.setattr(montecarlo, "sample_ppp", no_draw)
        monkeypatch.setattr(montecarlo, "_FieldBlock", no_draw)
        calls = [
            lambda: summary_estimates(wide, 1000, 1),
            lambda: association_estimate(wide, 120.0, 1000, 1),
            lambda: conditioned_oracles(wide, 50.0, 120.0, LinkType.LOS, 1000, 1),
            lambda: laplace_estimate(wide, LinkType.LOS, 50.0, 120.0, 1.0, 1000, 1),
        ]
        for call in calls:
            start = time.perf_counter()
            with pytest.raises(ParameterError, match="budget"):
                call()
            assert time.perf_counter() - start < 1.0


PINNED_ESTIMATES = json.loads((Path(__file__).parent / "data"
                               / "mc_points.json").read_text())["points"]


class TestPinnedEstimates:
    """summary_estimates at three points, pinned in tests/data/mc_points.json:
    the baseline, which takes no exterior rows, and two omni points whose
    near fields take analytic._exponent_terms' exterior rows. Only a
    declared RNG-layout or model change re-pins the file."""

    @pytest.mark.parametrize("point", PINNED_ESTIMATES, ids=lambda p: p["name"])
    def test_matches_pinned_estimates(self, point):
        n = point["episodes"]
        got = summary_estimates(params_from_boundary(
            {**BOUNDARY_DEFAULTS, **point["overrides"]}), n, point["seed"])
        for key in ("handover", "association_los", "association_nlos", "void"):
            assert got[key].mean == point[key] / n, key
        # numpy's SIMD transcendental functions differ across CPUs in the
        # last bits, and coverage sums them
        assert got["coverage"].mean == pytest.approx(point["coverage"], rel=1e-9,
                                                     abs=0.0)
