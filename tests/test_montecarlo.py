import math
import time

import numpy as np
import pytest

from uavcov import montecarlo
from uavcov.errors import ParameterError
from uavcov.geometry import receiving_radius
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    Waypoint,
    horizontal_speed,
    path_loss,
    sample_fading,
)
from uavcov.montecarlo import (
    MAX_MEAN_STATIONS,
    ORIGIN_CANDIDATES,
    GbsField,
    _segment_argmax,
    associate,
    association_estimate,
    classify_links,
    conditioned_oracles,
    episode_rng,
    field_radius,
    laplace_estimate,
    sample_ppp,
    simulate_episode,
    summary_estimates,
    wilson_interval,
)

SYM_CHANNEL = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                            m_l=2, m_n=2)
NEAREST = AssociationPolicy.NEAREST

# (overrides, episodes): the policy x antenna grid at the baseline density,
# an empty network (every block all-void) and a dense field of about 29,600
# stations, above montecarlo.BLOCK_STATIONS, so each block is one episode
ENGINE_CASES = [
    pytest.param({}, 2000, id="strongest_rss-directional"),
    pytest.param({"policy": NEAREST}, 2000, id="nearest-directional"),
    pytest.param({"antenna": OmniAntenna()}, 500, id="strongest_rss-omni"),
    pytest.param({"policy": NEAREST, "antenna": OmniAntenna()}, 500,
                 id="nearest-omni"),
    pytest.param({"lambda_b": 1e-12}, 500, id="empty"),
    pytest.param({"lambda_b": 1e-3, "antenna": OmniAntenna()}, 100, id="dense"),
]
# and a sparse omni field of about 290 stations, 13 episodes per block
REPLAY_CASES = ENGINE_CASES + [
    pytest.param({"lambda_b": 1e-5, "antenna": OmniAntenna()}, 500,
                 id="sparse-omni"),
]


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
        assert np.all(np.hypot(field.positions[:, 0], field.positions[:, 1])
                      <= 500.0)

    def test_radial_and_angular_laws(self):
        # uniform on the disc: a quarter of the points within r_field / 2 and
        # a quarter in each quadrant, each within 4 binomial deviations
        field = sample_ppp(1e-3, 5000.0, episode_rng(3, 1))
        x, y = field.positions.T
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
        field = GbsField(np.column_stack([np.full(n, 2000.0), np.zeros(n)]))
        los = classify_links(field, Waypoint(0, 0, 31.0), params.env,
                             params.h_b, rng.random(n))
        # elevation near zero: the LoS floor is 1/(1 + a e^{ab}) ~ 0.0219
        assert los.mean() < 0.03

    def test_frozen_fraction_at_45_degrees(self, params):
        rng = episode_rng(5, 0)
        n = 100_000
        field = GbsField(np.column_stack([np.full(n, 90.0), np.zeros(n)]))
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
        field = GbsField(np.array([[40.0, 10.0]]))
        los = np.array([True])
        uav = Waypoint(0, 0, 120.0)
        for policy in AssociationPolicy:
            got = associate(field, los, uav, params.with_(policy=policy))
            assert got is not None and got[0] == 0
            assert got[1] is LinkType.LOS

    def test_void_when_out_of_range(self, params):
        field = GbsField(np.array([[3000.0, 0.0]]))
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
        field = GbsField(np.array([[50.0, 0.0], [0.0, 50.0], [-50.0, 0.0]]))
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
        assert o.void_pre and o.void_post and not o.covered
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
            assert o.void_pre == (o.associated_pre is None)
            assert o.void_post == (o.associated_post is None)

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


class _Recorder:
    """A Generator that logs each draw: method, arguments and result."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        def draw(*args):
            out = getattr(self._rng, name)(*args)
            # a copy: the engine may work on its draws in place
            self.calls.append((name, args, np.copy(out)))
            return out
        return draw


class _Replay:
    """Serves one episode's share of a block's draws, in order; each call
    must name the method and arguments the share records."""

    def __init__(self, share):
        self.share = list(share)

    def __getattr__(self, name):
        def draw(*args):
            want, want_args, value = self.share.pop(0)
            assert want == name and len(args) == len(want_args)
            assert all(np.array_equal(a, b) for a, b in zip(args, want_args))
            return value
        return draw


def _record_blocks(monkeypatch) -> list:
    """Make the estimators draw through recorders, one per block."""
    blocks = []

    def recording_rng(seed, k):
        blocks.append(_Recorder(episode_rng(seed, k)))
        return blocks[-1]

    monkeypatch.setattr(montecarlo, "episode_rng", recording_rng)
    return blocks


def _field_shares(calls, lambda_b, r_field):
    """Per episode of a block, its share of the block's field draws (square
    counts, then x and y of all points in one call, then the LoS latents of
    the kept stations) and its rows among the block's kept stations;
    sample_ppp, replayed on the share, says how many stations it keeps."""
    (_, (mean, _), counts), (_, _, u), (_, _, latent) = calls
    x, y = np.split(u, 2)
    ends = np.cumsum(counts)
    kept = 0
    for n_b, s, e in zip(counts, ends - counts, ends):
        share = [("poisson", (mean,), n_b),
                 ("random", (2 * n_b,), np.concatenate([x[s:e], y[s:e]]))]
        rows = slice(kept, kept + len(sample_ppp(lambda_b, r_field,
                                                 _Replay(share))))
        kept = rows.stop
        yield share + [("random", (rows.stop - rows.start,), latent[rows])], rows
    assert kept == len(latent)


def _summary_counts(outcomes) -> dict:
    serving = [o.associated_pre and o.associated_pre[1] for o in outcomes]
    return {
        "coverage": sum(o.covered for o in outcomes),
        "handover": sum(o.handover for o in outcomes),
        "association_los": serving.count(LinkType.LOS),
        "association_nlos": serving.count(LinkType.NLOS),
        "void": sum(o.void_pre for o in outcomes),
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
        summary = summary_estimates(params, n, seed)
        outcomes = [simulate_episode(params, episode_rng(seed, e))
                    for e in range(n)]
        _assert_summary(summary, _summary_counts(outcomes), n, seed)

    @pytest.mark.parametrize("overrides, n", REPLAY_CASES)
    def test_blocks_replay_into_simulate_episode(self, params, overrides, n,
                                                 monkeypatch):
        # blocks of many episodes (one for omni at the baseline density and
        # in the dense case); n is no multiple of a block's episode count.
        # Each episode's share of its block's draws, replayed into
        # simulate_episode, gives the same counts
        seed = 16
        params = params.with_(**overrides)
        blocks = _record_blocks(monkeypatch)
        summary = summary_estimates(params, n, seed)
        outcomes = []
        for block in blocks:
            ((_, _, alt), (_, (scale, _), rho), (_, _, theta), *field,
             (_, (m,), gamma), (_, _, coin)) = block.calls
            for b, (share, rows) in enumerate(_field_shares(
                    field, params.lambda_b, field_radius(params))):
                replay = _Replay(
                    [("random", (2,), alt[b]), ("rayleigh", (scale,), rho[b]),
                     ("random", (), theta[b])] + share
                    + [("standard_gamma", (m[rows],), gamma[rows]),
                       ("random", (), coin[b])])
                outcomes.append(simulate_episode(params, replay))
                assert replay.share == []
        assert len(outcomes) == n
        _assert_summary(summary, _summary_counts(outcomes), n, seed)

    def test_field_size_sufficiency(self, params):
        base = summary_estimates(params, 20_000, 17)
        doubled = summary_estimates(params, 20_000, 17,
                                    r_field=2.0 * field_radius(params))
        for key in ("coverage", "handover"):
            assert (abs(base[key].mean - doubled[key].mean)
                    < base[key].half_width)

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


class TestOriginCandidates:
    """The pre-move association looks at a disc of about ORIGIN_CANDIDATES
    stations around the UAV and grows it until its pick is provably the
    whole field's; a huge ORIGIN_CANDIDATES makes the disc the field."""

    @staticmethod
    def _runs(params, n, monkeypatch):
        # _segment_argmax runs once per disc per block, once more per
        # block for the post-move association
        calls = []

        def counting(*args):
            calls.append(1)
            return _segment_argmax(*args)

        monkeypatch.setattr(montecarlo, "_segment_argmax", counting)
        out = []
        for candidates in (ORIGIN_CANDIDATES, 1, 1e18):
            monkeypatch.setattr(montecarlo, "ORIGIN_CANDIDATES", candidates)
            calls.clear()
            out.append((summary_estimates(params, n, 22),
                        association_estimate(params, 120.0, n, 22),
                        len(calls)))
        return out

    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("antenna", [DirectionalAntenna(), OmniAntenna()],
                             ids=("directional", "omni"))
    def test_disc_matches_full_field(self, params, policy, antenna,
                                     monkeypatch):
        # a one-station disc grows nearly every episode; the default and
        # the one-station disc pick what the whole field picks
        tiny_grew = False
        for density in (10.0, 100.0, 1000.0):
            p = params.with_(lambda_b=density * 1e-6, policy=policy,
                             antenna=antenna)
            n = 100 if density == 1000.0 and antenna == OmniAntenna() else 500
            default, tiny, full = self._runs(p, n, monkeypatch)
            assert default[:2] == full[:2] and tiny[:2] == full[:2]
            assert default[2] >= full[2]
            tiny_grew |= tiny[2] > full[2]
        assert tiny_grew

    def test_default_disc_grows(self, params, monkeypatch):
        # strongest RSS, omni at 10/km^2: now and then every station in the
        # first disc is NLoS and a LoS one outside could still win
        p = params.with_(lambda_b=10e-6, antenna=OmniAntenna())
        default, _, full = self._runs(p, 500, monkeypatch)
        assert default[:2] == full[:2]
        assert default[2] > full[2]


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
            for share, _ in _field_shares(block.calls, params.lambda_b,
                                          r_field):
                replay = _Replay(share)
                field = sample_ppp(params.lambda_b, r_field, replay)
                counts[_static_association(
                    field, replay.random(len(field)), uav, params)] += 1
                assert replay.share == []
        assert sum(counts.values()) == n
        assert {k: (e.mean, e.n, e.seed) for k, e in estimates.items()} == {
            k: (c / n, n, seed) for k, c in counts.items()}

    def test_matches_analytic_association(self, params):
        from uavcov.association import association_probability

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
    for position, mark in zip(field.positions, los):
        pair = GbsField(np.array([position, [r0, 0.0]]))
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
    kept = GbsField(field.positions[keep])
    los = np.append(classify_links(kept, end, params.env, params.h_b,
                                   latent[keep]), serving is LinkType.LOS)
    got = associate(GbsField(np.vstack([kept.positions, [[r0, 0.0]]])), los,
                    end, params)
    return got is not None and got[0] != len(kept)


def _pinned_interference(params, r0, z, serving, r_field, rng) -> float:
    """One episode's interference under the pinned conditioning: faded
    gains of the in-range stations that associate does not pick over the
    pinned GBS, fading drawn for every station."""
    field = sample_ppp(params.lambda_b, r_field, rng)
    latent = rng.random(len(field))
    uav = Waypoint(0.0, 0.0, z)
    los = classify_links(field, uav, params.env, params.h_b, latent)
    keep = ~_beaten(field, latent, uav, r0, serving, params)
    ch = params.channel
    m = np.where(los, float(ch.m_l), float(ch.m_n))
    fading = rng.standard_gamma(m) / m
    x, y = field.positions.T
    d = np.sqrt(x * x + y * y)
    gains = np.where(los, path_loss(LinkType.LOS, d, z, ch, params.h_b),
                     path_loss(LinkType.NLOS, d, z, ch, params.h_b))
    in_range = d <= receiving_radius(z, params.h_b, params.antenna)
    return float(np.sum((gains * fading)[keep & in_range]))


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
        for e in range(n):
            rng = episode_rng(cov_seed, e)
            interference = _pinned_interference(p, r0, z_t, serving,
                                                field_radius(p), rng)
            signal = signal_gain * sample_fading(serving, p.channel, rng, 1)[0]
            covered += (interference <= 0.0
                        or signal / interference > p.t_thresh)
        r_field = receiving_radius(z_t, p.h_b, p.antenna) + 1.0
        interference = np.array([
            _pinned_interference(p, r0, z_t, serving, r_field,
                                 episode_rng(seed, e)) for e in range(n)])
        terms = np.exp(-tau * (p.p_t * p.g_tot * interference))

        assert 0 < handovers < n and 0 < covered < n and 0.0 < laplace < 1.0
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
