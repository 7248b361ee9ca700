import math
import time

import numpy as np
import pytest

from uavcov import montecarlo
from uavcov.errors import ParameterError
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    Waypoint,
)
from uavcov.montecarlo import (
    MAX_MEAN_STATIONS,
    GbsField,
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


class TestSummaryEstimates:
    def test_matches_single_metric_estimates(self, params):
        # each metric counted by a plain loop over the same episodes
        n, seed = 2000, 16
        summary = summary_estimates(params, n, seed)
        outcomes = [simulate_episode(params, episode_rng(seed, e))
                    for e in range(n)]
        serving = [o.associated_pre and o.associated_pre[1] for o in outcomes]
        counts = {
            "coverage": sum(o.covered for o in outcomes),
            "handover": sum(o.handover for o in outcomes),
            "association_los": serving.count(LinkType.LOS),
            "association_nlos": serving.count(LinkType.NLOS),
            "void": sum(o.void_pre for o in outcomes),
        }
        assert set(summary) == set(counts)
        for key, count in counts.items():
            est = summary[key]
            assert (est.mean, est.n, est.seed) == (count / n, n, seed)
            assert (est.ci_low, est.ci_high) == wilson_interval(count, n)

    @pytest.mark.slow
    def test_field_size_sufficiency(self, params):
        base = summary_estimates(params, 20_000, 17)
        doubled = summary_estimates(params, 20_000, 17,
                                    r_field=2.0 * field_radius(params))
        for key in ("coverage", "handover"):
            assert (abs(base[key].mean - doubled[key].mean)
                    < base[key].half_width)

    @pytest.mark.slow
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


class TestStaticAssociation:
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


class TestConditionedOracles:
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
