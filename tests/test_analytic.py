import functools
import math

import numpy as np
import pytest

from uavcov import analytic
from uavcov.analytic import (
    HandoverContext,
    N_R0,
    N_Z,
    _policy_metrics,
    _breakdown,
    conditional_coverage,
    conditional_handover,
    conditional_handover_any,
    coverage_drift_events,
    coverage_probability,
    laplace_derivatives,
    laplace_interference,
    reset_coverage_drift_counter,
    _tau_threshold,
)
from uavcov.association import association_probability
from uavcov.errors import GeometryError
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
)
from uavcov.montecarlo import conditioned_oracles, laplace_estimate
from uavcov.quadrature import gauss_nodes

SYM_CHANNEL = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                            m_l=2, m_n=2)


def nearest(params):
    return params.with_(policy=AssociationPolicy.NEAREST)


class TestConditionalHandover:
    def test_empty_network(self, params):
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        assert conditional_handover(ctx, LinkType.LOS,
                                    params.with_(lambda_b=1e-12)) < 1e-6

    def test_no_displacement(self, params):
        still = params.with_(v=0.0, h_lb=119.999999, h_ub=120.000001)
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        assert conditional_handover_any(ctx, still) == 0.0

    def test_out_of_range_conditioning(self, params):
        with pytest.raises(GeometryError):
            conditional_handover(HandoverContext(LinkType.LOS, 1e4, 120.0),
                                 LinkType.LOS, params)

    @pytest.mark.slow
    def test_matches_conditioned_simulation(self, params):
        # pinned LoS serving GBS at 50 m, post-move altitude 120 m
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        analytic = conditional_handover(ctx, LinkType.LOS, params)
        oracle = conditioned_oracles(params, 50.0, 120.0, LinkType.LOS,
                                     100_000, seed=7)["handover"]
        se = math.sqrt(oracle.mean * (1 - oracle.mean) / oracle.n)
        assert abs(analytic - oracle.mean) < 3 * se


class TestConditionalHandoverAny:
    def test_zero_targets_compose_to_zero(self, params):
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        sparse = params.with_(lambda_b=1e-12)
        assert conditional_handover_any(ctx, sparse) < 1e-6

    def test_composition_structure(self, params):
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        p_l = conditional_handover(ctx, LinkType.LOS, params)
        p_n = conditional_handover(ctx, LinkType.NLOS, params)
        combined = conditional_handover_any(ctx, params)
        assert combined == pytest.approx(1 - (1 - p_l) * (1 - p_n), abs=1e-12)

    def test_dense_network_saturates(self, params):
        # a dense network almost always hands over for a far serving GBS;
        # the residual mass is the near-collinear move toward the serving
        # GBS, where the newly uncovered region shrinks to a sliver
        dense = params.with_(lambda_b=5e-3)
        ctx = HandoverContext(LinkType.LOS, 150.0, 120.0)
        assert conditional_handover_any(ctx, dense) > 0.8


class TestHandoverProbability:
    def test_empty_network(self, params):
        assert coverage_probability(
            params.with_(lambda_b=1e-12)).handover_prob < 1e-6

    def test_increasing_in_density(self, params):
        vals = [coverage_probability(params.with_(lambda_b=lam * 1e-6)).handover_prob
                for lam in (10.0, 50.0, 100.0, 500.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_speed(self, params):
        vals = [coverage_probability(params.with_(v=v)).handover_prob
                for v in (0.0, 10.0, 20.0, 40.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_policy_dispatch(self, params):
        strongest = coverage_probability(params)
        by_nearest = coverage_probability(nearest(params))
        assert strongest.handover_prob != by_nearest.handover_prob
        assert 0.0 < by_nearest.handover_prob < 1.0
        assert strongest.total != by_nearest.total
        assert strongest.association != by_nearest.association


class TestLaplaceInterference:
    def test_zero_argument(self, params):
        assert laplace_interference(0.0, LinkType.LOS, 50.0, 120.0, params) == 1.0

    def test_monotone_decreasing(self, params):
        tau0 = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
        taus = tau0 * np.linspace(0.1, 5.0, 10)
        vals = [laplace_interference(t, LinkType.LOS, 50.0, 120.0, params)
                for t in taus]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.slow
    def test_matches_empirical_laplace_functional(self, params):
        tau = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
        analytic = laplace_interference(tau, LinkType.LOS, 50.0, 120.0, params)
        empirical = laplace_estimate(params, LinkType.LOS, 50.0, 120.0, tau,
                                     100_000, seed=3)
        assert abs(analytic - empirical) / analytic < 0.02


class TestLaplaceDerivatives:
    def test_order_zero_consistency(self, params):
        tau = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
        ders = laplace_derivatives(tau, LinkType.LOS, 50.0, 120.0, params, 2)
        assert ders[0] == pytest.approx(
            laplace_interference(tau, LinkType.LOS, 50.0, 120.0, params),
            rel=1e-12)

    def test_first_order_finite_difference(self, params):
        rng = np.random.default_rng(5)
        tau0 = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
        for tau in tau0 * rng.uniform(0.3, 3.0, 5):
            ders = laplace_derivatives(tau, LinkType.LOS, 50.0, 120.0, params, 1)
            h = tau * 1e-4
            fd = (laplace_interference(tau + h, LinkType.LOS, 50.0, 120.0, params)
                  - laplace_interference(tau - h, LinkType.LOS, 50.0, 120.0, params)
                  ) / (2 * h)
            assert abs(fd - ders[1]) / abs(ders[1]) < 1e-3

    def test_second_order_finite_difference(self, params):
        rng = np.random.default_rng(6)
        tau0 = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
        for tau in tau0 * rng.uniform(0.3, 3.0, 5):
            ders = laplace_derivatives(tau, LinkType.LOS, 50.0, 120.0, params, 2)
            h = tau * 1e-4
            lp = laplace_interference(tau + h, LinkType.LOS, 50.0, 120.0, params)
            l0 = laplace_interference(tau, LinkType.LOS, 50.0, 120.0, params)
            lm = laplace_interference(tau - h, LinkType.LOS, 50.0, 120.0, params)
            fd = (lp - 2 * l0 + lm) / (h * h)
            assert abs(fd - ders[2]) / abs(ders[2]) < 5e-3


class TestConditionalCoverage:
    def test_single_term_reduces_to_laplace(self, params):
        # NLoS fading shape is 1, so the sum collapses to L(tau)
        tau = _tau_threshold(LinkType.NLOS, 50.0, 120.0, params)
        assert conditional_coverage(LinkType.NLOS, 50.0, 120.0, params) == (
            pytest.approx(laplace_interference(tau, LinkType.NLOS, 50.0, 120.0,
                                               params), rel=1e-12))

    def test_no_interference_limit(self, params):
        assert conditional_coverage(LinkType.LOS, 50.0, 120.0,
                                    params.with_(lambda_b=1e-12)) == (
            pytest.approx(1.0, abs=1e-6))

    def test_shape_in_serving_distance(self, params):
        # decreasing while the interference field dominates; rises back
        # toward 1 near the receiving edge where the same-type exclusion
        # empties the interferer pool
        inner = [conditional_coverage(LinkType.LOS, float(r), 120.0, params)
                 for r in np.linspace(5.0, 45.0, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(inner, inner[1:]))
        ctx_edge = conditional_coverage(LinkType.LOS, 155.0, 120.0, params)
        assert ctx_edge > 0.95

    @pytest.mark.slow
    def test_matches_conditioned_simulation(self, params):
        analytic = conditional_coverage(LinkType.LOS, 50.0, 120.0, params)
        oracle = conditioned_oracles(params, 50.0, 120.0, LinkType.LOS,
                                     100_000, seed=17)["coverage"]
        se = math.sqrt(oracle.mean * (1 - oracle.mean) / oracle.n)
        assert abs(analytic - oracle.mean) < 3 * se

    def test_nearest_policy_matches_conditioned_simulation(self, params):
        # a nearest NLoS server at 50 m leaves every station beyond 50 m,
        # LoS ones included, as an interferer: coverage is about 0.002
        p = nearest(params)
        oracle = conditioned_oracles(p, 50.0, 120.0, LinkType.NLOS, 2000, seed=17)
        cov = conditional_coverage(LinkType.NLOS, 50.0, 120.0, p)
        ho = conditional_handover_any(HandoverContext(LinkType.NLOS, 50.0, 120.0), p)
        assert oracle["coverage"].ci_low <= cov <= oracle["coverage"].ci_high
        assert oracle["handover"].ci_low <= ho <= oracle["handover"].ci_high


class TestCoverageProbability:
    def test_kappa_zero_is_handover_free_term(self, params):
        free = coverage_probability(params.with_(kappa=0.0))
        full = coverage_probability(params.with_(kappa=1.0))
        assert free.total >= full.total

    def test_affine_in_kappa(self, params):
        lo = coverage_probability(params.with_(kappa=0.0)).total
        hi = coverage_probability(params.with_(kappa=1.0)).total
        mid = coverage_probability(params.with_(kappa=0.5)).total
        assert mid == pytest.approx(0.5 * (lo + hi), abs=1e-6)

    def test_connection_failure_recomposition(self, params):
        # coverage(kappa) = P(SIR>T) - kappa * P(SIR>T, handover)
        p_cov_all = coverage_probability(params.with_(kappa=0.0)).total
        p_cov_stay = coverage_probability(params.with_(kappa=1.0)).total
        p_joint = p_cov_all - p_cov_stay
        for kappa in (0.0, 0.3, 1.0):
            got = coverage_probability(params.with_(kappa=kappa)).total
            assert got == pytest.approx(p_cov_all - kappa * p_joint, abs=1e-6)

    def test_breakdown_consistency(self, params):
        b = coverage_probability(params)
        assert 0.0 <= b.total <= 1.0
        assert b.total == pytest.approx(sum(b.per_link), abs=1e-12)
        assert 0.0 <= b.handover_prob <= 1.0
        assert 0.0 <= b.void_prob <= 1.0

    def test_scale_invariance(self, params):
        base = coverage_probability(params)
        scaled = coverage_probability(
            params.with_(p_t=params.p_t * 10.0, g_b=params.g_b * 100.0))
        assert abs(scaled.total - base.total) <= 1e-9 * base.total
        assert abs(scaled.handover_prob - base.handover_prob) <= (
            1e-9 * base.handover_prob)
        assert scaled.void_prob == pytest.approx(base.void_prob, rel=1e-12)

    def test_drift_counter_stays_zero(self, params):
        reset_coverage_drift_counter()
        coverage_probability(params)
        coverage_probability(params.with_(antenna=OmniAntenna()))
        assert coverage_drift_events() == 0

    def test_grid_convergence(self, params):
        key = params.with_(kappa=0.0)
        coarse = _breakdown(params, _policy_metrics(key, N_Z, N_R0))
        fine = _breakdown(params, _policy_metrics(key, 20, 56))
        assert abs(coarse.total - fine.total) < 5e-4
        assert abs(coarse.handover_prob - fine.handover_prob) < 5e-4


class TestHandoverKernelGrid:
    @pytest.mark.parametrize("antenna", [DirectionalAntenna(), OmniAntenna()],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
    def test_default_grid_matches_refined(self, params, monkeypatch, lam,
                                          antenna):
        # the direction x horizontal-speed grid of the handover kernel at
        # twice its default node counts; the largest gap, about 3e-6, is at
        # the densest network
        key = params.with_(lambda_b=lam * 1e-6, antenna=antenna, kappa=0.0)
        default = _policy_metrics.__wrapped__(key, N_Z, N_R0).handover
        monkeypatch.setattr(analytic, "_cond_handover_grid", functools.partial(
            analytic._cond_handover_grid, n_theta=48, n_v=64))
        refined = _policy_metrics.__wrapped__(key, N_Z, N_R0).handover
        assert abs(default - refined) <= 1e-5


class TestAssociationMarginals:
    @pytest.mark.parametrize("antenna", [DirectionalAntenna(), OmniAntenna()],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
    def test_gauss_sums_match_quadpack(self, params, lam, antenna):
        # the altitude average of the adaptive association probability on the
        # engine's own altitude nodes; the largest gap, about 3e-6, is the
        # omni antenna in the sparsest network
        p = params.with_(lambda_b=lam * 1e-6, antenna=antenna)
        z_nodes, w_z = gauss_nodes(p.h_lb, p.h_ub, N_Z)
        w_z = w_z / (p.h_ub - p.h_lb)
        gauss = coverage_probability(p).association
        for link, got in zip(LinkType, gauss):
            quadpack = sum(w * association_probability(link, z, p)
                           for z, w in zip(z_nodes, w_z))
            assert abs(got - quadpack) <= 1e-5


class TestCoverageProbabilityNearest:
    def test_policy_equivalence_symmetric_channel(self, params):
        # with one effective link type the strongest mean RSS is the nearest
        # GBS; kappa=0 isolates the association machinery from the
        # target-type handover composition, which by construction counts the
        # degenerate-equal target types twice and separates the policies
        p = params.with_(channel=SYM_CHANNEL, kappa=0.0)
        strongest = coverage_probability(p).total
        by_nearest = coverage_probability(nearest(p)).total
        assert abs(strongest - by_nearest) < 2e-3

    def test_empty_network_limit(self, params):
        p = params.with_(lambda_b=1e-10, kappa=0.0)
        assert coverage_probability(nearest(p)).total < 1e-3

    def test_not_better_than_strongest_at_baseline_density(self, params):
        assert (coverage_probability(nearest(params)).total
                <= coverage_probability(params).total)


class TestOmniTruncation:
    def test_coverage_insensitive_to_truncation_radius(self, params):
        vals = [coverage_probability(
            params.with_(antenna=OmniAntenna(r_max))).total
            for r_max in (2000.0, 3000.0, 5000.0)]
        assert max(vals) - min(vals) < 2 * 0.005
        assert abs(vals[1] - vals[0]) < 0.005
        assert abs(vals[2] - vals[1]) < 0.005
