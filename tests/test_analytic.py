import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from uavcov import analytic, cli
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
from uavcov.association import association_probability, height_context
from uavcov.errors import GeometryError, ParameterError
from uavcov.geometry import (
    displaced_distance,
    equal_power_radius,
    lens_complement_area,
)
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    horizontal_speed_nodes,
    mobility_pdfs,
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

    def test_nearest_policy_refused(self, params):
        # the per-type split is the strongest-RSS expression: with nearest
        # params and an NLoS server at 50 m it used to return 0.0 to LoS,
        # although the nearest rule's new server is LoS about 0.997 of the time
        ctx = HandoverContext(LinkType.NLOS, 50.0, 120.0)
        for target in LinkType:
            with pytest.raises(ParameterError, match="conditional_handover_any"):
                conditional_handover(ctx, target, nearest(params))
        assert 0.0 < conditional_handover_any(ctx, nearest(params)) < 1.0

    def test_matches_conditioned_simulation(self, params):
        # pinned LoS serving GBS at 50 m, post-move altitude 120 m; the
        # oracle counts a handover to a station of either type
        ctx = HandoverContext(LinkType.LOS, 50.0, 120.0)
        analytic = conditional_handover_any(ctx, params)
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


def general_lens_handover_grid(serving, targets, r0, z_t, params):
    """The handover kernel as the general lens formula on the full
    r0 x theta x v_h grid, every target type alike; returns the kernel's
    rows, the lens areas behind them and the post-move serving distance."""
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    ctx = height_context(params, z_t)
    ch = params.channel
    _, _, f_theta = mobility_pdfs(params)
    theta, w_th = gauss_nodes(0.0, np.pi, analytic.N_THETA)
    v_h, w_v = horizontal_speed_nodes(z_t, params, analytic.N_V)
    w = (w_th * f_theta(theta))[:, None] * w_v
    r_after = displaced_distance(r0[:, None, None], v_h, theta[:, None])
    rows, areas = [], []
    for target in targets:
        x_a = equal_power_radius(serving, target, r0, ctx.h_bar, ch)
        y_b = np.minimum(equal_power_radius(serving, target, r_after, ctx.h_bar, ch),
                         ctx.r_m)
        area = lens_complement_area(x=x_a[:, None, None], y=y_b, v=v_h)
        rows.append(1.0 - np.sum(np.exp(-params.lambda_b * area) * w, axis=(1, 2)))
        areas.append(area)
    return np.clip(np.array(rows), 0.0, 1.0), areas, r_after


class TestHandoverKernelEquivalence:
    def test_matches_general_lens_grid(self, params):
        # both antennas, every serving/target pair, sparse and dense
        # networks, both altitude-band edges, r0 from 0 to r_m, a speed that
        # caps same-type post-move disks at r_m, and the symmetric channel,
        # whose cross-type radius maps are not trivial. The bound is 2e-12:
        # near r_m with the smallest speed node the general formula's
        # v^2 + y^2 - x^2 cancels, so at r0 = 3000 m, v_h = 0.7 m its area
        # is off by 1.2e-6 m^2 (the closed form by 1e-13 m^2, both against
        # 50-digit arithmetic), which moves the omni kernel at 1000/km^2 by
        # 1.7e-12
        paths = {"empty rows": 0, "live cross-type rows": 0, "capped": 0}
        for antenna, channel, v, lam, edge in itertools.product(
                (DirectionalAntenna(), OmniAntenna()),
                (params.channel, SYM_CHANNEL), (20.0, 200.0), (10.0, 1000.0),
                ("h_lb", "h_ub")):
            p = params.with_(antenna=antenna, channel=channel, v=v,
                             lambda_b=lam * 1e-6)
            z = getattr(p, edge)
            r_m = height_context(p, z).r_m
            r0 = np.linspace(0.0, r_m, 33)
            for serving in LinkType:
                want, areas, r_after = general_lens_handover_grid(
                    serving, tuple(LinkType), r0, z, p)
                got = analytic._cond_handover_grid(serving, tuple(LinkType), r0,
                                                   z, p)
                assert np.max(np.abs(got - want)) <= 2e-12, (
                    antenna, channel is SYM_CHANNEL, v, lam, edge, serving)
                for target, area in zip(LinkType, areas):
                    empty = ~np.any(area > 0.0, axis=(1, 2))
                    paths["empty rows"] += int(np.count_nonzero(empty))
                    if target is serving:
                        paths["capped"] += int(np.count_nonzero(r_after > r_m))
                    else:
                        paths["live cross-type rows"] += int(np.count_nonzero(~empty))
        assert all(count > 0 for count in paths.values()), paths


class TestPinnedSweepPoints:
    def test_matches_values_before_kernel_rewrite(self):
        """The 28 points of the benchmark's analytic sweep (lambda_b 10 to
        1000/km^2, both policies, both antennas, built-in defaults) keep
        their five outputs within 1e-9.

        tests/data/analytic_points.json was written at commit f58dea9, the
        handover kernel before its empty-row skip and same-type closed form:
        the sweep below was run there, each row's unrounded analytic value
        stored by json (shortest round-trip repr, so at full precision).
        """
        pinned = json.loads((Path(__file__).parent / "data"
                             / "analytic_points.json").read_text())["points"]
        spec = cli.SweepSpec(
            axis="lambda_b",
            values=tuple(dict.fromkeys(p["lambda_b"] for p in pinned)),
            metrics=("coverage", "handover", "association", "void"),
            policies=("strongest_rss", "nearest"),
            antennas=("directional", "omni"), engine="analytic")
        rows = cli.run_sweep(spec, cli.load_config(None))
        got = {(r.value, r.policy, r.antenna, r.metric): r.analytic for r in rows}
        assert len(got) == 5 * len(pinned) == 140
        for point in pinned:
            for metric in ("coverage", "handover", "association_los",
                           "association_nlos", "void"):
                key = (point["lambda_b"], point["policy"], point["antenna"], metric)
                assert abs(got[key] - point[metric]) <= 1e-9, key


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
