import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from uavcov import analytic, cli, geometry
from uavcov.analytic import (
    N_R0,
    N_Z,
    _policy_metrics,
    _breakdown,
    coverage_drift_events,
    coverage_probability,
    reset_coverage_drift_counter,
)
from uavcov.association import height_context
from uavcov.geometry import (
    displaced_distance,
    equal_power_radius,
    lens_complement_area,
    receiving_radius,
)
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    horizontal_speed_nodes,
    los_probability,
    path_loss,
)
from uavcov.montecarlo import summary_estimates
from uavcov.quadrature import gauss_nodes

from oracles import conditioned_oracles, laplace_estimate
from quadpack import association_probability

SYM_CHANNEL = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                            m_l=2, m_n=2)


def nearest(params):
    return params.with_(policy=AssociationPolicy.NEAREST)


def _one_target(serving, target, r0, z_t, params) -> float:
    """Strongest-RSS handover probability to one target type."""
    return float(analytic._cond_handover_grid(serving, (target,), r0, z_t,
                                              params)[0, 0])


def handover_any(serving, r0, z_t, params) -> float:
    """Handover probability to any target type at one serving distance."""
    return 1.0 - float(analytic._stay_grid(serving, np.array([r0]), z_t,
                                           params)[0])


def conditional_coverage(serving, r0, z, params) -> float:
    """P(SIR > threshold | serving type, serving distance, altitude)."""
    return float(analytic._coverage_grid(serving, np.array([r0]), z, params)[0])


def _tau_threshold(serving, r0, z, params):
    """The Laplace argument tau = m T / (P_t G_tot S) of the coverage sum,
    S the serving path-loss gain at distance r0."""
    return (params.channel.m(serving) * params.t_thresh
            / (params.p_t * params.g_tot
               * path_loss(serving, r0, z, params.channel, params.h_b)))


def laplace_derivatives(tau, serving, r0, z, params, max_order) -> list:
    """L^(0..max_order)(tau) of the interference at the given point,
    conditioned on the serving type and distance, from the coverage sum's
    terms: L^(k) = k! exp(g0) b_k / (-tau)^k."""
    s = np.array([tau * params.p_t * params.g_tot])
    panels = analytic._interference_nodes(serving, np.array([r0]), z, params)
    terms = analytic._coverage_series(*analytic._exponent_terms(
        s, panels, z, params, max_order))
    return [float(math.factorial(k) * term[0] / (-tau) ** k)
            for k, term in enumerate(terms)]


def laplace_interference(tau, serving, r0, z, params) -> float:
    """Laplace transform of the aggregate interference at the given point."""
    return laplace_derivatives(tau, serving, r0, z, params, 0)[0]


def alternating_coverage(serving, r0, z, params) -> np.ndarray:
    """The alternating-sign form of the conditional coverage that
    _coverage_series replaced, on _coverage_grid's nodes:
    sum_{l<m} (-tau)^l / l! L^(l)(tau), with L^(l) from the tau-derivatives
    g^(k) of the Laplace exponent through L^(l) = sum_j C(l-1, j) L^(j)
    g^(l-j). High orders overflow to inf or nan."""
    ch = params.channel
    order = ch.m(serving) - 1
    tau = _tau_threshold(serving, r0, z, params)
    pg = params.p_t * params.g_tot
    z_rows = np.expand_dims(z, -1)
    g = [np.zeros_like(tau) for _ in range(order + 1)]
    for xi, (xs, ws) in analytic._interference_nodes(serving, r0, z, params).items():
        m = ch.m(xi)
        p_los = los_probability(xs, z_rows, params.env, params.h_b)
        base = ws * xs * (p_los if xi is LinkType.LOS else 1.0 - p_los)
        c = pg * path_loss(xi, xs, z_rows, ch, params.h_b)
        log1p_tc = np.log1p(tau[:, None] * c / m)
        g[0] += np.sum(base * -np.expm1(-m * log1p_tc), axis=1)
        rising = 1.0
        for k in range(1, order + 1):
            rising *= m + k - 1
            d_gamma = ((-1.0) ** (k + 1) * rising
                       * np.exp(k * (np.log(c) - math.log(m)) - (m + k) * log1p_tc))
            g[k] += np.sum(base * d_gamma, axis=1)
    g = [-2.0 * np.pi * params.lambda_b * gk for gk in g]
    ders = [np.exp(g[0])]
    total = ders[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, order + 1):
            ders.append(sum(math.comb(l - 1, j) * ders[j] * g[l - j]
                            for j in range(l)))
            total += (-tau) ** l / math.factorial(l) * ders[l]
    return total


class TestConditionalHandover:
    def test_empty_network(self, params):
        sparse = params.with_(lambda_b=1e-12)
        for target in LinkType:
            assert _one_target(LinkType.LOS, target, 50.0, 120.0, sparse) < 1e-6

    def test_no_displacement(self, params):
        still = params.with_(v=0.0, h_lb=119.999999, h_ub=120.000001)
        assert handover_any(LinkType.LOS, 50.0, 120.0, still) == 0.0

    def test_nearest_policy_any_target(self, params):
        # the nearest rule picks the new server whatever its type, so its
        # handover is to any target type
        assert 0.0 < handover_any(LinkType.NLOS, 50.0, 120.0, nearest(params)) < 1.0

    def test_matches_conditioned_simulation(self, params):
        # pinned LoS serving GBS at 50 m, post-move altitude 120 m; the
        # oracle counts a handover to a station of either type
        analytic = handover_any(LinkType.LOS, 50.0, 120.0, params)
        oracle = conditioned_oracles(params, 50.0, 120.0, LinkType.LOS,
                                     100_000, seed=7)["handover"]
        se = math.sqrt(oracle.mean * (1 - oracle.mean) / oracle.n)
        assert abs(analytic - oracle.mean) < 3 * se


class TestConditionalHandoverAny:
    def test_zero_targets_compose_to_zero(self, params):
        sparse = params.with_(lambda_b=1e-12)
        assert handover_any(LinkType.LOS, 50.0, 120.0, sparse) < 1e-6

    def test_composition_structure(self, params):
        p_l, p_n = (_one_target(LinkType.LOS, target, 50.0, 120.0, params)
                    for target in (LinkType.LOS, LinkType.NLOS))
        combined = handover_any(LinkType.LOS, 50.0, 120.0, params)
        assert combined == pytest.approx(1 - (1 - p_l) * (1 - p_n), abs=1e-12)

    def test_dense_network_saturates(self, params):
        # a dense network almost always hands over for a far serving GBS;
        # the residual mass is the near-collinear move toward the serving
        # GBS, where the newly uncovered region shrinks to a sliver
        dense = params.with_(lambda_b=5e-3)
        assert handover_any(LinkType.LOS, 150.0, 120.0, dense) > 0.8


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

    def test_hover_handover_is_a_model_boundary(self, params):
        """At v = 0 the UAV still changes altitude, and the simulator's
        serving station can change with it (MC 0.0090 [0.0086, 0.0094] at
        200 000 episodes, seed 7), while the closed form evaluates the
        pre-move disc at z_t and reads exactly 0; in a 2 um altitude band
        both engines read 0, so the whole gap is the altitude change.
        ROADMAP item 3 (z_pre in the stay kernel) owns this boundary: when
        it lands the analytic value leaves 0 and this test flips."""
        hover = params.with_(v=0.0)
        assert coverage_probability(hover).handover_prob == 0.0
        assert summary_estimates(hover, 20_000, 7)["handover"].ci_low > 0.005
        thin = hover.with_(h_lb=120.0 - 1e-6, h_ub=120.0 + 1e-6)
        assert coverage_probability(thin).handover_prob == 0.0
        assert summary_estimates(thin, 20_000, 7)["handover"].mean == 0.0

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


class TestCoverageSeries:
    """exp(g0) * sum_{l<m} b_l from _exponent_terms and _coverage_series."""

    def test_terms_are_probabilities(self, params):
        # random shapes, thresholds, densities, antennas and policies, on
        # random (serving distance, altitude) rows
        rng = np.random.default_rng(11)
        reset_coverage_drift_counter()
        for _ in range(40):
            m_l = int(rng.integers(1, 31))
            antenna = (OmniAntenna() if rng.random() < 0.5
                       else DirectionalAntenna(float(rng.uniform(10.0, 170.0))))
            p = params.with_(channel=ChannelParams(m_l=m_l,
                                                   m_n=int(rng.integers(1, m_l + 1))),
                             t_thresh=10.0 ** rng.uniform(-3.0, 4.0),
                             lambda_b=10.0 ** rng.uniform(-7.0, -2.0),
                             antenna=antenna,
                             policy=list(AssociationPolicy)[rng.integers(2)])
            serving = list(LinkType)[rng.integers(2)]
            z = rng.uniform(p.h_lb, p.h_ub, 64)
            r0 = rng.uniform(0.0, 1.0, 64) * receiving_radius(z, p.h_b, antenna)
            s = _tau_threshold(serving, r0, z, p) * (p.p_t * p.g_tot)
            terms = analytic._coverage_series(*analytic._exponent_terms(
                s, analytic._interference_nodes(serving, r0, z, p), z, p,
                p.channel.m(serving) - 1))
            assert len(terms) == p.channel.m(serving)
            for b in terms:
                assert np.all(np.isfinite(b) & (b >= 0.0))
            assert np.all(sum(terms) <= 1.0 + 1e-12)
            analytic._coverage_grid(serving, r0, z, p)
        assert coverage_drift_events() == 0

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="baseline"),
        pytest.param({"antenna": OmniAntenna(), "lambda_b": 1e-5}, id="omni-10"),
        pytest.param({"antenna": OmniAntenna(), "lambda_b": 1e-5,
                      "channel": ChannelParams(m_l=8)}, id="omni-10-m8"),
    ])
    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda l: l.name)
    def test_matches_the_alternating_sign_form(self, params, overrides, policy,
                                               serving):
        # the two forms of one sum, wherever the alternating one is finite
        p = params.with_(policy=policy, **overrides)
        z = np.repeat(np.linspace(p.h_lb, p.h_ub, 5), 24)
        r0 = np.tile(np.linspace(0.0, 1.0, 24), 5) * receiving_radius(
            z, p.h_b, p.antenna)
        old = alternating_coverage(serving, r0, z, p)
        finite = np.isfinite(old)
        assert np.count_nonzero(finite) >= len(old) // 2
        got = analytic._coverage_grid(serving, r0, z, p)
        assert np.max(np.abs(got[finite] - np.clip(old[finite], 0.0, 1.0))) <= 1e-12

    def test_near_term_is_the_poisson_sum(self):
        # t_1 = x alone gives exp(-x) x^l / l!, the Monte Carlo near
        # field's term; where x^l overflows it is 0, not nan
        x = np.array([0.0, 0.3, 2.0, 25.0, 1e200])
        terms = analytic._coverage_series(-x, [x, np.zeros(5), np.zeros(5)])
        for l, b in enumerate(terms):
            assert np.allclose(b[:-1], np.exp(-x[:-1]) * x[:-1] ** l
                               / math.factorial(l), rtol=1e-13, atol=0.0)
            assert b[-1] == 0.0


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
        ho = handover_any(LinkType.NLOS, 50.0, 120.0, p)
        assert oracle["coverage"].ci_low <= cov <= oracle["coverage"].ci_high
        assert oracle["handover"].ci_low <= ho <= oracle["handover"].ci_high


class TestStackedCoverageGrid:
    """The marginal integrals call _coverage_grid once per serving type on
    the stacked (altitude, serving distance) rows; each row must see its own
    altitude, exactly as one call per altitude does."""

    @staticmethod
    def _stacked_and_per_altitude(serving, p):
        z_nodes, _ = gauss_nodes(p.h_lb, p.h_ub, N_Z)
        rows = [height_context(p, z).r_m * np.geomspace(1e-3, 1.0, N_R0)
                for z in z_nodes]
        reset_coverage_drift_counter()
        per_z = np.stack([analytic._coverage_grid(serving, r0, z, p)
                          for r0, z in zip(rows, z_nodes)])
        per_z_drift = coverage_drift_events()
        reset_coverage_drift_counter()
        stacked = analytic._coverage_grid(serving, np.concatenate(rows),
                                          np.repeat(z_nodes, N_R0), p)
        return stacked.reshape(N_Z, N_R0), coverage_drift_events(), per_z, per_z_drift

    @pytest.mark.parametrize("antenna", [DirectionalAntenna(), OmniAntenna()],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda l: l.name)
    def test_matches_per_altitude_calls(self, params, serving, policy, antenna):
        p = params.with_(policy=policy, antenna=antenna)
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(serving, p)
        assert np.array_equal(stacked, per_z)
        assert drift == per_z_drift

    def test_drift_counts_match(self, params, monkeypatch):
        # the coverage sum's terms are probabilities, so nothing drifts any
        # more (a 24-term sum at 30 dB, which overflowed on the far omni
        # rows of the alternating-sign form, included); doubled terms at
        # the baseline make a case where the counter moves
        p = params.with_(channel=ChannelParams(m_l=24, m_n=1), t_thresh=1e3,
                         lambda_b=10e-6, antenna=OmniAntenna())
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(
            LinkType.LOS, p)
        assert np.array_equal(stacked, per_z)
        assert drift == per_z_drift == 0
        series = analytic._coverage_series
        monkeypatch.setattr(analytic, "_coverage_series",
                            lambda g0, t: [2.0 * b for b in series(g0, t)])
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(
            LinkType.LOS, params)
        assert np.array_equal(stacked, per_z)
        assert drift == per_z_drift > 0


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
    theta, w_th = gauss_nodes(0.0, np.pi, analytic.N_THETA)
    v_h, w_v = horizontal_speed_nodes(z_t, params, analytic.N_V)
    w = (w_th * (1.0 / np.pi))[:, None] * w_v
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


class TestSameTypeCapSkip:
    """Which handover-kernel calls reach the general lens formula: counts,
    not times, so the same-type kernel's cap skip stays pinned."""

    @staticmethod
    def count_general_calls(params, monkeypatch):
        """One cold pass; returns the general-formula calls made directly by
        the kernel (cross-type rows) and, per same-type call, whether
        max(r0) + max(v_h) > r_m and how many it made."""
        cross, same_type = [], []
        general = geometry.lens_complement_area
        closed_form = geometry.same_type_lens_complement_area

        def cross_type(**kw):
            cross.append(kw)
            return general(**kw)

        def from_same_type(**kw):
            same_type[-1][1] += 1
            return general(**kw)

        def recorded(r0, v, theta, r_m):
            same_type.append([np.max(r0) + np.max(v) > r_m, 0])
            return closed_form(r0, v, theta, r_m)

        monkeypatch.setattr(analytic, "lens_complement_area", cross_type)
        monkeypatch.setattr(geometry, "lens_complement_area", from_same_type)
        monkeypatch.setattr(analytic, "same_type_lens_complement_area", recorded)
        _policy_metrics.__wrapped__(params.with_(kappa=0.0), N_Z, N_R0)
        return cross, same_type

    def test_omni_reaches_general_formula_only_from_cross_type_rows(
            self, params, monkeypatch):
        cross, same_type = self.count_general_calls(
            params.with_(antenna=OmniAntenna(), lambda_b=100e-6), monkeypatch)
        assert cross and same_type
        assert all(calls == 0 for _, calls in same_type)

    def test_baseline_same_type_calls_reach_it_only_past_the_bound(
            self, params, monkeypatch):
        _, same_type = self.count_general_calls(params, monkeypatch)
        reached = [beyond for beyond, calls in same_type if calls]
        assert reached and all(reached)
        assert not all(beyond for beyond, _ in same_type)


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
