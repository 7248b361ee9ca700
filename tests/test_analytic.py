import functools
import itertools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavcov import analytic, association, cli, geometry, model, montecarlo
from uavcov.analytic import (
    N_R0,
    N_V,
    N_Z,
    _policy_metrics,
    _breakdown,
    coverage_drift_events,
    coverage_probability,
    reset_coverage_drift_counter,
)
from uavcov.association import height_context, serving_nodes
from uavcov.errors import ParameterError
from uavcov.geometry import (
    displaced_distance,
    equal_power_radius,
    exclusion_radius,
    lens_complement_area,
    receiving_radius,
)
from uavcov.model import (
    BOUNDARY_DEFAULTS,
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    default_params,
    horizontal_speed_nodes,
    los_probability,
    los_radius,
    params_from_boundary,
    path_loss,
)
from uavcov.montecarlo import summary_estimates
from uavcov.quadrature import gauss_nodes

from oracles import conditioned_oracles, laplace_estimate, per_altitude_metrics
from quadpack import QuadratureSpec, association_probability, integrate

SYM_CHANNEL = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                            m_l=2, m_n=2)
DIRECTIONAL = default_params().antenna
OMNI = OmniAntenna(BOUNDARY_DEFAULTS["r_max"])


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


def reference_starts(serving, r0, z, params) -> dict:
    """Where each interferer type's panel starts for a server of type
    serving at distances r0: its own type at r0, the other at its exclusion
    radius under strongest RSS and at r0 under the nearest policy (every
    station beyond the serving distance)."""
    if params.policy is AssociationPolicy.NEAREST:
        return dict.fromkeys(LinkType, r0)
    return {serving: r0, serving.other: exclusion_radius(
        serving, r0, np.asarray(z) - params.h_b, params.channel)}


def serving_panels(serving, r0, z, params) -> dict:
    """analytic._interference_nodes for one serving type at distances r0."""
    return analytic._interference_nodes(reference_starts(serving, r0, z, params),
                                        z, params)


def reference_nodes(serving, r0, z, params, other_weight=0.0) -> dict:
    """Serving-process nodes {link: (r0, weight)} of _coverage_grid with the
    server of type serving at r0 (weight 1) and the other type at its
    reference start (other_weight)."""
    return {link: (start, np.full(np.shape(r0), 1.0 if link is serving
                                  else other_weight))
            for link, start in reference_starts(serving, r0, z, params).items()}


def coverage_of(serving, r0, z, params) -> np.ndarray:
    """_coverage_grid's conditional coverage of a server of type serving at
    each r0."""
    return analytic._coverage_grid(reference_nodes(serving, r0, z, params),
                                   z, params)[serving]


def reference_coverage(serving, r0, z, params) -> np.ndarray:
    """The coverage kernel one serving type at a time, every row evaluated,
    on the panels of reference_starts."""
    m = params.channel.m(serving)
    s = m * params.t_thresh / path_loss(serving, r0, z, params.channel, params.h_b)
    terms = analytic._panel_terms(serving_panels(serving, r0, z, params), z, params)
    return np.clip(sum(analytic._coverage_series(*analytic._exponent_terms(
        s, terms, params, m - 1))), 0.0, 1.0)


def conditional_coverage(serving, r0, z, params) -> float:
    """P(SIR > threshold | serving type, serving distance, altitude)."""
    return float(coverage_of(serving, np.array([r0]), z, params)[0])


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
    panels = serving_panels(serving, np.array([r0]), z, params)
    terms = analytic._coverage_series(*analytic._exponent_terms(
        s, analytic._panel_terms(panels, z, params), params, max_order))
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
    for xi, (xs, ws) in serving_panels(serving, r0, z, params).items():
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
            antenna = (OMNI if rng.random() < 0.5
                       else DirectionalAntenna(float(rng.uniform(10.0, 170.0))))
            p = params.with_(channel=replace(params.channel, m_l=m_l,
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
                s, analytic._panel_terms(serving_panels(serving, r0, z, p), z, p),
                p, p.channel.m(serving) - 1))
            assert len(terms) == p.channel.m(serving)
            for b in terms:
                assert np.all(np.isfinite(b) & (b >= 0.0))
            assert np.all(sum(terms) <= 1.0 + 1e-12)
            coverage_of(serving, r0, z, p)
        assert coverage_drift_events() == 0

    @pytest.mark.parametrize("overrides", [
        pytest.param({}, id="baseline"),
        pytest.param({"antenna": OMNI, "lambda_b": 1e-5}, id="omni-10"),
        pytest.param({"antenna": OMNI, "lambda_b": 1e-5,
                      "channel": replace(default_params().channel, m_l=8)},
                     id="omni-10-m8"),
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
        got = coverage_of(serving, r0, z, p)
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
    """The marginal integrals call _coverage_grid once on the stacked
    (altitude, serving distance) rows of both serving types; each row must
    see its own altitude, exactly as one call per altitude does."""

    @staticmethod
    def _stacked_and_per_altitude(serving, p):
        # serving's distances on a geometric grid up to each r_m, the other
        # type at its reference start, both types live
        z_nodes, _ = gauss_nodes(p.h_lb, p.h_ub, N_Z)
        rows = [reference_nodes(serving, height_context(p, z).r_m
                                * np.geomspace(1e-3, 1.0, N_R0), z, p, 1.0)
                for z in z_nodes]
        reset_coverage_drift_counter()
        per_z = [analytic._coverage_grid(nodes, z, p)
                 for nodes, z in zip(rows, z_nodes)]
        per_z = {link: np.stack([got[link] for got in per_z]) for link in LinkType}
        per_z_drift = coverage_drift_events()
        reset_coverage_drift_counter()
        stacked = analytic._coverage_grid(
            {link: tuple(np.stack([nodes[link][i] for nodes in rows]) for i in (0, 1))
             for link in LinkType}, z_nodes[:, None], p)
        return stacked, coverage_drift_events(), per_z, per_z_drift

    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda l: l.name)
    def test_matches_per_altitude_calls(self, params, serving, policy, antenna):
        p = params.with_(policy=policy, antenna=antenna)
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(serving, p)
        for link in LinkType:
            assert stacked[link].shape == (N_Z, N_R0)
            assert np.array_equal(stacked[link], per_z[link]), link
        assert drift == per_z_drift

    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("policy, evaluations", [
        (AssociationPolicy.NEAREST, 1), (AssociationPolicy.STRONGEST_RSS, 2)],
        ids=lambda v: getattr(v, "value", v))
    @pytest.mark.parametrize("serving", list(LinkType), ids=lambda l: l.name)
    def test_one_los_evaluation_per_radial_panel(self, params, serving, policy,
                                                 evaluations, antenna,
                                                 monkeypatch):
        # one call covers both serving types. Under the nearest policy both
        # interferer types start at r0, so they share one panel and one LoS
        # evaluation; under strongest RSS the other type starts at its
        # exclusion radius
        calls = []

        def counted(*args):
            calls.append(args)
            return los_probability(*args)

        monkeypatch.setattr(analytic, "los_probability", counted)
        p = params.with_(policy=policy, antenna=antenna)
        z = np.repeat([95.0, 145.0], 4)
        r0 = receiving_radius(z, p.h_b, antenna) * np.tile([0.05, 0.2, 0.5, 0.9], 2)
        got = analytic._coverage_grid(reference_nodes(serving, r0, z, p, 1.0), z, p)
        assert all(np.all(got[link] > 0.0) for link in LinkType)
        assert len(calls) == evaluations

    def test_drift_counts_match(self, params, monkeypatch):
        # the coverage sum's terms are probabilities, so nothing drifts any
        # more (a 24-term sum at 30 dB, which overflowed on the far omni
        # rows of the alternating-sign form, included); doubled terms at
        # the baseline make a case where the counter moves
        p = params.with_(channel=replace(params.channel, m_l=24, m_n=1), t_thresh=1e3,
                         lambda_b=10e-6, antenna=OMNI)
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(
            LinkType.LOS, p)
        for link in LinkType:
            assert np.array_equal(stacked[link], per_z[link]), link
        assert drift == per_z_drift == 0
        series = analytic._coverage_series
        monkeypatch.setattr(analytic, "_coverage_series",
                            lambda g0, t: [2.0 * b for b in series(g0, t)])
        stacked, drift, per_z, per_z_drift = self._stacked_and_per_altitude(
            LinkType.LOS, params)
        for link in LinkType:
            assert np.array_equal(stacked[link], per_z[link]), link
        assert drift == per_z_drift > 0


class TestCoverageKernelEquivalence:
    """_coverage_grid on the serving-process nodes of the 28 benchmark
    points against reference_coverage, one serving type at a time: both
    types share the panels, and only rows of weight > 0 are evaluated."""

    @staticmethod
    def evaluated_rows(p):
        """(nodes, the kernel's coverage, rows reaching _exponent_terms) of
        one cold point."""
        ctx = height_context(p, gauss_nodes(p.h_lb, p.h_ub, N_Z)[0])
        nodes, _ = serving_nodes(ctx, analytic._ranking_laws(p), p.lambda_b, N_R0)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytic, "_exponent_terms",
                          _recorded(analytic._exponent_terms, calls))
            got = analytic._coverage_grid(nodes, ctx.z, p)
        return nodes, ctx.z, got, sum(len(args[0]) for args in calls)

    def test_matches_per_serving_type_reference(self):
        # the largest relative gap is about 1e-14: the other type's panel
        # starts at its own node distance instead of the exclusion radius
        # computed from the server's
        dead = 0
        for lam, policy, antenna in itertools.product(
                (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0),
                ("strongest_rss", "nearest"), ("directional", "omni")):
            p = params_from_boundary({**BOUNDARY_DEFAULTS, "lambda_b": lam,
                                      "policy": policy, "antenna": antenna})
            nodes, z, got, evaluated = self.evaluated_rows(p)
            live_rows = 0
            for link, (r0, weight) in nodes.items():
                live = weight > 0.0
                z_rows = np.broadcast_to(z, r0.shape)[live]
                want = reference_coverage(link, r0[live], z_rows, p)
                gap = np.abs(got[link][live] - want)
                assert np.all(gap <= 1e-12 * want), (lam, policy, antenna, link)
                assert np.all(got[link][~live] == 0.0)
                live_rows += np.count_nonzero(live)
                dead += np.count_nonzero(~live)
            assert evaluated == live_rows, (lam, policy, antenna)
        # the cold pass's rows of weight 0 (5,263 of 21,504), all under
        # strongest RSS
        assert dead > 0

    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    def test_los_certain_sigmoid_evaluates_no_nlos_row(self, params, policy):
        # b = 3 per degree: every NLoS weight is 0, so only the LoS rows
        # reach the Nakagami terms
        p = params.with_(env=replace(params.env, b=3.0), policy=policy)
        nodes, _, got, evaluated = self.evaluated_rows(p)
        assert not np.any(nodes[LinkType.NLOS][1])
        assert not np.any(got[LinkType.NLOS])
        assert evaluated == np.count_nonzero(nodes[LinkType.LOS][1] > 0.0) > 0



# the inside-box point of TestAcceptedBox: a 31-32 m band puts the UAV 1 to
# 2 m above the GBSs, so the elevation sigmoid spans a few metres
INSIDE_BOX = {"lambda_b": math.exp(6.0), "a": math.exp(1.5), "b": math.e,
              "mu": 1.0, "r_max": math.exp(6.0), "h_lb": 31.0, "h_ub": 32.0,
              "v": 116.0, "antenna": "omni"}


class TestInterferenceRule:
    """The interference rule of _coverage_grid, N_X Gauss nodes per row in
    asinh(x / h_bar) split where P_LoS crosses analytic._X_LEVELS, where
    the elevation sigmoid is sharp: b = 3 per degree, omni at 10 and
    100/km^2 and directional with a = 60, where it sits inside the near
    field, and the inside-box point; and where it is wide, a = 20, b = 1
    omni, or the tail long, omni with r_max = 100 km. Two 40-node panels,
    linear to 2 h_bar and geometric beyond, missed 4 N_X nodes by 1.9e-4
    to 6.6e-3 on the rows and by up to 6.5e-5 on the marginals at the
    sharp sigmoids; 44 asinh nodes miss by at most 1.1e-7 and 2.6e-9."""

    POINTS = {
        "b3-omni-10": {"b": 3.0, "antenna": "omni", "lambda_b": 10.0},
        "b3-omni-100": {"b": 3.0, "antenna": "omni", "lambda_b": 100.0},
        "a60-b3-directional": {"a": 60.0, "b": 3.0},
        "inside-box": INSIDE_BOX,
        "a20-b1-omni": {"a": 20.0, "b": 1.0, "antenna": "omni"},
        "r-max-100km": {"antenna": "omni", "r_max": 100_000.0},
    }
    # the marginal gap to 4 N_X of the two 40-node panels, the smaller over
    # both policies, or 1e-12 where it was roundoff: no point may be farther
    OLD_GAPS = {"b3-omni-10": 2.3e-6, "b3-omni-100": 1.5e-5,
                "a60-b3-directional": 1.8e-5, "inside-box": 5.9e-11,
                "a20-b1-omni": 3.9e-9, "r-max-100km": 1e-12}

    @classmethod
    def point(cls, name, policy):
        return params_from_boundary({**BOUNDARY_DEFAULTS, **cls.POINTS[name],
                                     "policy": policy, "kappa": 0.0})

    @staticmethod
    def evaluate(p):
        """(serving-process nodes and row altitudes, conditional coverage,
        the marginal coverage sums with and without handover per type)."""
        ctx = height_context(p, gauss_nodes(p.h_lb, p.h_ub, N_Z)[0])
        nodes, _ = serving_nodes(ctx, analytic._ranking_laws(p), p.lambda_b, N_R0)
        metrics = _policy_metrics.__wrapped__(p, N_Z, N_R0)
        return ((nodes, ctx.z), analytic._coverage_grid(nodes, ctx.z, p),
                [*metrics.cov_nohandover.values(), *metrics.cov_stay.values()])

    @pytest.mark.parametrize("policy", ["strongest_rss", "nearest"])
    @pytest.mark.parametrize("name", list(POINTS))
    def test_matches_four_times_the_nodes(self, name, policy, monkeypatch):
        p = self.point(name, policy)
        (nodes, _), rows, marginals = self.evaluate(p)
        monkeypatch.setattr(analytic, "_interference_nodes", functools.partial(
            analytic._interference_nodes, n_x=4 * analytic.N_X))
        _, fine_rows, fine_marginals = self.evaluate(p)
        for link, (_, weight) in nodes.items():
            live = weight > 0.0
            gap = np.abs(rows[link] - fine_rows[link])[live]
            assert np.all(gap <= 1e-6), (link, gap.max())
        assert (np.max(np.abs(np.subtract(marginals, fine_marginals)))
                <= min(1e-6, self.OLD_GAPS[name]))

    def test_empty_rows_weigh_nothing(self, params):
        # rows that start at or beyond the receiving radius (lo >= hi) get
        # weights 0, without a 0/0 on the way
        z = np.full(3, 120.0)
        hi = receiving_radius(z, params.h_b, params.antenna)
        with np.errstate(all="raise"):
            x, w = analytic._radial_panel(np.array([0.5, 1.0, 2.0]) * hi, hi, z,
                                          params)
        assert x.shape == w.shape == (3, analytic.N_X)
        assert np.all(np.isfinite(x)) and np.all(w[1:] == 0.0)
        assert np.sum(w[0]) == pytest.approx(0.5 * hi[0], rel=1e-12)

    @pytest.mark.parametrize("name", ["a60-b3-directional", "inside-box"])
    def test_exponent_matches_quadpack(self, name):
        # g0 and t_1 of a LoS server's first, middle and last rows of weight
        # > 0 at the lowest and the highest altitude, against adaptive
        # quadrature in x on [start, r_m] of -P_xi (1 - (1 + u)^-m) x and
        # P_xi m u (1 + u)^-(m+1) x, summed over xi and times 2 pi lam,
        # split at the radii of the levels. The largest gaps, at a = 60,
        # are 2.2e-7 in g0 and 2.9e-7 relative in t_1 (32 nodes: 2.6e-6
        # and 5.4e-6)
        p = self.point(name, "strongest_rss")
        (nodes, z), _, _ = self.evaluate(p)
        weight = nodes[LinkType.LOS][1]
        rows, cols = [], []
        for j in (0, N_Z - 1):
            live = np.flatnonzero(weight[j] > 0.0)
            rows += [j] * 3
            cols += list(live[[0, len(live) // 2, -1]])
        z_rows = np.ravel(z)[rows]
        starts = {link: nodes[link][0][rows, cols] for link in LinkType}
        m = p.channel.m_l
        s = m * p.t_thresh / path_loss(LinkType.LOS, starts[LinkType.LOS], z_rows,
                                       p.channel, p.h_b)
        g0, (t1, *_) = analytic._exponent_terms(s, analytic._panel_terms(
            analytic._interference_nodes(starts, z_rows, p), z_rows, p), p, m - 1)
        spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300, max_depth=14)
        for k, z_k in enumerate(z_rows):
            r_m = float(receiving_radius(z_k, p.h_b, p.antenna))
            want = np.zeros(2)
            for xi in LinkType:
                m_xi = p.channel.m(xi)

                def integrands(x, xi=xi, m_xi=m_xi):
                    p_los = float(los_probability(x, z_k, p.env, p.h_b))
                    u = s[k] * float(path_loss(xi, x, z_k, p.channel, p.h_b)) / m_xi
                    share = p_los if xi is LinkType.LOS else 1.0 - p_los
                    return share * x * np.array([-(1.0 - (1.0 + u) ** -m_xi),
                                                 m_xi * u * (1.0 + u) ** -(m_xi + 1)])

                edges = np.unique(np.clip(np.append(los_radius(
                    analytic._X_LEVELS, z_k, p.env, p.h_b), (0.0, r_m)), starts[xi][k], r_m))
                for lo, hi in zip(edges[:-1], edges[1:]):
                    want += [integrate(lambda x, j=j: integrands(x)[j], lo, hi, spec)
                             for j in (0, 1)]
            want *= 2.0 * np.pi * p.lambda_b
            # g0 is the log of the Laplace transform: an absolute gap in it
            # is a relative gap in the coverage terms
            assert abs(g0[k] - want[0]) <= 1e-6, (k, g0[k], want[0])
            assert t1[k] == pytest.approx(want[1], rel=1e-6, abs=0.0), (k, t1[k], want[1])


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
        coverage_probability(params.with_(antenna=OMNI))
        assert coverage_drift_events() == 0

    def test_grid_convergence(self, params):
        key = params.with_(kappa=0.0)
        coarse = _breakdown(params, _policy_metrics(key, N_Z, N_R0))
        fine = _breakdown(params, _policy_metrics(key, 20, 56))
        assert abs(coarse.total - fine.total) < 5e-4
        assert abs(coarse.handover_prob - fine.handover_prob) < 5e-4


class TestZeroTypeIntensity:
    """b = 3 per degree: 1 - P_LoS is exactly 0 at every knot, so the NLoS
    cumulative never increases and no serving-process node weights an NLoS
    server."""

    def test_los_certain_sigmoid(self, params):
        p = params.with_(env=replace(params.env, b=3.0))
        ctx = height_context(p, 120.0)
        assert ctx.cum_intensity(LinkType.NLOS, ctx.r_m) == 0.0
        nodes, _ = serving_nodes(ctx, analytic._ranking_laws(p), p.lambda_b, N_R0)
        assert np.all(nodes[LinkType.NLOS][1] == 0.0)
        got = coverage_probability(p)
        assert got.association[1] == 0.0 and got.per_link[1] == 0.0
        mc = summary_estimates(p, 20_000, 3)
        for name, value in (("coverage", got.total),
                            ("handover", got.handover_prob),
                            ("association_los", got.association[0]),
                            ("void", got.void_prob)):
            assert mc[name].ci_low <= value <= mc[name].ci_high, name


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _boundary_config(draw: dict) -> dict:
    band, alpha_gap, m_gap = draw.pop("band"), draw.pop("alpha_gap"), draw.pop("m_gap")
    return {**BOUNDARY_DEFAULTS, **draw, "h_ub": draw["h_lb"] + band,
            "alpha_n": draw["alpha_l"] + alpha_gap, "m_l": draw["m_n"] + m_gap}


# boundary-unit configs over a wide box around the baseline; the keys not
# drawn keep their table values
ACCEPTED_BOX = st.fixed_dictionaries({
    "lambda_b": _log_uniform(0.1, 5000.0),
    "a": _log_uniform(0.5, 30.0),
    "b": _log_uniform(0.02, 5.0),
    "mu": _log_uniform(1.0, 3000.0),
    "r_max": _log_uniform(100.0, 10_000.0),
    "beamwidth_deg": st.floats(1.0, 179.9),
    "h_lb": st.floats(31.0, 400.0),
    "band": _log_uniform(1e-3, 500.0),
    "v": st.one_of(st.just(0.0), st.floats(0.1, 200.0)),
    "kappa": st.floats(0.0, 1.0),
    "t_thresh": st.floats(-20.0, 20.0),
    "alpha_l": st.floats(2.01, 6.0),
    "alpha_gap": st.floats(0.0, 2.0),
    "m_n": st.integers(1, 4),
    "m_gap": st.integers(0, 3),
    "antenna": st.sampled_from(("directional", "omni")),
    "policy": st.sampled_from(("strongest_rss", "nearest")),
}).map(_boundary_config)

# the probability bounds that hold by construction, up to roundoff: LoS +
# NLoS association + void = 1, and the handover is at most the association
BY_CONSTRUCTION = 1e-12


def assert_probabilities(got):
    assert abs(sum(got.association) + got.void_prob - 1.0) <= BY_CONSTRUCTION, got
    assert got.handover_prob <= 1.0 - got.void_prob + BY_CONSTRUCTION, got


class TestAcceptedBox:
    # outputs are probabilities up to this much roundoff (over 3000 draws
    # of the box the largest output was 1 + 2.2e-16, and association + void
    # missed 1 by at most 5.6e-16)
    TOL = 1e-9

    @given(values=ACCEPTED_BOX)
    @example(values={**BOUNDARY_DEFAULTS, "b": 3.0})
    @settings(max_examples=200, deadline=None)
    def test_evaluates_or_is_a_parameter_error(self, values):
        try:
            got = coverage_probability(params_from_boundary(values))
        except ParameterError:
            return
        outputs = (got.total, got.handover_prob, got.void_prob,
                   *got.per_link, *got.association)
        assert all(math.isfinite(x) and -self.TOL <= x <= 1.0 + self.TOL
                   for x in outputs), outputs
        for cov, assoc in zip(got.per_link, got.association):
            assert cov <= assoc + self.TOL
        assert_probabilities(got)

    @given(values=ACCEPTED_BOX)
    # the box's densest, widest corner: 1.6e6 stations refused, 8e5 run
    @example(values={**BOUNDARY_DEFAULTS, "lambda_b": 5000.0, "antenna": "omni",
                     "r_max": 10_000.0, "h_lb": 400.0, "h_ub": 900.0, "v": 200.0})
    @example(values={**BOUNDARY_DEFAULTS, "lambda_b": 5000.0, "antenna": "omni",
                     "r_max": 7000.0, "h_lb": 400.0, "h_ub": 900.0, "v": 200.0})
    @settings(max_examples=15, deadline=None)
    def test_monte_carlo_estimates_or_is_a_parameter_error(self, values):
        # the simulator's side of the same box: finite estimates in [0, 1],
        # or a field too large for the station budget refused before any
        # block draws
        try:
            p = params_from_boundary(values)
        except ParameterError:
            return
        streams = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "episode_rng", _recorded(
                montecarlo.episode_rng, streams))
            try:
                got = summary_estimates(p, 300, 1)
            except ParameterError:
                assert streams == []
                return
        for name, estimate in got.items():
            assert math.isfinite(estimate.mean), name
            assert 0.0 <= estimate.mean <= 1.0, name

    @pytest.mark.parametrize("overrides", [
        {"alpha_l": 3.893, "alpha_n": 4.054, "m_l": 6, "m_n": 3,
         "t_thresh": 17.41, "a": 26.78, "b": 0.5607, "h_lb": 245.79,
         "h_ub": 246.04, "v": 111.9, "antenna": "omni", "r_max": 1490.0,
         "mu": 16.4, "lambda_b": 4868.0},
        # a point of the box above, which its draws rarely reach
        INSIDE_BOX,
        {"lambda_b": 3176.0, "a": 1.30, "b": 0.036, "mu": 190.0,
         "antenna": "omni", "r_max": 2589.0, "h_lb": 36.42, "h_ub": 37.13,
         "v": 131.0},
    ], ids=["outside-box", "inside-box", "dense-omni"])
    def test_dense_omni_outputs_are_probabilities(self, overrides):
        # dense omni cells where two per-type serving-distance rules summed
        # the association to 1.0016, 1 + 8.4e-5 and 1 + 1.5e-5, and the
        # handover, which is not clamped, to 1.00156, 1 + 6.2e-6 and
        # 1 + 1.5e-5: the one rule over the serving process holds both
        got = coverage_probability(params_from_boundary(
            {**BOUNDARY_DEFAULTS, **overrides}))
        assert_probabilities(got)
        assert got.handover_prob <= 1.0


class TestHandoverKernelGrid:
    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
    def test_default_grid_matches_refined(self, params, monkeypatch, lam,
                                          antenna):
        # the direction x horizontal-speed grid of the handover kernel at
        # 48 directions and 64 speed nodes; the largest gap, about 6.6e-7,
        # is at the densest network with either antenna
        key = params.with_(lambda_b=lam * 1e-6, antenna=antenna, kappa=0.0)
        default = _policy_metrics.__wrapped__(key, N_Z, N_R0).handover
        monkeypatch.setattr(analytic, "_cond_handover_grid", functools.partial(
            analytic._cond_handover_grid, n_theta=48, n_v=64))
        refined = _policy_metrics.__wrapped__(key, N_Z, N_R0).handover
        assert abs(default - refined) <= 2e-6

    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    def test_wide_band_matches_refined(self, params, monkeypatch, policy,
                                       antenna):
        # band 40-300 m, a point of CI's height-band sweep, against 48
        # directions and 256 speed nodes: the 12-node speed rule's error
        # reads 3.8e-6 to 6.1e-6 here, against at most 4.7e-7 at the
        # baseline band 90-150 m
        key = params.with_(h_lb=40.0, h_ub=300.0, policy=policy,
                           antenna=antenna, kappa=0.0)
        default = _policy_metrics.__wrapped__(key, N_Z, N_R0).handover
        monkeypatch.setattr(analytic, "_cond_handover_grid", functools.partial(
            analytic._cond_handover_grid, n_theta=48, n_v=256))
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
        # networks, both altitude-band edges, r0 from 0 to r_m, no move, a
        # speed that caps same-type post-move disks at r_m, and the symmetric
        # channel, whose cross-type radius maps are not trivial. Without a
        # move no row is live, so the kernel reads exactly 0 for every
        # serving/target pair, the nearest rule's LoS/LoS pair included. The
        # largest gap is 8.4e-15 (omni, 1000/km^2, v 20, h_lb, LoS serving),
        # with the smallest speed node at 0.17 m; the bound of 2e-12 leaves
        # room for the general formula's cancellation of v^2 + y^2 - x^2
        # near r_m at small speeds
        paths = {"empty rows": 0, "live cross-type rows": 0, "capped": 0}
        for antenna, channel, v, lam, edge in itertools.product(
                (DIRECTIONAL, OMNI),
                (params.channel, SYM_CHANNEL), (0.0, 20.0, 200.0), (10.0, 1000.0),
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
                if v == 0.0:
                    assert not np.any(got), (antenna, lam, edge, serving)
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

        def recorded(r0, lens, r_m):
            same_type.append([np.max(r0) + np.max(lens[0]) > r_m, 0])
            return closed_form(r0, lens, r_m)

        monkeypatch.setattr(analytic, "lens_complement_area", cross_type)
        monkeypatch.setattr(geometry, "lens_complement_area", from_same_type)
        monkeypatch.setattr(analytic, "same_type_lens_complement_area", recorded)
        _policy_metrics.__wrapped__(params.with_(kappa=0.0), N_Z, N_R0)
        return cross, same_type

    def test_omni_reaches_general_formula_only_from_cross_type_rows(
            self, params, monkeypatch):
        cross, same_type = self.count_general_calls(
            params.with_(antenna=OMNI, lambda_b=100e-6), monkeypatch)
        assert cross and same_type
        assert all(calls == 0 for _, calls in same_type)

    def test_baseline_same_type_calls_reach_it_only_past_the_bound(
            self, params, monkeypatch):
        _, same_type = self.count_general_calls(params, monkeypatch)
        reached = [beyond for beyond, calls in same_type if calls]
        assert reached and all(reached)
        assert not all(beyond for beyond, _ in same_type)


def _recorded(fn, calls):
    """fn, appending the positional arguments of each call to calls."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestStackedAltitudes:
    """The marginal integrals take every altitude node in one pass per
    serving type; the per-altitude reference in tests/oracles.py holds
    their values, and call counts (not times) hold the pass to its shape."""

    @pytest.mark.parametrize("policy", list(AssociationPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("changes", [
        {"antenna": DIRECTIONAL, "lambda_b": 10e-6},
        {"antenna": DIRECTIONAL, "lambda_b": 1000e-6},
        {"antenna": OMNI, "lambda_b": 10e-6},
        {"antenna": OMNI, "lambda_b": 1000e-6},
        {"v": 0.0},
        {"v": 60.0},
        {"h_lb": 120.0, "h_ub": 120.000002},
        {"antenna": DirectionalAntenna(170.0)},
        {"channel": SYM_CHANNEL},
    ], ids=["directional-10", "directional-1000", "omni-10", "omni-1000",
            "v0", "v60", "band-2um", "beam-170", "sym-channel"])
    def test_matches_per_altitude_reference(self, params, policy, changes):
        # the stacked pass sums its rows in another order and takes expm1
        # on arrays, so the outputs may differ by an ulp or so
        p = params.with_(policy=policy, kappa=0.0, **changes)
        got = _policy_metrics.__wrapped__(p, N_Z, N_R0)
        want = per_altitude_metrics(p, N_Z, N_R0)
        for name in ("cov_nohandover", "cov_stay", "assoc"):
            for link in LinkType:
                gap = abs(getattr(got, name)[link] - getattr(want, name)[link])
                assert gap <= 1e-15, (name, link)
        assert abs(got.handover - want.handover) <= 1e-15
        assert abs(got.void - want.void) <= 1e-15

    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
                             ids=["directional", "omni"])
    @pytest.mark.parametrize("policy, serving_types", [
        (AssociationPolicy.STRONGEST_RSS, 2), (AssociationPolicy.NEAREST, 1)],
        ids=lambda v: getattr(v, "value", v))
    def test_cold_point_call_counts(self, params, antenna, policy,
                                    serving_types, monkeypatch):
        # one handover-kernel call per serving type (the nearest rule's
        # type-blind handover is one), one context build for all altitudes,
        # and at most one same-type lens grid per altitude and kernel call
        kernel, builds, lenses = [], [], []
        monkeypatch.setattr(association, "_height_context_cached",
                            functools.cache(
                                association._height_context_cached.__wrapped__))
        monkeypatch.setattr(association.HeightContext, "__init__", _recorded(
            association.HeightContext.__init__, builds))
        monkeypatch.setattr(analytic, "_cond_handover_grid", _recorded(
            analytic._cond_handover_grid, kernel))
        monkeypatch.setattr(analytic, "same_type_lens_complement_area",
                            _recorded(analytic.same_type_lens_complement_area,
                                      lenses))
        _policy_metrics.__wrapped__(
            params.with_(antenna=antenna, policy=policy, kappa=0.0), N_Z, N_R0)
        assert len(kernel) == serving_types
        assert len(builds) == 1
        assert 0 < len(lenses) <= N_Z * serving_types

    def test_cold_point_inverts_the_speed_law_once(self, params, monkeypatch):
        # one bisection over every altitude node: its 60 CDF evaluations
        # each take the whole (altitude, speed node) array, and the second
        # serving type's kernel call finds the nodes cached
        calls = []
        monkeypatch.setattr(model, "_speed_ratio_nodes", functools.lru_cache(
            model._speed_ratio_nodes.__wrapped__))
        monkeypatch.setattr(model, "_speed_ratio_cdf", _recorded(
            model._speed_ratio_cdf, calls))
        _policy_metrics.__wrapped__(params.with_(kappa=0.0), N_Z, N_R0)
        assert len(calls) == model._BISECTION_STEPS == 60
        assert all(np.shape(args[0]) == (N_Z, N_V) for args in calls)


class TestPinnedSweepPoints:
    def test_matches_values_before_kernel_rewrite(self):
        """The 28 points of the benchmark's analytic sweep (lambda_b 10 to
        1000/km^2, both policies, both antennas, built-in defaults) keep
        their five outputs within 1e-9.

        tests/data/analytic_points.json was written by the commit after
        58028b8, the one that took both serving types' distances from one
        set of Gauss nodes in the CDF of the serving process (in place of a
        rule per serving type): the sweep below was run there, each row's
        unrounded analytic value stored by json (shortest round-trip repr,
        so at full precision).
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
    @pytest.mark.parametrize("antenna", [DIRECTIONAL, OMNI],
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
