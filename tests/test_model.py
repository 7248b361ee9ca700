import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcov.errors import GeometryError, ParameterError
from uavcov.model import (
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    SystemParams,
    default_params,
    horizontal_speed,
    horizontal_speed_cdf,
    horizontal_speed_nodes,
    linear_from_db,
    los_probability,
    mobility_pdfs,
    path_loss,
    sample_fading,
    uav_mainlobe_gain,
    watts_from_dbm,
)
from uavcov.quadrature import QuadratureSpec, integrate

TIGHT = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_depth=14)


class TestUnitConversions:
    def test_zero_db_is_unity(self):
        assert linear_from_db(0.0) == 1.0

    def test_sir_threshold(self):
        assert linear_from_db(-3.8) == pytest.approx(0.4168693834703354, rel=1e-12)

    def test_dbm_to_watts(self):
        assert watts_from_dbm(46.0) == pytest.approx(39.810717055349734, rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            linear_from_db(float("nan"))
        with pytest.raises(ParameterError):
            watts_from_dbm(float("inf"))


class TestPathLoss:
    def test_reference_distance_identity(self):
        ch = ChannelParams(alpha_l=2.0 + 1e-12, alpha_n=3.75, eta_l=1.0, eta_n=1.0)
        assert path_loss(LinkType.LOS, 0.0, 1.0, ch, 0.0) == pytest.approx(1.0)

    def test_sv_point_value(self, params):
        # independent scalar evaluation: 10^-4.11 * (100^2+90^2)^(-2.09/2)
        got = path_loss(LinkType.LOS, 100.0, 120.0, params.channel, 30.0)
        assert got == pytest.approx(2.758836030537211e-09, rel=1e-9)

    def test_nlos_weaker_than_los(self, params):
        los = path_loss(LinkType.LOS, 100.0, 120.0, params.channel, 30.0)
        nlos = path_loss(LinkType.NLOS, 100.0, 120.0, params.channel, 30.0)
        assert nlos < los

    def test_monotone_decreasing_in_r(self, params):
        r = np.linspace(1.0, 2000.0, 50)
        for link in LinkType:
            vals = path_loss(link, r, 120.0, params.channel, 30.0)
            assert np.all(np.diff(vals) < 0)

    def test_los_to_nlos_ratio_grows_with_distance(self):
        # alpha ordering dominates once the intercepts are equal
        ch = ChannelParams(eta_l=1e-4, eta_n=1e-4)
        r = np.linspace(1.0, 2000.0, 50)
        ratio = (path_loss(LinkType.LOS, r, 120.0, ch, 30.0)
                 / path_loss(LinkType.NLOS, r, 120.0, ch, 30.0))
        assert np.all(np.diff(ratio) > 0)

    def test_zero_distance_raises(self, params):
        with pytest.raises(GeometryError):
            path_loss(LinkType.LOS, 0.0, 30.0, params.channel, 30.0)


class TestLosProbability:
    def test_overhead_limit(self, params):
        assert los_probability(0.0, 120.0, params.env, 30.0) == pytest.approx(
            0.999975074537903, rel=1e-9)

    def test_45_degrees(self, params):
        assert los_probability(90.0, 120.0, params.env, 30.0) == pytest.approx(
            0.9676918999472423, rel=1e-9)

    def test_complement_sums_to_one(self, params):
        r = np.linspace(0.0, 2000.0, 40)
        p = los_probability(r, 120.0, params.env, 30.0)
        assert np.allclose(p + (1.0 - p), 1.0)

    def test_monotone_on_grid(self, params):
        r = np.linspace(1.0, 2000.0, 20)
        heights = np.linspace(30.1, 300.0, 20)
        table = np.array([los_probability(r, h, params.env, 30.0) for h in heights])
        assert np.all(np.diff(table, axis=0) > 0)       # increasing in altitude
        assert np.all(np.diff(table, axis=1) < 0)       # decreasing in distance


class TestAntennaGain:
    @pytest.mark.parametrize("beamwidth,expected", [
        (120.0, 29000.0 / 14400.0),
        (60.0, 29000.0 / 3600.0),
    ])
    def test_directional(self, beamwidth, expected):
        assert uav_mainlobe_gain(DirectionalAntenna(beamwidth)) == pytest.approx(expected)

    def test_omni_unity(self):
        assert uav_mainlobe_gain(OmniAntenna(3000.0)) == 1.0

    def test_beamwidth_bounds(self):
        with pytest.raises(ParameterError):
            DirectionalAntenna(0.0)
        with pytest.raises(ParameterError):
            DirectionalAntenna(180.0)


class TestFading:
    def test_exponential_mean(self, params):
        rng = np.random.default_rng(1)
        ch = params.channel
        draws = sample_fading(LinkType.NLOS, ch, rng, size=10**6)  # m_N = 1
        assert abs(draws.mean() - 1.0) < 0.01

    def test_gamma_variance(self, params):
        rng = np.random.default_rng(2)
        draws = sample_fading(LinkType.LOS, params.channel, rng, size=10**6)  # m_L = 3
        assert abs(draws.var() - 1.0 / 3.0) < 0.01

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mean_within_three_se(self, m):
        ch = ChannelParams(m_l=m, m_n=1)
        rng = np.random.default_rng(m)
        draws = sample_fading(LinkType.LOS, ch, rng, size=10**6)
        se = math.sqrt(1.0 / m / 10**6)
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_seed_determinism(self, params):
        a = sample_fading(LinkType.LOS, params.channel, np.random.default_rng(7), size=100)
        b = sample_fading(LinkType.LOS, params.channel, np.random.default_rng(7), size=100)
        assert np.array_equal(a, b)


class TestHorizontalSpeed:
    def test_pure_horizontal(self):
        assert horizontal_speed(20.0, 30.0, 0.0) == pytest.approx(20.0)

    def test_three_four_five(self):
        assert horizontal_speed(20.0, 30.0, 40.0) == pytest.approx(12.0)

    def test_stationary(self):
        assert horizontal_speed(0.0, 30.0, 40.0) == 0.0

    def test_degenerate_no_move(self):
        assert horizontal_speed(20.0, 0.0, 0.0) == 0.0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 500.0),
           st.floats(-200.0, 200.0))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_speed(self, v, rho, dz):
        assert 0.0 <= horizontal_speed(v, rho, dz) <= v + 1e-9


class TestMobilityPdfs:
    def test_transition_length_normalizes(self, params):
        f_rho, _, _ = mobility_pdfs(params)
        assert integrate(lambda x: float(f_rho(x)), 0.0, np.inf, TIGHT) == pytest.approx(
            1.0, abs=1e-8)

    def test_rayleigh_mean(self, params):
        f_rho, _, _ = mobility_pdfs(params)
        mean = integrate(lambda x: x * float(f_rho(x)), 0.0, np.inf, TIGHT)
        assert mean == pytest.approx(1.0 / (2.0 * math.sqrt(params.mu)), rel=1e-8)
        assert mean == pytest.approx(28.867513459481287, rel=1e-8)

    def test_height_and_direction_uniform(self, params):
        _, f_z, f_theta = mobility_pdfs(params)
        band = params.h_ub - params.h_lb
        assert float(f_z(120.0)) == pytest.approx(1.0 / band)
        assert float(f_z(89.0)) == 0.0
        for theta in (0.0, math.pi / 2, math.pi):
            assert float(f_theta(theta)) == pytest.approx(1.0 / math.pi)
        assert integrate(lambda z: float(f_z(z)), params.h_lb, params.h_ub,
                         TIGHT) == pytest.approx(1.0, abs=1e-8)


class TestHorizontalSpeedLaw:
    @pytest.mark.parametrize("z_t", [90.0, 120.0, 150.0])
    def test_cdf_matches_sampled_speeds(self, params, z_t):
        # Kolmogorov-Smirnov distance of the closed-form CDF from the
        # empirical CDF of sampled (transition length, pre-move altitude)
        rng = np.random.default_rng(11)
        n = 200_000
        rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), n)
        z_prev = rng.uniform(params.h_lb, params.h_ub, n)
        speeds = np.sort(horizontal_speed(params.v, rho, z_t - z_prev))
        cdf = horizontal_speed_cdf(speeds, z_t, params)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n)))
        assert ks < 1.95 / math.sqrt(n)   # 0.1 % level

    @pytest.mark.parametrize("z_t", [90.0, 100.0, 120.0, 150.0])
    def test_nodes_inside_speed_range_and_increasing(self, params, z_t):
        v_h, w = horizontal_speed_nodes(z_t, params, 32)
        assert np.all(v_h >= 0.0) and np.all(v_h <= params.v)
        assert np.all(np.diff(v_h) > 0.0)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)

    def test_thin_band_moves_horizontally(self, params):
        # a band 1e-6 m thick leaves no vertical motion: v_h = V
        thin = params.with_(h_lb=120.0 - 5e-7, h_ub=120.0 + 5e-7)
        v_h, _ = horizontal_speed_nodes(120.0, thin, 32)
        assert np.max(np.abs(v_h / thin.v - 1.0)) <= 1e-9


class TestParamValidation:
    def test_height_band_ordering(self):
        with pytest.raises(ParameterError):
            default_params(h_lb=200.0)  # above default h_ub=150

    def test_kappa_range(self):
        with pytest.raises(ParameterError):
            default_params(kappa=1.5)

    def test_channel_ordering(self):
        with pytest.raises(ParameterError):
            ChannelParams(alpha_l=4.0, alpha_n=3.0)
        with pytest.raises(ParameterError):
            ChannelParams(m_l=1, m_n=2)

    def test_symmetric_channel_allowed(self):
        ch = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                           m_l=2, m_n=2)
        assert ch.alpha(LinkType.LOS) == ch.alpha(LinkType.NLOS)

    def test_scaling_invariance_of_params(self):
        p = default_params()
        q = p.with_(p_t=10 * p.p_t)
        assert q.t_thresh == p.t_thresh
        assert isinstance(q, SystemParams)
