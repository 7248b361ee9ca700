import math

import numpy as np
import pytest

from uavcov.association import (
    association_probability,
    height_context,
    nearest_any_pdf,
    nearest_type_pdf,
    serving_distance_pdf,
)
from uavcov.errors import UndefinedConditionalError
from uavcov.geometry import exclusion_radius
from uavcov.model import ChannelParams, LinkType
from uavcov.quadrature import QuadratureSpec, integrate

TIGHT = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_depth=14)


class TestNearestTypePdf:
    def test_vanishes_at_origin(self, params):
        for link in LinkType:
            assert nearest_type_pdf(link, 0.0, 120.0, params) == 0.0

    def test_empty_network_limit(self, params):
        sparse = params.with_(lambda_b=1e-12)
        assert nearest_type_pdf(LinkType.LOS, 100.0, 120.0, sparse) < 1e-8

    @pytest.mark.parametrize("link", list(LinkType))
    def test_normalizes_to_one(self, params, link):
        # the type-thinned intensity diverges, so the nearest GBS of each
        # type exists almost surely and its distance density has unit mass
        val = integrate(lambda r: nearest_type_pdf(link, r, 120.0, params),
                        0.0, np.inf, TIGHT)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_serving_type_partition_infinite_plane(self, params):
        # with uncapped exclusions and no receiving-range truncation the two
        # serving-type events partition the sample space
        z = 120.0
        ctx = height_context(params, z)

        def winner_density(link):
            def f(r0):
                rho = exclusion_radius(link, r0, ctx.h_bar, params.channel)
                excl = math.exp(-2 * np.pi * params.lambda_b
                                * float(ctx.cum_intensity(link.other, rho)))
                return nearest_type_pdf(link, r0, z, params) * excl
            return integrate(f, 0.0, np.inf, TIGHT)

        total = winner_density(LinkType.LOS) + winner_density(LinkType.NLOS)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestAssociationProbability:
    def test_empty_network(self, params):
        sparse = params.with_(lambda_b=1e-12)
        for link in LinkType:
            assert association_probability(link, 120.0, sparse) < 1e-6

    def test_disjoint_events(self, params):
        a_l = association_probability(LinkType.LOS, 120.0, params)
        a_n = association_probability(LinkType.NLOS, 120.0, params)
        assert 0.0 <= a_l <= 1.0 and 0.0 <= a_n <= 1.0
        assert a_l + a_n <= 1.0

    @pytest.mark.parametrize("channel", [ChannelParams(),
                                         ChannelParams(alpha_l=3.0, alpha_n=3.0)],
                             ids=["default", "equal_exponents"])
    def test_complement_is_void(self, params, channel):
        # both exclusion radii are capped at the receiving radius, so the
        # in-range partition is exact: A_L + A_N + void = 1. With equal path
        # loss exponents the NLoS exclusion around a LoS server reaches
        # beyond the receiving radius
        params = params.with_(channel=channel)
        z = 120.0
        ctx = height_context(params, z)
        a_l = association_probability(LinkType.LOS, z, params)
        a_n = association_probability(LinkType.NLOS, z, params)
        void = math.exp(-np.pi * params.lambda_b * ctx.r_m**2)
        assert a_l + a_n + void == pytest.approx(1.0, abs=1e-6)

    def test_los_association_nondecreasing_in_altitude(self, params):
        vals = [association_probability(LinkType.LOS, z, params)
                for z in (95.0, 110.0, 125.0, 140.0)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


class TestServingDistancePdf:
    @pytest.mark.parametrize("lambda_km2", [30.0, 100.0, 300.0])
    @pytest.mark.parametrize("z", [95.0, 120.0, 145.0])
    def test_normalization_grid(self, params, lambda_km2, z):
        p = params.with_(lambda_b=lambda_km2 * 1e-6)
        ctx = height_context(p, z)
        for link in LinkType:
            val = integrate(lambda r: serving_distance_pdf(link, r, z, p),
                            0.0, ctx.r_m, TIGHT)
            assert val == pytest.approx(1.0, abs=1e-5)

    def test_pointwise_nonnegative(self, params):
        ctx = height_context(params, 120.0)
        r = np.linspace(0.0, ctx.r_m, 100)
        for link in LinkType:
            assert np.all(serving_distance_pdf(link, r, 120.0, params) >= 0.0)

    def test_symmetric_channel_reduces_to_truncated_nearest(self, params):
        ch = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                           m_l=2, m_n=2)
        p = params.with_(channel=ch)
        z = 120.0
        ctx = height_context(p, z)
        # P_L == 1 - P_N makes both types together the full PPP; the two
        # conditional pdfs must sum (weighted by A) to the truncated,
        # renormalized contact-distance density
        a_l = association_probability(LinkType.LOS, z, p)
        a_n = association_probability(LinkType.NLOS, z, p)
        trunc_mass = 1.0 - math.exp(-np.pi * p.lambda_b * ctx.r_m**2)
        r = np.linspace(1.0, ctx.r_m * 0.98, 25)
        mixture = (a_l * serving_distance_pdf(LinkType.LOS, r, z, p)
                   + a_n * serving_distance_pdf(LinkType.NLOS, r, z, p))
        expected = nearest_any_pdf(r, p) / trunc_mass * (a_l + a_n)
        assert np.allclose(mixture, expected, rtol=1e-6)

    def test_undefined_conditional(self, params):
        sparse = params.with_(lambda_b=1e-300)
        with pytest.raises(UndefinedConditionalError):
            serving_distance_pdf(LinkType.NLOS, 10.0, 120.0, sparse)


class TestNearestAnyPdf:
    def test_vanishes_at_origin(self, params):
        assert nearest_any_pdf(0.0, params) == 0.0

    def test_normalizes(self, params):
        val = integrate(lambda r: nearest_any_pdf(r, params), 0.0, np.inf, TIGHT)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_median_inversion(self, params):
        median = math.sqrt(math.log(2.0) / (np.pi * params.lambda_b))
        assert median == pytest.approx(46.97186393498257, rel=1e-10)
        cdf = integrate(lambda r: nearest_any_pdf(r, params), 0.0, median, TIGHT)
        assert cdf == pytest.approx(0.5, abs=1e-6)


class TestInnerIntegralCache:
    def test_spline_matches_direct_quadrature(self, params):
        # the cumulative type intensities back every nested integral; their
        # cached splines must track direct quadrature to 1e-7 relative
        rng = np.random.default_rng(3)
        for z in (95.0, 120.0, 145.0):
            ctx = height_context(params, z)
            for link in LinkType:
                for r in rng.uniform(1.0, ctx.r_m, 8):
                    direct = integrate(
                        lambda x: x * float(ctx.p_type(link, np.asarray(x))),
                        0.0, float(r), TIGHT)
                    cached = float(ctx.cum_intensity(link, r))
                    assert cached == pytest.approx(direct, rel=1e-7)

    def test_inverse_cum_roundtrip(self, params):
        ctx = height_context(params, 120.0)
        for link in LinkType:
            g_top = float(ctx.cum_intensity(link, ctx.r_m))
            g = np.linspace(g_top * 1e-4, g_top * 0.999, 40)
            r = ctx.inverse_cum(link, g)
            back = ctx.cum_intensity(link, r)
            assert np.allclose(back, g, rtol=1e-6, atol=g_top * 1e-8)
