import math
from dataclasses import replace

import numpy as np
import pytest

from uavcov.association import HeightContext, height_context
from uavcov.geometry import exclusion_radius
from uavcov.model import (
    BOUNDARY_DEFAULTS,
    ChannelParams,
    DirectionalAntenna,
    EnvironmentParams,
    LinkType,
    OmniAntenna,
    default_params,
)

from quadpack import (
    QuadratureSpec,
    UndefinedConditionalError,
    association_probability,
    cum_intensity,
    integrate,
    nearest_any_pdf,
    nearest_type_pdf,
    ranked_cum,
    serving_distance_pdf,
)

TIGHT = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_depth=14)
OMNI = OmniAntenna(BOUNDARY_DEFAULTS["r_max"])
# the ranking laws (eta, alpha) of both types, LoS first: strongest RSS at
# the baseline channel, and the nearest policy's common law
CHANNEL = default_params().channel
LAWS = {"strongest": ((CHANNEL.eta_l, CHANNEL.alpha_l),
                      (CHANNEL.eta_n, CHANNEL.alpha_n)),
        "nearest": ((1.0, 2.0),) * 2}


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
                                * cum_intensity(ctx, link.other, rho))
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

    @pytest.mark.parametrize("channel", [
        default_params().channel,
        replace(default_params().channel, alpha_l=3.0, alpha_n=3.0)],
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
        # cached interpolants must track direct quadrature to 1e-7 relative
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
        top = sum(ctx.cum_intensity(link, ctx.r_m) for link in LinkType)
        g = np.linspace(top * 1e-4, top * 0.999, 40)
        for laws in LAWS.values():
            back = ctx.ranked_cum(laws, ctx.inverse_cum(laws, g))
            assert np.allclose(back, g, rtol=1e-6, atol=top * 1e-8)


class TestHeightContext:
    # QUADPACK at 1e-12 relative differs from the scipy cubic splines these
    # interpolants replaced by at most 2.3e-11 of the span's cumulative in
    # cum(r); the serving process's inverse is held to the same bound in
    # QUADPACK's cumulative up to inverse_cum(g) against g, and near the
    # origin (g at most 1e-6 of the span's) to the bound the splines'
    # inverse met, which missed by up to 2.3e-3 of g
    TOL, NEAR_TOL = 1e-10, 5e-3
    SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-300, max_depth=14)

    @pytest.mark.parametrize("z", [90.0, 120.0, 150.0, 300.0])
    @pytest.mark.parametrize("antenna", [DirectionalAntenna(30.0),
                                         DirectionalAntenna(120.0),
                                         DirectionalAntenna(170.0),
                                         OMNI],
                             ids=["30deg", "120deg", "170deg", "omni"])
    def test_matches_quadpack(self, antenna, z):
        ctx = HeightContext(z, 30.0, default_params().env, antenna)
        tops = 0.0
        for link in LinkType:
            def cum(r):
                def f(x):
                    return x * float(ctx.p_type(link, np.asarray(x)))
                return integrate(f, 0.0, float(r), self.SPEC)

            top = cum(ctx.r_m)
            tops += top
            for r in ctx.r_m * np.array([1e-3, 0.02, 0.1, 0.3, 0.6, 1.0]):
                assert abs(ctx.cum_intensity(link, r) - cum(r)) <= self.TOL * top
        for name, laws in LAWS.items():
            def lam(g):
                return ranked_cum(ctx, laws, ctx.inverse_cum(laws, g), self.SPEC)

            for g in tops * np.array([1e-4, 1e-2, 0.1, 0.3, 0.6, 0.9, 1.0]):
                assert abs(lam(g) - g) <= self.TOL * tops, (name, g / tops)
            for g in tops * np.array([1e-12, 1e-10, 1e-8, 1e-6]):
                assert abs(lam(g) - g) <= self.NEAR_TOL * g, (name, g / tops)


class TestStackedHeightContext:
    """A context of several altitudes keeps a table row per altitude; each
    row answers exactly as the context of that altitude alone."""

    CASES = [
        (default_params().antenna, default_params().env),
        (DirectionalAntenna(170.0), EnvironmentParams(a=20.0, b=1.0)),
        (OMNI, default_params().env),
        (OMNI, replace(default_params().env, b=10.0)),
    ]

    @pytest.mark.parametrize("antenna, env", CASES, ids=[
        "directional", "wide-beam-steep", "omni", "omni-sharp"])
    def test_rows_match_one_altitude_contexts(self, antenna, env):
        z = np.linspace(90.0, 150.0, 7)
        stacked = HeightContext(z[:, None], 30.0, env, antenna)
        contexts = [HeightContext(float(z_j), 30.0, env, antenna) for z_j in z]
        frac = np.linspace(-0.1, 1.1, 25)
        r = stacked.r_m * frac
        for link in LinkType:
            cum, p = stacked.cum_intensity(link, r), stacked.p_type(link, r)
            for j, ctx in enumerate(contexts):
                assert np.array_equal(cum[j], ctx.cum_intensity(link, r[j]))
                assert np.array_equal(p[j], ctx.p_type(link, r[j]))
        g = sum(stacked.cum_intensity(link, stacked.r_m) for link in LinkType) * frac
        for laws in LAWS.values():
            inv = stacked.inverse_cum(laws, g)
            for j, ctx in enumerate(contexts):
                assert np.array_equal(inv[j], ctx.inverse_cum(laws, g[j]))

    def test_sharp_sigmoid_keeps_uneven_inverse_rows(self):
        # in a sharp sigmoid the far LoS and the near NLoS stations add
        # nothing over a range of log-losses, which differs per altitude:
        # each row keeps its own knots of equal sqrt(Lam), and a g just
        # above such a run inverts past it, not into it
        stacked = HeightContext(np.linspace(90.0, 150.0, 7)[:, None], 30.0,
                                replace(default_params().env, b=10.0), OMNI)
        laws = LAWS["strongest"]
        stacked.inverse_cum(laws, 0.0)
        s = stacked._inv[laws][0]
        flat = np.diff(s, axis=1) == 0.0
        assert np.all(np.any(flat, axis=1))
        assert len({tuple(np.flatnonzero(row)) for row in flat}) > 1
        # a run's sqrt(Lam) squared, plus a millionth
        run = np.argmax(flat, axis=1)[:, None]
        g = np.take_along_axis(s, run, axis=1) ** 2 * (1.0 + 1e-6)
        back = stacked.ranked_cum(laws, stacked.inverse_cum(laws, g))
        assert np.allclose(back, g, rtol=1e-8, atol=0.0)

    def test_memoized_per_altitude_set(self, params):
        z = np.linspace(90.0, 150.0, 7)
        ctx = height_context(params, z)
        assert height_context(params, z[:, None]) is ctx
        assert ctx.z.shape == ctx.h_bar.shape == ctx.r_m.shape == (7, 1)
