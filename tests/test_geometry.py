import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from uavcov import geometry
from uavcov.errors import GeometryError
from uavcov.geometry import (
    displaced_distance,
    equal_power_radius,
    exclusion_radius,
    lens_complement_area,
    receiving_radius,
    same_type_lens,
    same_type_lens_complement_area,
)
from uavcov.model import (
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    OmniAntenna,
    default_params,
)

from oracles import per_call_same_type_area


def closed_form(r0, v, theta, r_m):
    """The same-type area of each r0 on the move grid of (v, theta)."""
    return same_type_lens_complement_area(r0, same_type_lens(v, theta), r_m)


def lens_complement_by_slicing(x, y, v):
    """Independent area oracle: disk B at the origin (radius y), disk A at
    (v, 0) (radius x); integrate the B-chord length outside A over height."""
    def chord_outside(t):
        half_b = math.sqrt(max(y * y - t * t, 0.0))
        sa = x * x - t * t
        if sa <= 0.0:
            return 2.0 * half_b
        half_a = math.sqrt(sa)
        overlap = max(0.0, min(half_b, v + half_a) - max(-half_b, v - half_a))
        return 2.0 * half_b - overlap

    with warnings.catch_warnings():
        # the chord function has kinks; roundoff chatter is expected and the
        # achieved accuracy is far beyond the 1% the comparisons need
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(chord_outside, -y, y, epsabs=1e-7, epsrel=1e-8, limit=400)
    return val


class TestReceivingRadius:
    def test_sv_values(self):
        assert receiving_radius(120.0, 30.0, DirectionalAntenna(120.0)) == pytest.approx(
            155.8845726811989, rel=1e-12)
        assert receiving_radius(120.0, 30.0, DirectionalAntenna(90.0)) == pytest.approx(
            90.0, rel=1e-12)

    def test_omni_truncation(self):
        for z in (95.0, 120.0, 150.0):
            assert receiving_radius(z, 30.0, OmniAntenna(3000.0)) == 3000.0

    def test_below_gbs_raises(self):
        with pytest.raises(GeometryError):
            receiving_radius(30.0, 30.0, DirectionalAntenna(120.0))


class TestEqualPowerRadius:
    def test_identity_same_type(self):
        ch = default_params().channel
        for x in (0.0, 50.0, 300.0):
            assert equal_power_radius(LinkType.LOS, LinkType.LOS, x, 90.0, ch) == x
            assert equal_power_radius(LinkType.NLOS, LinkType.NLOS, x, 90.0, ch) == x

    def test_substitute_back(self):
        ch = default_params().channel
        d = equal_power_radius(LinkType.NLOS, LinkType.LOS, 100.0, 90.0, ch)
        assert d > 0
        target_rss = ch.eta_l * (d * d + 90.0**2) ** (-ch.alpha_l / 2)
        serving_rss = ch.eta_n * (100.0**2 + 90.0**2) ** (-ch.alpha_n / 2)
        assert abs(target_rss - serving_rss) / serving_rss < 1e-9

    def test_symmetric_channel_degenerates(self):
        ch = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                           m_l=2, m_n=2)
        for x in (10.0, 100.0):
            assert equal_power_radius(LinkType.LOS, LinkType.NLOS, x, 90.0,
                                      ch) == pytest.approx(x, rel=1e-12)

    def test_negative_radicand_clamped(self):
        ch = default_params().channel
        # an NLoS GBS can never match a close LoS serving GBS here
        assert equal_power_radius(LinkType.LOS, LinkType.NLOS, 10.0, 90.0, ch) == 0.0

    @given(st.floats(1.0, 500.0), st.floats(1.0, 501.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing(self, x_lo, dx):
        ch = default_params().channel
        h = 90.0
        a = equal_power_radius(LinkType.NLOS, LinkType.LOS, x_lo, h, ch)
        b = equal_power_radius(LinkType.NLOS, LinkType.LOS, x_lo + dx, h, ch)
        assert b > a  # nondegenerate branch: radicand positive for NLoS serving


class TestExclusionRadius:
    def test_substitute_back_when_positive(self, params):
        ch = params.channel
        for serving, r0 in [(LinkType.NLOS, 50.0), (LinkType.NLOS, 150.0)]:
            rho = exclusion_radius(serving, r0, 90.0, ch)
            assert rho > 0
            other = serving.other
            lhs = ch.eta(other) * (rho**2 + 90.0**2) ** (-ch.alpha(other) / 2)
            rhs = ch.eta(serving) * (r0**2 + 90.0**2) ** (-ch.alpha(serving) / 2)
            assert abs(lhs - rhs) / rhs < 1e-9

    def test_symmetric_channel_is_identity(self):
        ch = ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4, eta_n=1e-4,
                           m_l=2, m_n=2)
        assert exclusion_radius(LinkType.LOS, 75.0, 90.0, ch) == pytest.approx(75.0)

    def test_origin_nlos_serving_finite(self, params):
        rho = exclusion_radius(LinkType.NLOS, 0.0, 90.0, params.channel)
        assert rho >= 0.0 and math.isfinite(rho)


class TestDisplacedDistance:
    def test_collinear_away(self):
        assert displaced_distance(10.0, 4.0, 0.0) == pytest.approx(14.0)

    def test_collinear_toward(self):
        assert displaced_distance(10.0, 4.0, math.pi) == pytest.approx(6.0)
        assert displaced_distance(3.0, 7.0, math.pi) == pytest.approx(4.0)

    def test_pythagorean(self):
        assert displaced_distance(3.0, 4.0, math.pi / 2) == pytest.approx(5.0)


class TestLensComplementArea:
    def test_contained(self):
        assert lens_complement_area(x=10.0, y=5.0, v=2.0) == 0.0

    def test_disjoint(self):
        assert lens_complement_area(x=3.0, y=4.0, v=10.0) == pytest.approx(
            math.pi * 16.0, rel=1e-12)

    def test_partial_overlap_frozen_oracle(self):
        # rejection-sampling oracle (1e7 points, seed 0) gave 98.95 +- 0.04
        assert lens_complement_area(x=10.0, y=10.0, v=5.0) == pytest.approx(
            98.94834285600842, abs=0.5)

    def test_a_inside_b(self):
        assert lens_complement_area(x=2.0, y=10.0, v=1.0) == pytest.approx(
            math.pi * (100.0 - 4.0), rel=1e-12)

    def test_degenerate_disks(self):
        # concentric equal disks, concentric A inside B, point disk A
        assert lens_complement_area(x=5.0, y=5.0, v=0.0) == 0.0
        assert lens_complement_area(x=3.0, y=5.0, v=0.0) == pytest.approx(
            16.0 * math.pi, rel=1e-12)
        assert lens_complement_area(x=0.0, y=5.0, v=5.0) == pytest.approx(
            25.0 * math.pi, rel=1e-12)

    def test_rejection_sampling_spot_check(self):
        x, y, v = 10.0, 10.0, 5.0
        rng = np.random.default_rng(0)
        n = 10**7
        # sample uniformly in disk B at the origin; A sits at (v, 0)
        r = y * np.sqrt(rng.random(n))
        ang = 2.0 * np.pi * rng.random(n)
        px, py = r * np.cos(ang), r * np.sin(ang)
        outside_a = (px - v) ** 2 + py**2 > x * x
        estimate = math.pi * y * y * outside_a.mean()
        assert lens_complement_area(x=x, y=y, v=v) == pytest.approx(
            estimate, rel=0.005)

    def test_against_slicing_oracle_all_branches(self):
        rng = np.random.default_rng(42)
        checked = {"contained": 0, "disjoint": 0, "a_in_b": 0, "partial": 0}
        trials = 0
        while trials < 200:
            x = rng.uniform(0.5, 100.0)
            y = rng.uniform(0.5, 100.0)
            v = rng.uniform(0.0, 1.5 * (x + y))
            f = lens_complement_area(x=x, y=y, v=v)
            if v + y <= x:
                assert f == 0.0
                checked["contained"] += 1
            elif v >= x + y:
                assert f == pytest.approx(math.pi * y * y, rel=1e-12)
                checked["disjoint"] += 1
            else:
                oracle = lens_complement_by_slicing(x, y, v)
                assert f == pytest.approx(oracle, rel=0.01, abs=1e-6)
                checked["a_in_b" if v + x <= y else "partial"] += 1
            trials += 1
        assert all(count > 0 for count in checked.values())

    def test_branch_continuity(self):
        eps = 1e-6
        for x, y in [(10.0, 7.0), (5.0, 9.0), (20.0, 20.0)]:
            for boundary in (x + y, abs(x - y)):
                lo = lens_complement_area(x=x, y=y, v=max(boundary - eps, 0.0))
                hi = lens_complement_area(x=x, y=y, v=boundary + eps)
                assert abs(hi - lo) < 1e-3

    @given(st.floats(0.0, 50.0), st.floats(0.1, 50.0), st.floats(0.0, 150.0))
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_zero_iff_contained(self, x, y, v):
        f = lens_complement_area(x=x, y=y, v=v)
        assert 0.0 <= f <= math.pi * y * y + 1e-9
        if v + y <= x:
            assert f == 0.0
        if f == 0.0:
            assert v + y <= x * (1 + 1e-9) + 1e-9

    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0),
           st.floats(0.0, 100.0), st.floats(0.0, 20.0))
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_separation(self, x, y, v, dv):
        assert (lens_complement_area(x=x, y=y, v=v + dv)
                >= lens_complement_area(x=x, y=y, v=v) - 1e-9)

    def test_negative_inputs_rejected(self):
        with pytest.raises(GeometryError):
            lens_complement_area(x=-1.0, y=2.0, v=3.0)


class TestSameTypeLensComplementArea:
    @given(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e-9),
                     st.floats(0.0, 1.0)),
           st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 500.0)),
           st.one_of(st.floats(0.0, 1e-6), st.floats(math.pi - 1e-6, math.pi),
                     st.floats(0.0, math.pi)),
           st.floats(1.0, 3000.0))
    @settings(max_examples=500, deadline=None)
    # the post-move disc shrinking onto the pre-move circle (x = v, y ->
    # 0), where x^2 - v^2 taken from squares left an error of 6e-11
    @example(r0_frac=1.0, v=1.0, theta=3.1415916882161565, r_m=1.0)
    def test_matches_general_formula(self, r0_frac, v, theta, r_m):
        # r0 from 0 to r_m, v toward 0, theta at both ends; both formulas
        # keep their precision as v / r0 -> 0
        r0 = r0_frac * r_m
        closed = closed_form(r0, v, theta, r_m)
        general = lens_complement_area(
            x=r0, y=min(displaced_distance(r0, v, theta), r_m), v=v)
        assert abs(closed - general) <= 1e-13 * (r0 + v) ** 2

    def test_small_move_limit(self):
        # to first order in v the region is r0 v (2 sin(theta) + 2 (pi -
        # theta) cos(theta))
        for r0 in (1.0, 100.0, 3000.0):
            v = 1e-6 * r0
            for theta in np.linspace(0.0, math.pi, 7):
                first_order = r0 * v * (2.0 * math.sin(theta)
                                        + 2.0 * (math.pi - theta) * math.cos(theta))
                assert abs(closed_form(r0, v, theta, 2.0 * r0)
                           - first_order) <= 4.0 * v * v

    def test_general_formula_keeps_precision_for_tiny_moves(self):
        # both circles through one point, v / x about 7.5e-9: summing the
        # lens angles as the angle at the crossing point keeps the region
        # (5.4e-3 m^2), which cancelling squares had put at 7.1e-4 m^2
        r0, v, theta = 814.0, 6.1e-6, 1.90
        closed = closed_form(r0, v, theta, 2.0 * r0)
        general = lens_complement_area(
            x=r0, y=displaced_distance(r0, v, theta), v=v)
        assert closed == pytest.approx(5.4113539e-3, rel=1e-7)
        assert general == pytest.approx(closed, rel=1e-7)

    def test_degenerate_moves(self):
        # no move, a move from the serving GBS itself, straight toward it
        # (B inside A, tangent at the GBS) and straight away (A inside B)
        assert closed_form(50.0, 0.0, 1.0, 100.0) == 0.0
        assert closed_form(0.0, 5.0, 1.0, 100.0) == pytest.approx(
            25.0 * math.pi, rel=1e-12)
        assert closed_form(50.0, 5.0, math.pi, 100.0) == pytest.approx(
            0.0, abs=1e-9)
        assert closed_form(50.0, 5.0, 0.0, 100.0) == pytest.approx(
            math.pi * (55.0**2 - 50.0**2), rel=1e-12)

    def test_broadcasts_like_the_kernel_grid(self):
        r0 = np.array([0.0, 40.0, 100.0])
        theta = np.linspace(0.0, math.pi, 5)[:, None]
        v = np.array([1.0, 20.0, 70.0])
        got = closed_form(r0, v, theta, 100.0)
        assert got.shape == (3, 5, 3)
        r0 = r0[:, None, None]
        want = lens_complement_area(
            x=np.broadcast_to(r0, got.shape),
            y=np.minimum(displaced_distance(r0, v, theta), 100.0), v=v)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 500.0), st.floats(0.0, math.pi),
           st.floats(1.0, 3000.0))
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_the_per_call_expression(self, r0_frac, v, theta, r_m):
        # the factors built apart from r0 leave every operation as it was
        r0 = r0_frac * r_m
        assert closed_form(r0, v, theta, r_m) == per_call_same_type_area(
            r0, v, theta, r_m)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_grid_is_the_per_call_expression(self, order):
        # the kernel's use: factors built once on a stack of altitudes'
        # speed nodes, one altitude's slice per call, serving distances
        # from 0 to r_m of which only the top ones can reach r_m, in any
        # row order
        theta = np.linspace(0.0, math.pi, 24)[:, None]
        v_h = np.linspace(0.5, 20.0, 32) * np.array([[0.5], [1.0]])
        lens = same_type_lens(v_h[:, None, :], theta)
        r_m = 100.0
        r0 = np.linspace(0.0, r_m, 33)
        r0 = {"ascending": r0, "descending": r0[::-1],
              "shuffled": np.random.default_rng(1).permutation(r0)}[order]
        for j, v in enumerate(v_h):
            got = same_type_lens_complement_area(r0, tuple(f[j] for f in lens), r_m)
            want = per_call_same_type_area(r0[:, None, None], v, theta, r_m)
            assert np.any(got != per_call_same_type_area(
                r0[:, None, None], v, theta, np.inf))      # some rows capped
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("capped", [False, True], ids=["r_m=r0+v", "one-ulp-below"])
    def test_cap_skip_boundary(self, monkeypatch, capped):
        # r_after <= r0 + v, so no element is capped when max(r0) + max(v)
        # <= r_m: at r_m == r0 + v the theta = 0 element reaches r_m exactly
        # and the general formula is never called; one ulp below, that
        # element takes it
        rows = np.array([3.0, 40.0, 100.0])
        r0 = rows[:, None, None]
        theta = np.linspace(0.0, math.pi, 5)[:, None]
        v = np.array([1.0, 7.5, 20.0])
        r_m = 120.0
        if capped:
            r_m = float(np.nextafter(r_m, 0.0))
        calls = []

        def counted(**kw):
            calls.append(kw)
            return lens_complement_area(**kw)

        monkeypatch.setattr(geometry, "lens_complement_area", counted)
        got = closed_form(rows, v, theta, r_m)
        want = lens_complement_area(
            x=np.broadcast_to(r0, got.shape),
            y=np.minimum(displaced_distance(r0, v, theta), r_m), v=v)
        assert np.all(np.abs(got - want) <= 1e-13 * (r0 + v) ** 2)
        assert len(calls) == capped
