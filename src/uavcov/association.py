"""Serving-distance distributions and association probabilities.

The building blocks are the type-thinned nearest-GBS densities and the
cross-type exclusion factors; combined they give the probability of
associating with a LoS/NLoS GBS and the conditional serving-distance PDF
under the strongest-average-RSS policy, plus the contact distance of the
plain PPP for the nearest policy.

The inner integrals int_0^r x P_type(x, z) dx appear inside every nested
probability integral, so they are precomputed per (z, type) as cubic-spline
antiderivatives and reused; beyond the precomputed span a fixed
Gauss-Legendre panel extends them exactly where needed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import UndefinedConditionalError
from .geometry import exclusion_radius, receiving_radius
from .model import (
    AntennaModel,
    EnvironmentParams,
    LinkType,
    SystemParams,
    los_probability,
)
from .quadrature import QuadratureSpec, gauss_nodes, integrate

__all__ = [
    "nearest_type_pdf",
    "association_probability",
    "serving_distance_pdf",
    "nearest_any_pdf",
    "exclusion_factor",
    "height_context",
]

_ASSOC_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12, max_depth=14)
_SPLINE_POINTS = 384
_EXTENSION_NODES = 48


class HeightContext:
    """Altitude-specific caches: receiving radius, LoS probability and the
    cumulative type intensities int_0^r x P_type dx for both link types."""

    def __init__(self, z: float, h_b: float, env: EnvironmentParams,
                 antenna: AntennaModel):
        self.z = z
        self.h_b = h_b
        self.env = env
        self.h_bar = z - h_b
        self.r_m = receiving_radius(z, h_b, antenna)
        self._span = self.r_m
        # resolve the elevation-angle transition densely, then stretch out
        near = min(6.0 * self.h_bar, self._span)
        if self._span > near * 1.001:
            xs = np.concatenate([
                np.linspace(0.0, near, _SPLINE_POINTS + 1),
                np.geomspace(near, self._span, _SPLINE_POINTS + 1)[1:],
            ])
        else:
            xs = np.linspace(0.0, self._span, 2 * _SPLINE_POINTS + 1)
        p_l = los_probability(xs, z, env, h_b)
        self._xs = xs
        self._cum = {
            LinkType.LOS: CubicSpline(xs, xs * p_l).antiderivative(),
            LinkType.NLOS: CubicSpline(xs, xs * (1.0 - p_l)).antiderivative(),
        }
        self._inv: dict = {}

    def p_type(self, link: LinkType, r):
        p = los_probability(r, self.z, self.env, self.h_b)
        return p if link is LinkType.LOS else 1.0 - p

    def cum_intensity(self, link: LinkType, r):
        """int_0^r x P_link(x, z) dx, vectorized in r."""
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.asarray(self._cum[link](np.minimum(r, self._span)))
        flat_r, flat_out = r.ravel(), out.ravel()
        for i in np.nonzero(flat_r > self._span)[0]:
            x, w = gauss_nodes(self._span, flat_r[i], _EXTENSION_NODES)
            flat_out[i] += float(np.sum(w * x * self.p_type(link, x)))
        return float(out[0]) if scalar else out

    def inverse_cum(self, link: LinkType, g):
        """Radius at which the cumulative type intensity reaches g, the
        inverse of cum_intensity on [0, receiving radius].

        Interpolates radius against sqrt(cumulative): the cumulative is
        quadratic near the origin, so the sqrt domain keeps the inverse
        accurate there.
        """
        spline = self._inv.get(link)
        if spline is None:
            vals = np.sqrt(self._cum[link](self._xs))
            keep = np.concatenate([[True], np.diff(vals) > 0.0])
            spline = CubicSpline(vals[keep], self._xs[keep])
            self._inv[link] = spline
        top = float(self._cum[link](self._span))
        out = np.clip(spline(np.sqrt(np.clip(g, 0.0, top))), 0.0, self._span)
        return float(out) if np.ndim(out) == 0 else out


@lru_cache(maxsize=512)
def _height_context_cached(z: float, h_b: float, env: EnvironmentParams,
                           antenna) -> HeightContext:
    return HeightContext(z, h_b, env, antenna)


def height_context(params: SystemParams, z: float) -> HeightContext:
    """Memoized altitude context for the given parameters."""
    return _height_context_cached(z, params.h_b, params.env, params.antenna)


def exclusion_factor(serving: LinkType, r0, ctx: HeightContext,
                     params: SystemParams):
    """Probability that no opposite-type GBS lies within the cross-type
    exclusion radius of a serving GBS at r0, which it must to win. The
    radius is capped at the receiving radius: a GBS of either type beyond
    the receiving range is not received and cannot have won."""
    limit = np.minimum(exclusion_radius(serving, r0, ctx.h_bar, params.channel),
                       ctx.r_m)
    return np.exp(-2.0 * np.pi * params.lambda_b
                  * ctx.cum_intensity(serving.other, limit))


def nearest_type_pdf(link: LinkType, r0, z: float, params: SystemParams):
    """Density of the distance to the nearest GBS of the given link type.

    The type-thinned GBS field is an inhomogeneous PPP with radial
    intensity lambda_b * P_type(x, z), so the contact distance has density
    2 pi lambda r P(r) exp(-2 pi lambda int_0^r x P dx).
    """
    ctx = height_context(params, z)
    r0 = np.asarray(r0, dtype=float)
    lam = params.lambda_b
    out = (2.0 * np.pi * lam * r0 * ctx.p_type(link, r0)
           * np.exp(-2.0 * np.pi * lam * ctx.cum_intensity(link, r0)))
    return float(out) if out.ndim == 0 else out


def _joint_weight(link: LinkType, r0, ctx: HeightContext, params: SystemParams):
    """Joint density of {nearest link-type GBS at r0} and {it wins the
    association}: f_{R0} times the opposite-type void factor. Equals
    A(z) * f_tilde(r0, z)."""
    lam = params.lambda_b
    r0 = np.asarray(r0, dtype=float)
    f_nearest = (2.0 * np.pi * lam * r0 * ctx.p_type(link, r0)
                 * np.exp(-2.0 * np.pi * lam * ctx.cum_intensity(link, r0)))
    return f_nearest * exclusion_factor(link, r0, ctx, params)


@lru_cache(maxsize=2048)
def _association_probability_cached(link: LinkType, z: float,
                                    params: SystemParams) -> float:
    ctx = height_context(params, z)

    def integrand(r0):
        return float(_joint_weight(link, np.asarray(r0), ctx, params))

    return integrate(integrand, 0.0, ctx.r_m, _ASSOC_SPEC)


def association_probability(link: LinkType, z: float, params: SystemParams) -> float:
    """Probability that the UAV associates with a GBS of the given type.

    Integrates the joint serving weight over [0, receiving radius]; the
    remaining mass 1 - A_L - A_N is the void probability (no receivable
    GBS at all, or none that wins within range).
    """
    return _association_probability_cached(link, z, params)


def serving_distance_pdf(link: LinkType, r0, z: float, params: SystemParams):
    """Conditional PDF of the serving distance given the serving type.

    Raises when the conditioning event is numerically impossible (its
    probability is below 1e-15).
    """
    a = association_probability(link, z, params)
    if a < 1e-15:
        raise UndefinedConditionalError(
            f"association probability is {a:.2e} for {link} at z={z}; "
            "the conditional distribution is undefined")
    ctx = height_context(params, z)
    return _joint_weight(link, r0, ctx, params) / a


def nearest_any_pdf(r0, params: SystemParams):
    """Contact-distance density of the full PPP, 2 pi lam r exp(-pi lam r^2)."""
    r0 = np.asarray(r0, dtype=float)
    lam = params.lambda_b
    out = 2.0 * np.pi * lam * r0 * np.exp(-np.pi * lam * r0 * r0)
    return float(out) if out.ndim == 0 else out
