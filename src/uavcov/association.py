"""Cumulative type intensities per altitude, and the cross-type exclusion.

A GBS at horizontal distance x is LoS with probability P_L(x, z), so each
type-thinned field has radial intensity 2 pi lambda x P_type(x, z), and
every nested probability integral needs G(r) = int_0^r x P_type(x, z) dx or
its inverse. ``HeightContext`` keeps both per altitude as piecewise-cubic
Hermite interpolants on one set of knots, dense across the elevation-angle
transition and geometric beyond it, up to the receiving radius: G
integrates the Hermite of f = x P_type built from f and its exact
derivative, and the inverse interpolates the radius against sqrt(G), which
is linear in the radius near the origin. ``exclusion_factor`` is the
probability that no opposite-type GBS beats a serving one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import exclusion_radius, receiving_radius
from .model import (
    AntennaModel,
    EnvironmentParams,
    LinkType,
    SystemParams,
    los_probability,
    los_probability_slope,
)

__all__ = ["HeightContext", "exclusion_factor", "height_context"]

_KNOTS = 384    # per panel: linear across the elevation transition, geometric beyond


def _hermite(t, h, y0, m0, y1, m1):
    """Cubic Hermite through (y0, slope m0) and (y1, m1) on an interval of
    width h, at the fraction t of the interval."""
    t2 = t * t
    t3 = t2 * t
    return ((2.0 * t3 - 3.0 * t2 + 1.0) * y0 + (t3 - 2.0 * t2 + t) * h * m0
            + (3.0 * t2 - 2.0 * t3) * y1 + (t3 - t2) * h * m1)


def _hermite_integral(t, h, y0, m0, y1, m1):
    """Integral of ``_hermite`` from the interval's start to the fraction t;
    h (y0 + y1)/2 + h^2 (m0 - m1)/12 over the whole interval."""
    t2 = t * t
    t3 = t2 * t
    t4 = t2 * t2
    return h * ((t - t3 + 0.5 * t4) * y0
                + (0.5 * t2 - 2.0 * t3 / 3.0 + 0.25 * t4) * h * m0
                + (t3 - 0.5 * t4) * y1 + (0.25 * t4 - t3 / 3.0) * h * m1)


def _interval(knots, x):
    """Index of the knot interval holding each x (clamped to the first and
    last interval) and the fraction of that interval at x."""
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    h = knots[i + 1] - knots[i]
    return i, h, (x - knots[i]) / h


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
        # resolve the elevation-angle transition densely, then stretch out
        near = min(6.0 * self.h_bar, self.r_m)
        if self.r_m > near * 1.001:
            xs = np.concatenate([
                np.linspace(0.0, near, _KNOTS + 1),
                np.geomspace(near, self.r_m, _KNOTS + 1)[1:],
            ])
        else:
            xs = np.linspace(0.0, self.r_m, 2 * _KNOTS + 1)
        p_l = los_probability(xs, z, env, h_b)
        dp_l = los_probability_slope(xs, z, env, h_b)
        h = np.diff(xs)
        self._xs = xs
        # per link: f = x P_link, its slope, and int_0^x f at the knots
        self._cum = {}
        for link, p, dp in ((LinkType.LOS, p_l, dp_l),
                            (LinkType.NLOS, 1.0 - p_l, -dp_l)):
            f, df = xs * p, p + xs * dp
            steps = _hermite_integral(1.0, h, f[:-1], df[:-1], f[1:], df[1:])
            self._cum[link] = (f, df, np.concatenate([[0.0], np.cumsum(steps)]))
        self._inv: dict = {}

    def p_type(self, link: LinkType, r):
        p = los_probability(r, self.z, self.env, self.h_b)
        return p if link is LinkType.LOS else 1.0 - p

    def cum_intensity(self, link: LinkType, r):
        """int_0^r x P_link(x, z) dx, vectorized in r, for r in [0, receiving
        radius]; r beyond it counts as the radius, since no GBS farther away
        is received."""
        f, df, cum = self._cum[link]
        i, h, t = _interval(self._xs, np.clip(r, 0.0, self.r_m))
        out = cum[i] + _hermite_integral(t, h, f[i], df[i], f[i + 1], df[i + 1])
        return float(out) if np.ndim(out) == 0 else out

    def inverse_cum(self, link: LinkType, g):
        """Radius at which the cumulative type intensity reaches g, the
        inverse of cum_intensity on [0, receiving radius].

        Interpolates radius against s = sqrt(cumulative), with slopes
        dx/ds = 2 s / f: the cumulative is quadratic near the origin, so
        the sqrt domain keeps the inverse accurate there; at the origin the
        slope is its limit sqrt(2 / P_link(0)).
        """
        knots = self._inv.get(link)
        if knots is None:
            f, df, cum = self._cum[link]
            s = np.sqrt(cum)
            keep = np.concatenate([[True], np.diff(s) > 0.0])
            s, x, f = s[keep], self._xs[keep], f[keep]
            slope = np.empty_like(s)
            slope[1:] = 2.0 * s[1:] / f[1:]
            # P_link(0) underflows to 0 in a sharp sigmoid; take the secant
            slope[0] = (math.sqrt(2.0 / df[0]) if df[0] > 0.0
                        else x[1] / s[1])
            knots = self._inv[link] = (s, x, slope)
        s, x, slope = knots
        i, h, t = _interval(s, np.minimum(np.sqrt(np.maximum(g, 0.0)), s[-1]))
        out = np.clip(_hermite(t, h, x[i], slope[i], x[i + 1], slope[i + 1]),
                      0.0, self.r_m)
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
