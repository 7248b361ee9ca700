"""Cumulative type intensities per altitude, and the cross-type exclusion.

A GBS at horizontal distance x is LoS with probability P_L(x, z), so each
type-thinned field has radial intensity 2 pi lambda x P_type(x, z), and
every nested probability integral needs G(r) = int_0^r x P_type(x, z) dx or
its inverse. ``HeightContext`` keeps both for one altitude, or a stack of
them row by row, as piecewise-cubic Hermite interpolants on knots dense
across the elevation-angle transition and geometric beyond it, up to the
receiving radius: G integrates the Hermite of f = x P_type built from f
and its exact derivative, and the inverse interpolates the radius against
sqrt(G), which is linear in the radius near the origin. ``exclusion_factor``
is the probability that no opposite-type GBS beats a serving one.
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


def _interval(knots, x, top):
    """Flat index into the table knots of the interval holding each x, x
    taken with a row per row of knots (clamped to columns 0 to top), its
    width and the fraction of it at x."""
    x = np.reshape(x, (len(knots), -1))
    i = np.array([np.searchsorted(k, v, side="right") for k, v in zip(knots, x)])
    i = np.clip(i - 1, 0, top) + np.arange(0, knots.size, knots.shape[1])[:, None]
    lo = knots.take(i)
    h = knots.take(i + 1) - lo
    return i, h, (x - lo) / h


class HeightContext:
    """Altitude-specific caches: receiving radius, LoS probability and the
    cumulative type intensities int_0^r x P_type dx for both link types. z
    is one altitude, or a column of n; then the methods take r (or g) with
    one row per altitude, as the tables keep them."""

    def __init__(self, z, h_b: float, env: EnvironmentParams,
                 antenna: AntennaModel):
        self.z = z
        self.h_b = h_b
        self.env = env
        self.h_bar = z - h_b
        self.r_m = receiving_radius(z, h_b, antenna)
        # resolve the elevation-angle transition densely, then stretch out
        r_m = np.ravel(self.r_m)
        xs = np.array([
            np.concatenate([np.linspace(0.0, near, _KNOTS + 1),
                            np.geomspace(near, r, _KNOTS + 1)[1:]])
            if r > near * 1.001 else np.linspace(0.0, r, 2 * _KNOTS + 1)
            for near, r in zip(np.minimum(6.0 * np.ravel(self.h_bar), r_m), r_m)])
        p_l = los_probability(xs, z, env, h_b)
        dp_l = los_probability_slope(xs, z, env, h_b)
        h = np.diff(xs)
        self._xs = xs
        # per link: f = x P_link, its slope, and int_0^x f at the knots
        self._cum = {}
        for link, p, dp in ((LinkType.LOS, p_l, dp_l),
                            (LinkType.NLOS, 1.0 - p_l, -dp_l)):
            f, df = xs * p, p + xs * dp
            steps = _hermite_integral(1.0, h, f[:, :-1], df[:, :-1], f[:, 1:],
                                      df[:, 1:])
            self._cum[link] = (f, df, np.concatenate(
                [np.zeros((len(xs), 1)), np.cumsum(steps, axis=1)], axis=1))
        self._inv: dict = {}

    def p_type(self, link: LinkType, r):
        p = los_probability(r, self.z, self.env, self.h_b)
        return p if link is LinkType.LOS else 1.0 - p

    def cum_intensity(self, link: LinkType, r):
        """int_0^r x P_link(x, z) dx, vectorized in r, for r in [0, receiving
        radius]; r beyond it counts as the radius, since no GBS farther away
        is received."""
        f, df, cum = self._cum[link]
        x = np.clip(r, 0.0, self.r_m)
        i, h, t = _interval(self._xs, x, self._xs.shape[1] - 2)
        out = cum.take(i) + _hermite_integral(t, h, f.take(i), df.take(i),
                                              f.take(i + 1), df.take(i + 1))
        out = out.reshape(np.shape(x))
        return float(out) if out.ndim == 0 else out

    def inverse_cum(self, link: LinkType, g):
        """Radius at which the cumulative type intensity reaches g, the
        inverse of cum_intensity on [0, receiving radius].

        Interpolates radius against s = sqrt(cumulative), with slopes
        dx/ds = 2 s / f: the cumulative is quadratic near the origin, so
        the sqrt domain keeps the inverse accurate there; at the origin the
        slope is its limit sqrt(2 / P_link(0)). Rows keep the knots where s
        increases, padded with their last one, which no interval starts at.
        """
        knots = self._inv.get(link)
        if knots is None:
            rows = []
            for s, x, f, df in zip(np.sqrt(self._cum[link][2]), self._xs,
                                   *self._cum[link][:2]):
                keep = np.concatenate([[True], np.diff(s) > 0.0])
                if keep.sum() == 1:
                    # no intensity of this type: every g maps to radius 0
                    s, x, slope = np.array([0.0, 1.0]), np.zeros(2), np.zeros(2)
                else:
                    s, x, f = s[keep], x[keep], f[keep]
                    slope = np.empty_like(s)
                    slope[1:] = 2.0 * s[1:] / f[1:]
                    # P_link(0) underflows to 0 in a sharp sigmoid: the secant
                    slope[0] = (math.sqrt(2.0 / df[0]) if df[0] > 0.0
                                else x[1] / s[1])
                rows.append([np.pad(a, (0, keep.size - s.size), mode="edge")
                             for a in (s, x, slope)] + [[s.size - 2]])
            knots = self._inv[link] = tuple(map(np.array, zip(*rows)))
        s, x, slope, top = knots
        v = np.minimum(np.sqrt(np.maximum(g, 0.0)),
                       np.reshape(s[:, -1], np.shape(self.z)))
        i, h, t = _interval(s, v, top)
        out = np.clip(_hermite(t, h, x.take(i), slope.take(i), x.take(i + 1),
                               slope.take(i + 1)), 0.0, self.r_m)
        out = out.reshape(np.shape(v))
        return float(out) if out.ndim == 0 else out


# a context of the 12 altitude nodes keeps about 1 MB of tables
@lru_cache(maxsize=32)
def _height_context_cached(z, h_b: float, env: EnvironmentParams,
                           antenna) -> HeightContext:
    return HeightContext(np.array(z)[:, None] if isinstance(z, tuple) else z,
                         h_b, env, antenna)


def height_context(params: SystemParams, z) -> HeightContext:
    """Memoized context of the altitude z, or of each altitude in it."""
    key = float(z) if np.ndim(z) == 0 else tuple(np.ravel(z).tolist())
    return _height_context_cached(key, params.h_b, params.env, params.antenna)


def exclusion_factor(serving: LinkType, r0, ctx: HeightContext,
                     params: SystemParams):
    """Probability that no opposite-type GBS lies within the cross-type
    exclusion radius of a serving GBS at r0, which it must to win. The
    cumulative intensity caps the radius at the receiving radius: a GBS of
    either type beyond the receiving range is not received and cannot have
    won."""
    limit = exclusion_radius(serving, r0, ctx.h_bar, params.channel)
    return np.exp(-2.0 * np.pi * params.lambda_b
                  * ctx.cum_intensity(serving.other, limit))
