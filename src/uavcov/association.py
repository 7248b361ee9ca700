"""Cumulative type intensities per altitude, and the serving process.

A GBS at horizontal distance x is LoS with probability P_L(x, z), so each
type-thinned field has radial intensity 2 pi lambda x P_type(x, z), and
every nested probability integral needs G(r) = int_0^r x P_type(x, z) dx.
``HeightContext`` keeps it for one altitude, or a stack of them row by row,
as a piecewise-cubic Hermite interpolant on knots dense across the
elevation-angle transition and geometric beyond it, up to the receiving
radius: G integrates the Hermite of f = x P_type built from f and its
exact derivative.

A policy ranks stations by a loss (x^2 + h_bar^2)^(alpha/2) / eta, its
law (eta, alpha) per type. Ranked so, the received stations of both types
are one PPP on the half-line, the serving process; ``HeightContext``
inverts its cumulative intensity per policy's laws, and ``serving_nodes``
puts the serving-distance nodes of both types in the CDF of its first
point.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .geometry import receiving_radius
from .model import (
    AntennaModel,
    EnvironmentParams,
    LinkType,
    SystemParams,
    los_probability,
    los_probability_slope,
    los_radius,
)
from .quadrature import panel_nodes

__all__ = ["HeightContext", "height_context", "serving_nodes"]

_KNOTS = 384    # per panel: linear across the elevation transition, geometric beyond
# the LoS probabilities whose radii split the serving process's panels
_LEVELS = np.array([0.999, 0.9, 0.5, 0.1, 0.001])


def _log_loss(law, start, x, h_bar):
    """Log of the ranking loss (x^2 + h_bar^2)^(alpha/2) / eta of a station
    at distance x under law = (eta, alpha), measured from the least such
    log of a station straight below, start being this law's own. Near that
    station the log-loss keeps its relative precision, which the loss, a
    large number barely above its least, would lose."""
    return 0.5 * law[1] * np.log1p((x / h_bar) ** 2) + start


def _radius(law, start, tau, h_bar):
    """Distance of log-loss tau under law, the inverse of _log_loss; 0
    below the start."""
    return h_bar * np.sqrt(np.maximum(np.expm1((2.0 / law[1]) * (tau - start)), 0.0))


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
    """Altitude-specific caches: receiving radius, LoS probability, the
    cumulative type intensities int_0^r x P_type dx for both link types, and
    the inverse of the serving process's intensity per set of ranking laws.
    z is one altitude, or a column of n; then the methods take r (or tau, or
    g) with one row per altitude, as the tables keep them."""

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

    def supports(self, laws):
        """Per type, LoS first: its law, and the log-losses where its support
        starts (a station straight below) and ends (at the receiving
        radius), both measured from the lesser start."""
        below = [alpha * np.log(self.h_bar) - np.log(eta) for eta, alpha in laws]
        return [(law, start, _log_loss(law, start, self.r_m, self.h_bar))
                for law, start in zip(laws, [b - np.minimum(*below) for b in below])]

    def log_losses(self, laws, x):
        """Log-losses of stations at distances x, a row per altitude, under
        each distinct law of laws, side by side."""
        return np.concatenate([_log_loss(law, start, x, self.h_bar) for law, start
                               in dict((law, start) for law, start, _ in
                                       self.supports(laws)).items()], axis=-1)

    def rank_rates(self, laws, tau):
        """Per type, LoS first: the distance x_t(tau) at which its stations
        rank at log-loss tau, capped at the receiving radius; their intensity
        per unit log-loss there, x P_t(x) dx/dtau = P_t(x) (x^2 + h_bar^2) /
        alpha_t without the 2 pi lambda; and where the type's support starts
        and ends."""
        out = []
        for link, (law, start, end) in zip(LinkType, self.supports(laws)):
            x = np.minimum(_radius(law, start, tau, self.h_bar), self.r_m)
            out.append((x, self.p_type(link, x) * (x * x + self.h_bar ** 2) / law[1],
                        start, end))
        return out

    def ranked_cum(self, laws, tau):
        """Intensity of the serving process up to log-loss tau without the
        2 pi lambda, Lam(tau) = sum_t G_t(min(x_t(tau), receiving radius)),
        x_t(tau) being the distance at which a type-t station ranks at tau."""
        return sum(self.cum_intensity(link, _radius(law, start, tau, self.h_bar))
                   for link, (law, start, _) in zip(LinkType, self.supports(laws)))

    def inverse_cum(self, laws, g):
        """Log-loss at which ``ranked_cum`` of laws reaches g; its table is
        built on the first call per laws.

        Interpolates the log-loss against s = sqrt(Lam) on the knots of the
        cumulative tables mapped to their log-losses under each law, with
        slopes dtau/ds = 2 s / Lam'(tau): Lam is linear in tau where the
        first type's support starts, so tau is quadratic in s there. Lam'
        jumps where a type's support starts or ends, at a knot, so a knot
        keeps one slope for the interval it starts and one for the interval
        it ends (the secant where Lam' is 0). No g falls in an interval of
        equal s, since the search takes the last knot at or below it.
        """
        knots = self._inv.get(laws)
        if knots is None:
            knots = self._inv[laws] = self._inverse_knots(laws)
        s, tau, out_slope, in_slope, top = knots
        v = np.minimum(np.sqrt(np.maximum(g, 0.0)),
                       np.reshape(s[:, -1], np.shape(self.z)))
        i, h, t = _interval(s, v, top)
        out = _hermite(t, h, tau.take(i), out_slope.take(i), tau.take(i + 1),
                       in_slope.take(i + 1)).reshape(np.shape(v))
        return float(out) if out.ndim == 0 else out

    def _inverse_knots(self, laws):
        tau = self.log_losses(laws, self._xs)
        cum = self.ranked_cum(laws, tau)
        up = down = 0.0                 # Lam' above and below each knot
        for _, rate, lo, hi in self.rank_rates(laws, tau):
            up = up + np.where((tau >= lo) & (tau < hi), rate, 0.0)
            down = down + np.where((tau > lo) & (tau <= hi), rate, 0.0)
        order = np.argsort(tau, axis=1, kind="stable")
        tau, up, down = (np.take_along_axis(a, order, axis=1) for a in (tau, up, down))
        s = np.sqrt(np.maximum.accumulate(np.take_along_axis(cum, order, axis=1),
                                          axis=1))
        ds, dtau = np.diff(s, axis=1), np.diff(tau, axis=1)
        rise = ds > 0.0
        secant = np.divide(dtau, ds, out=np.zeros_like(ds), where=rise)
        zero = np.zeros((len(s), 1))
        out_slope = np.divide(2.0 * s, up, out=np.hstack([secant, zero]), where=up > 0.0)
        in_slope = np.divide(2.0 * s, down, out=np.hstack([zero, secant]),
                             where=down > 0.0)
        # the last interval over which s rises: a final run of equal s is
        # never an interval's end
        top = rise.shape[1] - 1 - np.argmax(rise[:, ::-1], axis=1)
        return s, tau, out_slope, in_slope, top[:, None]


# a context of the 12 altitude nodes keeps about 1.4 MB of tables
@lru_cache(maxsize=32)
def _height_context_cached(z, h_b: float, env: EnvironmentParams,
                           antenna) -> HeightContext:
    return HeightContext(np.array(z)[:, None] if isinstance(z, tuple) else z,
                         h_b, env, antenna)


def height_context(params: SystemParams, z) -> HeightContext:
    """Memoized context of the altitude z, or of each altitude in it."""
    key = float(z) if np.ndim(z) == 0 else tuple(np.ravel(z).tolist())
    return _height_context_cached(key, params.h_b, params.env, params.antenna)


def serving_nodes(ctx: HeightContext, laws, lam: float, n: int):
    """Serving-distance nodes of both types at each altitude of ctx: {link:
    (r0, weight)} with a row of n per altitude, and the void probability
    per altitude.

    Ranked by its log-loss tau under its type's law, every received station
    is a point of one PPP on the half-line of mean measure 2 pi lam Lam(tau)
    (``HeightContext.ranked_cum``), the propagation process of Blaszczyszyn
    and Keeler (IEEE Trans. Inf. Theory 2015), and the server is its first
    point. So its u = 1 - exp(-2 pi lam Lam(tau)) is uniform on [0, 1], and
    values above 1 - void, where Lam stops at the last received station,
    leave the UAV unserved. The nodes are Gauss nodes in u on panels split
    where a type's support starts or ends and at the log-losses, under
    either law, of the radii where P_LoS crosses _LEVELS (``panel_nodes``).
    At a node each type sits at its own distance x_t(tau), weighted by its
    share dLam_t/dLam of the density, so both weights add to the node's,
    and the association to 1 - void, up to roundoff; a node where no type
    has density (a support end missed by a rounding) counts as LoS.
    """
    scale = 2.0 * np.pi * lam
    r_m = np.reshape(ctx.r_m, (-1, 1))
    radii = np.concatenate([np.zeros_like(r_m), r_m, np.minimum(los_radius(
        _LEVELS, np.reshape(ctx.z, (-1, 1)), ctx.env, ctx.h_b), r_m)], axis=1)
    cum = ctx.ranked_cum(laws, ctx.log_losses(laws, radii))
    u, w_u = panel_nodes(-np.expm1(-scale * cum), n)
    tau = ctx.inverse_cum(laws, -np.log1p(-u) / scale)
    (x_l, rate_l), (x_n, rate_n) = (
        (x, np.where((tau > lo) & (tau < hi), rate, 0.0))
        for x, rate, lo, hi in ctx.rank_rates(laws, tau))
    share_n = np.divide(rate_n, rate_l + rate_n, out=np.zeros_like(tau),
                        where=rate_n > 0.0)
    return ({LinkType.LOS: (x_l, w_u * (1.0 - share_n)),
             LinkType.NLOS: (x_n, w_u * share_n)},
            np.exp(-scale * cum.max(axis=1)))
