"""Numerical evaluation of the closed-form handover and coverage expressions.

``coverage_probability(params)`` is the one entry point for the marginal
quantities: coverage, handover, association and void. The association rule
is ``params.policy``: strongest-average-RSS, or nearest GBS (type-blind
handover, interference from beyond the serving distance). The conditional
quantities are private kernels: ``_stay_grid`` (no handover, composed from
the per-target ``_cond_handover_grid``), which reads the rule too, and
``_coverage_grid`` (coverage of both serving types, from ``_panel_terms``,
``_exponent_terms`` and ``_coverage_series``).

Layout of the computation:

* conditional handover: PPP null probability of the equal-power
  lens-complement region, averaged over movement direction x horizontal-speed
  law. Transition length and pre-move altitude enter the region only through
  the horizontal speed, so their double integral is one integral over the
  law of that speed given the post-move altitude, on Gauss nodes in the
  square root of its closed-form CDF, in which the law's F ~ v_h^2 start
  is smooth (``model.horizontal_speed_nodes``). A serving distance whose
  region is empty at every speed up to V (target radius 0, or post-move
  disk inside the pre-move one; most cross-type rows) is 0 without a
  grid; a same-type target, every target of the nearest rule,
  takes the closed-form lens angles of two circles through the serving
  GBS (``geometry.same_type_lens_complement_area``); the remaining
  cross-type rows take the general lens formula. One call per serving
  type covers every altitude: the speed nodes of all altitudes come from
  one stacked inversion, and the same-type lens factors of the (theta,
  v_h) grid (``geometry.same_type_lens``) are built once per call; only
  the lens grid, its exp and the average over (theta, v_h), a
  matrix-vector product, run one altitude at a time;
* conditional coverage: the finite Nakagami sum over derivatives of the
  interference Laplace transform, taken as exp(g0) sum_{l<m} b_l from the
  exponent g0 and the nonnegative coefficients t_k (negative-binomial
  integrals), every term a probability (``_coverage_series``; the Monte
  Carlo near field sums the same terms). The integrals run on N_X Gauss
  nodes per row in asinh(x / h_bar), where both the near field and the
  slowly decaying far tail are smooth, on panels split where P_LoS crosses
  0.9, 0.5 and 0.1 so that a sharp elevation sigmoid is resolved wherever
  it falls (``_radial_panel``). One call covers both serving
  types on the altitude x node grid, each row carrying its own altitude;
  each type's interferers start at its own node distance whichever type
  serves, so only the Nakagami terms run per serving type, on its rows of
  weight > 0;
* totals: row sums over (altitude, serving distance) arrays of nodes,
  weights and handover. Both serving types take their distances from one
  set of nodes per altitude in the CDF of the serving process
  (``association.serving_nodes``), whose nodes concentrate where the
  server is (for the omni antenna, orders of magnitude inside the
  receiving radius). The policy enters only as the law by which it ranks
  each type (``_ranking_laws``), and at every node the weights of both
  types add to the node's, so association + void = 1 and handover <= 1 -
  void up to roundoff.

Of ``coverage_probability``'s outputs, ``total`` and ``void_prob`` are
clamped to [0, 1]. The conditional kernels clip their grids to [0, 1];
conditional coverage that drifts beyond 1e-6 outside the interval
increments a counter that the acceptance suite asserts to be zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .association import height_context, serving_nodes
from .errors import ParameterError
from .geometry import (
    displaced_distance,
    equal_power_radius,
    lens_complement_area,
    receiving_radius,
    same_type_lens,
    same_type_lens_complement_area,
)
from .model import (
    AssociationPolicy,
    LinkType,
    SystemParams,
    horizontal_speed_nodes,
    los_probability,
    los_radius,
    path_loss,
)
from .quadrature import gauss_nodes, panel_nodes

__all__ = [
    "CoverageBreakdown",
    "coverage_probability",
    "coverage_drift_events",
    "reset_coverage_drift_counter",
]

# default node counts; doubled values change probabilities < 1e-4 at the
# baseline scenario (see tests/test_analytic.py::test_grid_convergence)
N_Z = 12        # post-move altitude
N_R0 = 32       # serving distance (the serving process's CDF), per altitude
N_THETA = 24    # movement direction
N_V = 12        # horizontal speed (square root of its CDF)
N_X = 44        # interference distance, per row (asinh panels)
# the LoS probabilities whose radii split the interference rule's panels;
# adding the serving process's 0.999 and 0.001 (association._LEVELS) took
# nodes from the sigmoid: b = 3 omni rows then missed 4 N_X by 2.6e-7,
# against 6.8e-9 without
_X_LEVELS = np.array([0.9, 0.5, 0.1])

_drift_events = 0


def coverage_drift_events() -> int:
    """Number of conditional-coverage evaluations that drifted more than
    1e-6 outside [0, 1] before clamping."""
    return _drift_events


def reset_coverage_drift_counter() -> None:
    global _drift_events
    _drift_events = 0


@dataclass(frozen=True)
class CoverageBreakdown:
    """Coverage probability with its companion quantities.

    per_link holds the LoS/NLoS serving contributions to the total (joint
    probabilities of "served by that type and covered"); association holds
    the LoS/NLoS association probabilities.
    """

    total: float
    per_link: tuple[float, float]
    handover_prob: float
    void_prob: float
    association: tuple[float, float]


# ---------------------------------------------------------------------------
# conditional handover probability
# ---------------------------------------------------------------------------

def _cond_handover_grid(serving: LinkType, targets: tuple, r0, z_t,
                        params: SystemParams, n_theta=N_THETA,
                        n_v=N_V) -> np.ndarray:
    """P(handover to each target type | serving type, r0, z_t), one row per
    target type, vectorized in r0: a row of r0 per altitude in z_t (or r0 at
    one z_t).

    The movement reaches the handover region only through its direction
    theta and its horizontal speed v_h, so the expectation runs over theta
    and over the law of v_h given z_t, on nodes in the square root of its
    CDF (``horizontal_speed_nodes``). A serving distance whose region is
    empty at every v_h <= V is 0 without a grid: either the target radius
    stays 0 or the post-move disk stays inside the pre-move one. A
    same-type target takes the closed-form lens angles,
    its (theta, v_h) factors built once for every altitude. Only the lens
    grid runs per altitude, a slice that stays in cache.
    """
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    rows = np.atleast_2d(r0)
    out = np.zeros((len(targets), *rows.shape))
    ctx = height_context(params, np.atleast_1d(z_t))    # h_bar, r_m: a row per z_t
    ch = params.channel

    # uniform direction on [0, pi]; the speed nodes and the same-type lens
    # factors of every altitude at once, sliced per altitude below
    theta, w_th = gauss_nodes(0.0, np.pi, n_theta)
    theta = theta[:, None]
    v_h, w_v = horizontal_speed_nodes(np.ravel(z_t), params, n_v)
    w = ((w_th * (1.0 / np.pi))[:, None] * w_v).ravel()
    lens = same_type_lens(v_h[:, None, :], theta)
    for i, target in enumerate(targets):
        x_a = equal_power_radius(serving, target, rows, ctx.h_bar, ch)
        # v_h <= V and r_after <= r0 + V bound the post-move disk; the
        # general lens formula gives exactly 0 on the rows this rules out
        y_hi = np.minimum(equal_power_radius(serving, target, rows + params.v,
                                             ctx.h_bar, ch), ctx.r_m)
        live = (y_hi > 0.0) & (params.v + y_hi > x_a)
        for j in np.flatnonzero(np.any(live, axis=1)):
            r = rows[j, live[j]]
            if target is serving:
                area = same_type_lens_complement_area(
                    r, tuple(f[j] for f in lens), ctx.r_m[j, 0])
            else:
                r_after = displaced_distance(r[:, None, None], v_h[j], theta)
                y_b = equal_power_radius(serving, target, r_after, ctx.h_bar[j, 0], ch)
                area = lens_complement_area(x=x_a[j, live[j], None, None],
                                            y=np.minimum(y_b, ctx.r_m[j, 0]), v=v_h[j])
            area *= -params.lambda_b        # in place: the same sum, faster
            np.exp(area, out=area)
            out[i, j, live[j]] = 1.0 - area.reshape(len(area), -1) @ w
    return np.clip(out, 0.0, 1.0).reshape(len(targets), *r0.shape)


def _handover_targets(serving: LinkType, params: SystemParams):
    """The (serving, targets) pair of the handover kernel. Under
    strongest-average-RSS the two target types compose as independent
    thinnings; the nearest policy ignores type, so one same-type target (the
    identity radius map) covers every station."""
    if params.policy is AssociationPolicy.NEAREST:
        return LinkType.LOS, (LinkType.LOS,)
    return serving, tuple(LinkType)


def _stay_grid(serving: LinkType, r0, z_t, params: SystemParams) -> np.ndarray:
    """P(no handover | serving type, r0, z_t), shaped as the kernel's rows."""
    return np.prod(1.0 - _cond_handover_grid(*_handover_targets(serving, params),
                                             r0, z_t, params), axis=0)


# ---------------------------------------------------------------------------
# interference Laplace transform and conditional coverage
# ---------------------------------------------------------------------------

def _radial_panel(lo, hi, z, params: SystemParams, n_x=N_X):
    """(x nodes, dx weights) of shape (rows, n_x) on [lo, hi] per row, z
    being the row's altitude (or every row's): Gauss nodes in y = asinh(x /
    h_bar), h_bar = z - h_b, on panels split where P_LoS crosses _X_LEVELS
    (``quadrature.panel_nodes``); a row with lo >= hi gets weights 0.

    In y the area element x dx = h_bar^2 sinh(y) cosh(y) dy and the path
    loss (x^2 + h_bar^2)^(-alpha/2) = (h_bar cosh y)^-alpha are smooth and
    the far tail decays exponentially. The elevation angle is a function
    of y alone, falling at the rate sech(y), so the LoS sigmoid and the
    levels that split it sit at the same y at every altitude."""
    h_bar = np.broadcast_to(np.asarray(z, dtype=float) - params.h_b, np.shape(lo))
    y_lo = np.arcsinh(lo / h_bar)[:, None]
    span = np.maximum(np.arcsinh(hi / h_bar)[:, None] - y_lo, 0.0)
    levels = np.arcsinh(los_radius(_X_LEVELS, params.h_b + 1.0, params.env, params.h_b))
    t, w = panel_nodes(np.hstack([np.zeros_like(span), span,
                                  np.clip(levels - y_lo, 0.0, span)]), n_x)
    t += y_lo
    h_bar = h_bar[:, None]
    return h_bar * np.sinh(t), h_bar * np.cosh(t) * w


def _interference_nodes(starts: dict, z, params: SystemParams, n_x=N_X):
    """Quadrature nodes for the Laplace exponent integrals.

    Returns, per interferer type xi, the (x nodes, dx weights) of
    ``_radial_panel`` from starts[xi], the type's own distance at a
    serving-process node, beyond which its interferers lie whichever type
    serves, to the receiving radius at each row's altitude z. Types at one
    distance share one panel, and ``_panel_terms`` one LoS evaluation.
    """
    hi = receiving_radius(z, params.h_b, params.antenna)
    x_l, x_n = (starts[xi] for xi in LinkType)
    los = _radial_panel(x_l, hi, z, params, n_x)
    nlos = los if np.array_equal(x_l, x_n) else _radial_panel(x_n, hi, z, params, n_x)
    return {LinkType.LOS: los, LinkType.NLOS: nlos}


def _panel_terms(panels: dict, z, params: SystemParams) -> dict:
    """Per interferer type xi, over its panel (x, dx) of a row per altitude
    z (or one z for all): (P_xi x dx, l_xi(x)), the type's share of the
    area element and its path-loss gain; one LoS evaluation per distinct
    node array."""
    z = np.expand_dims(z, -1)                       # one altitude per node row
    los_of, out = {}, {}
    for xi, (xs, ws) in panels.items():
        if id(xs) not in los_of:
            los_of[id(xs)] = los_probability(xs, z, params.env, params.h_b)
        p_los = los_of[id(xs)]
        base = ws * xs
        base *= p_los if xi is LinkType.LOS else 1.0 - p_los
        out[xi] = base, path_loss(xi, xs, z, params.channel, params.h_b)
    return out


def _exponent_terms(s: np.ndarray, terms: dict, params: SystemParams,
                    order: int, rows=slice(None)):
    """The Laplace exponent g0 = log L and the coefficients t_1..t_order of
    g(tau - tau y) = g0 + sum_k t_k y^k, one value per row.

    s scales each interferer's path-loss gain l(x) to u = s l(x) / m_xi, so
    s = m T / S for a serving path-loss gain S (tau = s / (P_t G_tot)), one
    per row that the index rows takes from the panel terms {interferer type:
    (P_xi x dx, l)} of ``_panel_terms``. Over them,

        g0  = -2 pi lam sum_xi int P_xi (1 - (1 + u)^-m_xi) x dx,
        t_k =  2 pi lam sum_xi int P_xi NB_k(u) x dx,

    NB_k(u) = C(m+k-1, k) (u/(1+u))^k (1+u)^-m the negative-binomial pmf:
    NB_0 from log1p(u), then NB_k = NB_(k-1) (m+k-1)/k u/(1+u). Every NB_k
    is a probability, so none overflows.
    """
    s = s[:, None]
    g0 = np.zeros(s.shape[0])
    t = [np.zeros(s.shape[0]) for _ in range(order)]
    for xi, (base, gain) in terms.items():
        m = params.channel.m(xi)
        # the products and sums of the formulas above in their operation
        # order, in place: term holds each summand in turn
        base = base[rows]
        u = gain[rows] * s
        u /= m
        nb = np.log1p(u)
        nb *= -m
        term = np.expm1(nb)
        term *= base
        g0 += np.sum(term, axis=1)
        if order:
            np.exp(nb, out=nb)
            np.add(u, 1.0, out=term)
            u /= term
            for k in range(1, order + 1):
                nb *= u
                nb *= (m + k - 1) / k
                np.multiply(base, nb, out=term)
                t[k - 1] += np.sum(term, axis=1)
    scale = 2.0 * np.pi * params.lambda_b
    return scale * g0, [scale * tk for tk in t]


def _coverage_series(g0: np.ndarray, t: list) -> list:
    """exp(g0) b_l for l = 0..len(t), with b_0 = 1 and
    b_l = (1/l) sum_{k=1}^{l} k t_k b_{l-k}: the terms (-tau)^l L^(l)(tau)
    / l! of the Nakagami coverage sum, which for serving shape m is the sum
    of the first m (the lower-triangular Toeplitz form of Yu, Zhang, Haenggi
    and Letaief, IEEE JSAC 2017). Every term is >= 0; exp(g0) rides in b_0,
    so each term is a probability and no product overflows."""
    b = [np.exp(g0)]
    for l in range(1, len(t) + 1):
        b_l = t[0] * b[l - 1]
        for k in range(2, l + 1):
            b_l += k * t[k - 1] * b[l - k]
        if l > 1:
            b_l /= l
        b.append(b_l)
    return b


def _coverage_grid(nodes: dict, z, params: SystemParams) -> dict:
    """{link: conditional coverage} at the serving-process nodes {link: (r0,
    weight)}, z being the altitude of each row (broadcast to r0) or of all.
    The panels and their ``_panel_terms`` serve both types; a type's
    Nakagami terms run only on its rows of weight > 0, the others read 0."""
    global _drift_events
    z = np.broadcast_to(z, np.shape(nodes[LinkType.LOS][0])).ravel()
    starts = {link: r0.ravel() for link, (r0, _) in nodes.items()}
    terms = _panel_terms(_interference_nodes(starts, z, params), z, params)
    out = {}
    for link, (r0, weight) in nodes.items():
        live = weight.ravel() > 0.0
        m = params.channel.m(link)
        s = m * params.t_thresh / path_loss(link, starts[link][live], z[live],
                                            params.channel, params.h_b)
        total = sum(_coverage_series(*_exponent_terms(
            s, terms, params, m - 1, slice(None) if live.all() else live)))
        drift = np.maximum(total - 1.0, -total)
        _drift_events += int(np.count_nonzero(~(drift <= 1e-6)))
        out[link] = np.zeros(r0.shape)
        out[link][live.reshape(r0.shape)] = np.clip(total, 0.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# marginal metrics: serving-distance and altitude averaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PolicyMetrics:
    """kappa-independent pieces of the coverage/handover integrals."""

    cov_nohandover: dict        # link -> integral of weight * P_cov
    cov_stay: dict              # link -> integral of weight * P_cov * P(no handover)
    handover: float
    assoc: dict                 # link -> A averaged over altitude
    void: float


def _ranking_laws(params: SystemParams):
    """(eta, alpha) of the loss by which each serving type is ranked, LoS
    first: the channel's own law under strongest-average-RSS; under the
    nearest policy one common law, (1, 2), whose loss d^2 ranks by distance
    alone."""
    if params.policy is AssociationPolicy.NEAREST:
        return ((1.0, 2.0),) * 2
    return tuple((params.channel.eta(link), params.channel.alpha(link))
                 for link in LinkType)


@lru_cache(maxsize=64)
def _policy_metrics(params: SystemParams, n_z: int, n_r0: int) -> _PolicyMetrics:
    # uniform altitude on [h_lb, h_ub]
    z_nodes, w_z = gauss_nodes(params.h_lb, params.h_ub, n_z)
    w_z = w_z * (1.0 / (params.h_ub - params.h_lb))
    ctx = height_context(params, z_nodes)
    nodes, void = serving_nodes(ctx, _ranking_laws(params), params.lambda_b, n_r0)

    # per serving type, nodes, weights and stay with one row per altitude
    cov1, cov2, assoc, stays = {}, {}, {}, {}
    handover = 0.0
    p_cov = _coverage_grid(nodes, ctx.z, params)
    for link, (r0, weight) in nodes.items():
        # rows of weight 0 take no handover grid: at an infinite serving
        # distance the kernel finds the region empty. The nearest policy's
        # type-blind stay is one kernel call for both types
        rows = np.where(weight > 0.0, r0, np.inf)
        key = (*_handover_targets(link, params), rows.tobytes())
        if key not in stays:
            stays[key] = _stay_grid(link, rows, ctx.z, params)
        stay = stays[key]
        assoc[link] = w_z @ np.sum(weight, axis=1)
        cov1[link] = w_z @ np.sum(weight * p_cov[link], axis=1)
        cov2[link] = w_z @ np.sum(weight * p_cov[link] * stay, axis=1)
        handover += w_z @ np.sum(weight * (1.0 - stay), axis=1)
    # void: the altitude average of exp(-2 pi lam Lam) at the last received
    # station, so it and the association add to 1 up to roundoff
    return _PolicyMetrics(cov1, cov2, handover, assoc, w_z @ void)


def _breakdown(params: SystemParams, metrics: _PolicyMetrics) -> CoverageBreakdown:
    k = params.kappa
    per_link = tuple(
        float((1.0 - k) * metrics.cov_nohandover[link] + k * metrics.cov_stay[link])
        for link in LinkType)
    total = float(sum(per_link))
    return CoverageBreakdown(
        total=min(max(total, 0.0), 1.0),
        per_link=per_link,
        handover_prob=float(metrics.handover),
        void_prob=min(max(float(metrics.void), 0.0), 1.0),
        association=tuple(float(metrics.assoc[link]) for link in LinkType),
    )


def coverage_probability(params: SystemParams) -> CoverageBreakdown:
    """Coverage of the mobile user under the association policy of params,
    combining handover-free coverage with the handover-survival term, with
    the marginal handover, association and void probabilities."""
    # the heavy integrals do not depend on kappa; key the cache without it
    metrics = _policy_metrics(replace(params, kappa=0.0), N_Z, N_R0)
    marginals = [*metrics.cov_nohandover.values(), *metrics.cov_stay.values(),
                 *metrics.assoc.values(), metrics.handover, metrics.void]
    if not all(map(math.isfinite, marginals)):
        raise ParameterError(
            "the marginal integrals are not finite at these parameters (a "
            f"Nakagami sum of up to m_l = {params.channel.m_l} terms at SIR "
            f"threshold {params.t_thresh:.4g} can overflow)")
    return _breakdown(params, metrics)
