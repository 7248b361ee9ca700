"""Numerical evaluation of the closed-form handover and coverage expressions.

``coverage_probability(params)`` is the one entry point for the marginal
quantities: coverage, handover, association and void. The association rule
is ``params.policy``: strongest-average-RSS, or nearest GBS (type-blind
handover, interference from beyond the serving distance). The conditional
quantities are private kernels on arrays of serving distances, which read
the rule too: ``_stay_grid`` (no handover, composed from the per-target
``_cond_handover_grid``) and ``_coverage_grid`` (coverage, from
``_exponent_terms`` and ``_coverage_series``).

Layout of the computation:

* conditional handover: PPP null probability of the equal-power
  lens-complement region, averaged over movement direction x horizontal-speed
  law. Transition length and pre-move altitude enter the region only through
  the horizontal speed, so their double integral is one integral over the
  law of that speed given the post-move altitude, on Gauss nodes placed
  through its closed-form CDF (``model.horizontal_speed_nodes``). A serving
  distance whose region is empty at every speed up to V (target radius 0,
  or post-move disk inside the pre-move one; most cross-type rows) is 0
  without a grid; a same-type target, every target of the nearest rule,
  takes the closed-form lens angles of two circles through the serving
  GBS (``geometry.same_type_lens_complement_area``); the remaining
  cross-type rows take the general lens formula. The average over
  (theta, v_h) is one matrix-vector product with the flattened weights;
* conditional coverage: the finite Nakagami sum over derivatives of the
  interference Laplace transform, taken as exp(g0) sum_{l<m} b_l from the
  exponent g0 and the nonnegative coefficients t_k (negative-binomial
  integrals), every term a probability (``_coverage_series``; the Monte
  Carlo near field sums the same terms). The integrals run on two-panel
  (linear + geometric) Gauss grids so both the near-serving peak and the
  slowly decaying far tail are resolved; one call per serving type covers
  the whole altitude x serving-distance grid, each row carrying its own
  altitude;
* totals: serving-type sum of double integrals over serving distance and
  altitude, the nodes, weights and handover built one altitude at a time;
  the serving-distance integral is transformed through the
  type-nearest CDF so nodes concentrate where the serving-distance density
  actually lives (this matters for the omni antenna, whose receiving radius
  is orders of magnitude larger than the typical serving distance).

Every probability leaving this module is clamped to [0, 1]; drift beyond
1e-6 outside the interval increments a counter that the acceptance suite
asserts to be zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .association import exclusion_factor, height_context
from .errors import ParameterError
from .geometry import (
    displaced_distance,
    equal_power_radius,
    exclusion_radius,
    lens_complement_area,
    receiving_radius,
    same_type_lens_complement_area,
)
from .model import (
    AssociationPolicy,
    LinkType,
    SystemParams,
    horizontal_speed_nodes,
    los_probability,
    path_loss,
)
from .quadrature import gauss_nodes

__all__ = [
    "CoverageBreakdown",
    "coverage_probability",
    "coverage_drift_events",
    "reset_coverage_drift_counter",
]

# default node counts; doubled values change probabilities < 1e-4 at the
# baseline scenario (see tests/test_analytic.py::test_grid_convergence)
N_Z = 12        # post-move altitude
N_R0 = 32       # serving distance (transformed variable)
N_THETA = 24    # movement direction
N_V = 32        # horizontal speed (CDF-transformed variable)
N_X = 40        # interference distance, per panel

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

def _cond_handover_grid(serving: LinkType, targets: tuple, r0, z_t: float,
                        params: SystemParams, n_theta=N_THETA,
                        n_v=N_V) -> np.ndarray:
    """P(handover to each target type | serving type, r0, z_t), one row per
    target type, vectorized in r0.

    The movement reaches the handover region only through its direction
    theta and its horizontal speed v_h, so the expectation runs over theta
    and over the law of v_h given z_t (``horizontal_speed_nodes``). A serving
    distance whose region is empty at every v_h <= V is 0 without a grid:
    either the target radius stays 0 or the post-move disk stays inside the
    pre-move one. A same-type target takes the closed-form lens angles.
    """
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    out = np.zeros((len(targets), r0.size))
    if params.v == 0.0:
        # zero displacement: the post-move disk is contained in the pre-move one
        return out
    ctx = height_context(params, z_t)
    ch = params.channel

    # uniform direction on [0, pi]
    theta, w_th = gauss_nodes(0.0, np.pi, n_theta)
    v_h, w_v = horizontal_speed_nodes(z_t, params, n_v)
    w = (w_th * (1.0 / np.pi))[:, None] * w_v
    theta = theta[:, None]
    for i, target in enumerate(targets):
        x_a = equal_power_radius(serving, target, r0, ctx.h_bar, ch)
        # v_h <= V and r_after <= r0 + V bound the post-move disk; the
        # general lens formula gives exactly 0 on the rows this rules out
        y_hi = np.minimum(equal_power_radius(serving, target, r0 + params.v,
                                             ctx.h_bar, ch), ctx.r_m)
        live = (y_hi > 0.0) & (params.v + y_hi > x_a)
        if not np.any(live):
            continue
        r = r0[live, None, None]
        if target is serving:
            area = same_type_lens_complement_area(r, v_h, theta, ctx.r_m)
        else:
            r_after = displaced_distance(r, v_h, theta)
            y_b = np.minimum(equal_power_radius(serving, target, r_after,
                                                ctx.h_bar, ch), ctx.r_m)
            area = lens_complement_area(x=x_a[live, None, None], y=y_b, v=v_h)
        area *= -params.lambda_b        # in place: the same sum, faster
        np.exp(area, out=area)
        out[i, live] = 1.0 - area.reshape(len(area), -1) @ w.ravel()
    return np.clip(out, 0.0, 1.0)


def _stay_grid(serving: LinkType, r0, z_t: float, params: SystemParams) -> np.ndarray:
    """P(no handover | serving type, r0, z_t), vectorized in r0.

    Under strongest-average-RSS the two target types compose as independent
    thinnings; the nearest policy ignores type, so one same-type target (the
    identity radius map) covers every station.
    """
    if params.policy is AssociationPolicy.NEAREST:
        serving, targets = LinkType.LOS, (LinkType.LOS,)
    else:
        targets = tuple(LinkType)
    return np.prod(1.0 - _cond_handover_grid(serving, targets, r0, z_t, params),
                   axis=0)


# ---------------------------------------------------------------------------
# interference Laplace transform and conditional coverage
# ---------------------------------------------------------------------------

def _radial_panel(lo, hi, h_bar, n_x=N_X):
    """(x nodes, dx weights) of shape (rows, 2*n_x) on [lo, hi] per row: a
    linear panel from lo to a mid-point around twice the effective height
    h_bar, then a geometric panel to hi."""
    t01, w01 = gauss_nodes(0.0, 1.0, n_x)
    lo = np.minimum(lo, hi)
    mid = np.clip(np.maximum(2.0 * h_bar, 2.0 * lo), lo, hi)
    # linear panel [lo, mid]
    span = mid - lo
    x_lin = lo[:, None] + span[:, None] * t01[None, :]
    w_lin = span[:, None] * w01[None, :]
    # geometric panel (mid, hi]
    ratio = np.log(np.maximum(hi / np.maximum(mid, 1e-300), 1.0))
    x_geo = np.maximum(mid, 1e-300)[:, None] * np.exp(ratio[:, None] * t01[None, :])
    w_geo = x_geo * ratio[:, None] * w01[None, :]
    return (np.concatenate([x_lin, x_geo], axis=1),
            np.concatenate([w_lin, w_geo], axis=1))


def _interference_nodes(serving: LinkType, r0: np.ndarray, z,
                        params: SystemParams, n_x=N_X):
    """Quadrature nodes for the Laplace exponent integrals.

    Returns, per interferer type, the (x nodes, dx weights) of
    ``_radial_panel`` from the exclusion radius to the receiving radius, at
    each r0's altitude z (or one z for all). Under the nearest policy every
    interferer lies beyond the serving distance, whatever its type.
    """
    nearest = params.policy is AssociationPolicy.NEAREST
    h_bar = np.asarray(z, dtype=float) - params.h_b
    hi = receiving_radius(z, params.h_b, params.antenna)
    panels = {}
    for xi in LinkType:
        if nearest or xi is serving:
            lo = r0.astype(float)
        else:
            lo = exclusion_radius(serving, r0, h_bar, params.channel)
        panels[xi] = _radial_panel(lo, hi, h_bar, n_x)
    return panels


def _exponent_terms(s: np.ndarray, panels: dict, z, params: SystemParams,
                    order: int):
    """The Laplace exponent g0 = log L and the coefficients t_1..t_order of
    g(tau - tau y) = g0 + sum_k t_k y^k, one value per row.

    s scales each interferer's path-loss gain l(x) to u = s l(x) / m_xi, so
    s = m T / S for a serving path-loss gain S (tau = s / (P_t G_tot)). Over
    the panels {interferer type: (x, dx)}, with P_xi the type probability,

        g0  = -2 pi lam sum_xi int P_xi (1 - (1 + u)^-m_xi) x dx,
        t_k =  2 pi lam sum_xi int P_xi NB_k(u) x dx,

    NB_k(u) = C(m+k-1, k) (u/(1+u))^k (1+u)^-m the negative-binomial pmf:
    NB_0 from log1p(u), then NB_k = NB_(k-1) (m+k-1)/k u/(1+u). Every NB_k
    is a probability, so none overflows. z is each row's altitude (or one
    for all).
    """
    ch = params.channel
    z = np.expand_dims(z, -1)                       # one altitude per node row
    s = s[:, None]
    g0 = np.zeros(s.shape[0])
    t = [np.zeros(s.shape[0]) for _ in range(order)]
    los_of = {}                 # one evaluation per distinct node array
    for xi, (xs, ws) in panels.items():
        m = ch.m(xi)
        if id(xs) not in los_of:
            los_of[id(xs)] = los_probability(xs, z, params.env, params.h_b)
        p_los = los_of[id(xs)]
        base = ws * xs * (p_los if xi is LinkType.LOS else 1.0 - p_los)
        u = s * path_loss(xi, xs, z, ch, params.h_b) / m
        log1p_u = np.log1p(u)
        nb = -m * log1p_u
        g0 += np.sum(base * np.expm1(nb), axis=1)
        if order:
            np.exp(nb, out=nb)
            u /= 1.0 + u
            for k in range(1, order + 1):
                nb *= u
                nb *= (m + k - 1) / k
                t[k - 1] += np.sum(base * nb, axis=1)
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


def _coverage_grid(serving: LinkType, r0: np.ndarray, z,
                   params: SystemParams) -> np.ndarray:
    """Conditional coverage on an array of serving distances, z being the
    altitude of each (an array aligned with r0) or of all (a scalar)."""
    global _drift_events
    s = (params.channel.m(serving) * params.t_thresh
         / path_loss(serving, r0, z, params.channel, params.h_b))
    total = sum(_coverage_series(*_exponent_terms(
        s, _interference_nodes(serving, r0, z, params), z, params,
        params.channel.m(serving) - 1)))
    drift = np.maximum(total - 1.0, -total)
    _drift_events += int(np.count_nonzero(~(drift <= 1e-6)))
    return np.clip(total, 0.0, 1.0)


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


def _r0_nodes_type(ctx, link: LinkType, params: SystemParams, n_r0: int):
    """Serving-distance nodes via the type-nearest CDF transform.

    Substituting u = 1 - exp(-2 pi lam G_link(r0)) makes the type-nearest
    density the integration measure, so du-weights need only the remaining
    (bounded, smooth) cross-type exclusion factor.
    """
    lam = params.lambda_b
    g_span = ctx.cum_intensity(link, ctx.r_m)
    u_top = -math.expm1(-2.0 * np.pi * lam * g_span)
    u, w_u = gauss_nodes(0.0, u_top, n_r0)
    g_vals = -np.log1p(-u) / (2.0 * np.pi * lam)
    r0 = ctx.inverse_cum(link, g_vals)
    return r0, w_u


def _strongest_nodes(ctx, params: SystemParams, n_r0: int):
    """(link, r0, weight, stay) per serving type under strongest-average-RSS.

    The weight integrates A * f_tilde dr0 (type-nearest density times the
    opposite-type exclusion); stay composes both handover target types.
    """
    for link in LinkType:
        r0, w_u = _r0_nodes_type(ctx, link, params, n_r0)
        yield (link, r0, w_u * exclusion_factor(link, r0, ctx, params),
               _stay_grid(link, r0, ctx.z, params))


def _nearest_nodes(ctx, params: SystemParams, n_r0: int):
    """(link, r0, weight, stay) per serving type under the nearest policy.

    Both types share the contact-distance nodes (du is exactly f^n(r0) dr0)
    and the type-blind handover; the weight thins by the type probability.
    """
    lam = params.lambda_b
    u_top = -math.expm1(-np.pi * lam * ctx.r_m ** 2)
    u, w_u = gauss_nodes(0.0, u_top, n_r0)
    r0 = np.sqrt(-np.log1p(-u) / (np.pi * lam))
    stay = _stay_grid(LinkType.LOS, r0, ctx.z, params)
    for link in LinkType:
        yield link, r0, w_u * ctx.p_type(link, r0), stay


@lru_cache(maxsize=64)
def _policy_metrics(params: SystemParams, n_z: int, n_r0: int) -> _PolicyMetrics:
    # uniform altitude on [h_lb, h_ub]
    z_nodes, w_z = gauss_nodes(params.h_lb, params.h_ub, n_z)
    w_z = w_z * (1.0 / (params.h_ub - params.h_lb))
    nodes = (_nearest_nodes if params.policy is AssociationPolicy.NEAREST
             else _strongest_nodes)

    # nodes and handover per altitude; coverage in one call per serving type
    # on the stacked (altitude, serving distance) rows
    per_z = [{link: rest for link, *rest in
              nodes(height_context(params, z), params, n_r0)} for z in z_nodes]
    p_covs = {link: _coverage_grid(link, np.concatenate([nz[link][0] for nz in per_z]),
                                   np.repeat(z_nodes, n_r0), params).reshape(n_z, -1)
              for link in LinkType}
    cov1 = {link: 0.0 for link in LinkType}
    cov2 = {link: 0.0 for link in LinkType}
    assoc = {link: 0.0 for link in LinkType}
    handover = 0.0
    for i, wz in enumerate(w_z):
        for link, (_, weight, stay) in per_z[i].items():
            p_cov = p_covs[link][i]
            assoc[link] += wz * float(np.sum(weight))
            cov1[link] += wz * float(np.sum(weight * p_cov))
            cov2[link] += wz * float(np.sum(weight * p_cov * stay))
            handover += wz * float(np.sum(weight * (1.0 - stay)))
    void = 1.0 - sum(assoc.values())
    return _PolicyMetrics(cov1, cov2, handover, assoc, void)


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
