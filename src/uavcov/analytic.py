"""Numerical evaluation of the closed-form handover and coverage expressions.

``coverage_probability(params)`` is the one entry point for the marginal
quantities: coverage, handover, association and void. The association rule
is ``params.policy``: strongest-average-RSS, or nearest GBS (type-blind
handover, interference from beyond the serving distance). The conditional
coverage, the Laplace transform and the handover to any type read it too;
the handover to one target type is the strongest-average-RSS expression and
refuses the nearest rule.

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
  cross-type rows take the general lens formula;
* conditional coverage: finite Nakagami sum over derivatives of the
  interference Laplace transform, with the exponent integrals evaluated on
  two-panel (linear + geometric) Gauss grids so both the near-serving peak
  and the slowly decaying far tail are resolved;
* totals: serving-type sum of double integrals over serving distance and
  altitude; the serving-distance integral is transformed through the
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

from .association import cross_exclusion_limit, exclusion_factor, height_context
from .errors import GeometryError, ParameterError
from .geometry import (
    displaced_distance,
    equal_power_radius,
    lens_complement_area,
    same_type_lens_complement_area,
)
from .model import (
    AssociationPolicy,
    LinkType,
    SystemParams,
    horizontal_speed_nodes,
    mobility_pdfs,
    path_loss,
)
from .quadrature import gauss_nodes

__all__ = [
    "HandoverContext",
    "CoverageBreakdown",
    "conditional_handover",
    "conditional_handover_any",
    "laplace_interference",
    "laplace_derivatives",
    "conditional_coverage",
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
class HandoverContext:
    """Conditioning of the handover event: serving type, pre-move serving
    distance and post-move altitude."""

    serving: LinkType
    r0: float
    z_t: float


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
    _, _, f_theta = mobility_pdfs(params)

    theta, w_th = gauss_nodes(0.0, np.pi, n_theta)
    v_h, w_v = horizontal_speed_nodes(z_t, params, n_v)
    w = (w_th * f_theta(theta))[:, None] * w_v
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
        out[i, live] = 1.0 - np.sum(np.exp(-params.lambda_b * area) * w,
                                    axis=(1, 2))
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


def _check_ctx(ctx: HandoverContext, params: SystemParams) -> None:
    r_m = height_context(params, ctx.z_t).r_m
    if not 0.0 <= ctx.r0 <= r_m:
        raise GeometryError(
            f"serving distance {ctx.r0} outside [0, {r_m:.3f}] at z={ctx.z_t}")


def conditional_handover(ctx: HandoverContext, target: LinkType,
                         params: SystemParams) -> float:
    """Handover probability to a given target type, conditioned on the
    serving type, the pre-move serving distance and the post-move altitude,
    under strongest-average-RSS. The nearest rule picks the new station
    regardless of type, so it has no such split and raises ParameterError;
    conditional_handover_any serves both rules."""
    if params.policy is AssociationPolicy.NEAREST:
        raise ParameterError(
            "handover to one target type is defined under strongest_rss; "
            "use conditional_handover_any for the nearest policy")
    _check_ctx(ctx, params)
    return float(_cond_handover_grid(ctx.serving, (target,), ctx.r0, ctx.z_t,
                                     params)[0, 0])


def conditional_handover_any(ctx: HandoverContext, params: SystemParams) -> float:
    """Handover probability to any target type; under strongest-average-RSS
    composed across target types as independent thinnings."""
    _check_ctx(ctx, params)
    r0 = np.asarray([ctx.r0], dtype=float)
    return 1.0 - float(_stay_grid(ctx.serving, r0, ctx.z_t, params)[0])


# ---------------------------------------------------------------------------
# interference Laplace transform and conditional coverage
# ---------------------------------------------------------------------------

def _interference_nodes(serving: LinkType, r0: np.ndarray, z: float,
                        params: SystemParams, n_x=N_X):
    """Quadrature nodes for the Laplace exponent integrals.

    Returns, per interferer type, (x nodes, dx weights) of shape
    (len(r0), 2*n_x): a linear panel from the exclusion radius to a
    mid-point around twice the effective height, then a geometric panel to
    the receiving radius. Under the nearest policy every interferer lies
    beyond the serving distance, whatever its type.
    """
    nearest = params.policy is AssociationPolicy.NEAREST
    ctx = height_context(params, z)
    hi = ctx.r_m
    t01, w01 = gauss_nodes(0.0, 1.0, n_x)
    panels = {}
    for xi in LinkType:
        if nearest or xi is serving:
            lo = r0.astype(float)
        else:
            lo = np.asarray(cross_exclusion_limit(serving, r0, ctx, params),
                            dtype=float)
        lo = np.minimum(lo, hi)
        mid = np.clip(np.maximum(2.0 * ctx.h_bar, 2.0 * lo), lo, hi)
        # linear panel [lo, mid]
        span = mid - lo
        x_lin = lo[:, None] + span[:, None] * t01[None, :]
        w_lin = span[:, None] * w01[None, :]
        # geometric panel (mid, hi]
        ratio = np.log(np.maximum(hi / np.maximum(mid, 1e-300), 1.0))
        x_geo = np.maximum(mid, 1e-300)[:, None] * np.exp(ratio[:, None] * t01[None, :])
        w_geo = x_geo * ratio[:, None] * w01[None, :]
        panels[xi] = (np.concatenate([x_lin, x_geo], axis=1),
                      np.concatenate([w_lin, w_geo], axis=1))
    return panels


def _exponent_derivatives(tau: np.ndarray, serving: LinkType, r0: np.ndarray,
                          z: float, params: SystemParams, max_order: int,
                          n_x=N_X) -> list[np.ndarray]:
    """g(tau) and its tau-derivatives, g being the Laplace exponent
    -2 pi lam sum_xi int P_xi gamma_xi x dx. Vectorized over (tau, r0) pairs."""
    ch = params.channel
    pg = params.p_t * params.g_tot
    panels = _interference_nodes(serving, r0, z, params, n_x)
    ctx = height_context(params, z)
    ders = [np.zeros_like(tau) for _ in range(max_order + 1)]
    for xi, (xs, ws) in panels.items():
        m = ch.m(xi)
        base = ws * xs * ctx.p_type(xi, xs)          # dx weight * x * P_xi
        c = pg * path_loss(xi, xs, z, ch, params.h_b)
        # powers of (m + tau c) in log space: c spans many orders of magnitude
        log1p_tc = np.log1p(tau[:, None] * c / m)
        gamma = -np.expm1(-m * log1p_tc)
        ders[0] += np.sum(base * gamma, axis=1)
        log_c_over_m = np.log(c) - math.log(m)
        rising = 1.0
        for k in range(1, max_order + 1):
            rising *= m + k - 1
            d_gamma = ((-1.0) ** (k + 1) * rising
                       * np.exp(k * log_c_over_m - (m + k) * log1p_tc))
            ders[k] += np.sum(base * d_gamma, axis=1)
    scale = -2.0 * np.pi * params.lambda_b
    return [scale * d for d in ders]


def _laplace_derivative_grid(tau: np.ndarray, serving: LinkType, r0: np.ndarray,
                             z: float, params: SystemParams,
                             max_order: int) -> list[np.ndarray]:
    """L and its derivatives through the exponential-composition recursion
    L^(l) = sum_j C(l-1, j) L^(j) g^(l-j)."""
    g = _exponent_derivatives(tau, serving, r0, z, params, max_order)
    ders = [np.exp(g[0])]
    for order in range(1, max_order + 1):
        total = np.zeros_like(tau)
        for j in range(order):
            total += math.comb(order - 1, j) * ders[j] * g[order - j]
        ders.append(total)
    return ders


def laplace_interference(tau: float, serving: LinkType, r0: float, z: float,
                         params: SystemParams) -> float:
    """Laplace transform of the aggregate interference at the given point,
    conditioned on the serving type and distance."""
    ders = _laplace_derivative_grid(np.asarray([tau], dtype=float), serving,
                                    np.asarray([r0], dtype=float), z, params, 0)
    return float(ders[0][0])


def laplace_derivatives(tau: float, serving: LinkType, r0: float, z: float,
                        params: SystemParams, max_order: int) -> list[float]:
    """L^(0..max_order)(tau); the coverage sum uses orders up to m-1."""
    ders = _laplace_derivative_grid(np.asarray([tau], dtype=float), serving,
                                    np.asarray([r0], dtype=float), z, params,
                                    max_order)
    return [float(d[0]) for d in ders]


def _tau_threshold(serving: LinkType, r0, z: float, params: SystemParams):
    zeta = path_loss(serving, r0, z, params.channel, params.h_b)
    return (params.channel.m(serving) * params.t_thresh
            / (params.p_t * params.g_tot * zeta))


def _coverage_grid(serving: LinkType, r0: np.ndarray, z: float,
                   params: SystemParams) -> np.ndarray:
    """Conditional coverage on an array of serving distances."""
    global _drift_events
    m = params.channel.m(serving)
    tau = np.asarray(_tau_threshold(serving, r0, z, params), dtype=float)
    ders = _laplace_derivative_grid(tau, serving, r0, z, params, m - 1)
    total = np.zeros_like(tau)
    for l in range(m):
        total += (-tau) ** l / math.factorial(l) * ders[l]
    drift = np.maximum(total - 1.0, -total)
    _drift_events += int(np.count_nonzero(drift > 1e-6))
    return np.clip(total, 0.0, 1.0)


def conditional_coverage(serving: LinkType, r0: float, z: float,
                         params: SystemParams) -> float:
    """P(SIR > threshold | serving type, serving distance, altitude)."""
    r_m = height_context(params, z).r_m
    if not 0.0 <= r0 <= r_m:
        raise GeometryError(f"serving distance {r0} outside [0, {r_m:.3f}]")
    return float(_coverage_grid(serving, np.asarray([r0], dtype=float), z, params)[0])


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
    _, f_z, _ = mobility_pdfs(params)
    z_nodes, w_z = gauss_nodes(params.h_lb, params.h_ub, n_z)
    w_z = w_z * f_z(z_nodes)
    nodes = (_nearest_nodes if params.policy is AssociationPolicy.NEAREST
             else _strongest_nodes)

    cov1 = {link: 0.0 for link in LinkType}
    cov2 = {link: 0.0 for link in LinkType}
    assoc = {link: 0.0 for link in LinkType}
    handover = 0.0
    for z, wz in zip(z_nodes, w_z):
        for link, r0, weight, stay in nodes(height_context(params, z), params, n_r0):
            p_cov = _coverage_grid(link, r0, z, params)
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
    return _breakdown(params, metrics)
