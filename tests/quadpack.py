"""Adaptive QUADPACK reference for the tests: integration behind an explicit
tolerance contract, and the association quantities it integrates.

The package evaluates every integral on fixed Gauss grids and interpolants;
the tests hold those to these adaptive integrals (scipy, a test
dependency): the type-thinned nearest-GBS densities, the association
probabilities and the conditional serving-distance densities, with the
cumulative type intensities carried beyond the receiving radius, and the
cumulative intensity of the serving process. The association integrates
the per-type form, nearest type-t GBS times the cross-type exclusion
factor, independent of the engine's serving process.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate as _scipy_integrate

from uavcov.association import HeightContext, height_context
from uavcov.geometry import exclusion_radius
from uavcov.model import LinkType, SystemParams
from uavcov.quadrature import gauss_nodes

_EXTENSION_NODES = 48


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    Carries the best available estimate and its error bound so callers can
    decide whether to degrade gracefully.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class UndefinedConditionalError(ValueError):
    """A conditional quantity was requested on a zero-probability event."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/effort contract for adaptive integration."""

    rel_tol: float = 1e-4
    abs_tol: float = 1e-8
    max_depth: int = 12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


_ASSOC_SPEC = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-12, max_depth=14)


def integrate(fn, lo: float, hi: float, spec: QuadratureSpec | None = None) -> float:
    """Integrate a scalar function over [lo, hi] to the spec's tolerance.

    Semi-infinite and doubly infinite ranges are accepted (QUADPACK maps
    them through a compactifying substitution). A result whose error bound
    exceeds max(rel_tol*|I|, abs_tol) raises QuadratureError carrying the
    estimate and the bound.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not lo <= hi:
        raise ValueError(f"invalid integration range [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    # max_depth caps bisection depth; QUADPACK's `limit` counts subintervals
    limit = 2 ** int(spec.max_depth)
    with warnings.catch_warnings():
        warnings.simplefilter("error", _scipy_integrate.IntegrationWarning)
        try:
            value, err = _scipy_integrate.quad(
                fn, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=limit)
        except _scipy_integrate.IntegrationWarning as w:
            value, err = _scipy_integrate.quad(
                fn, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=limit,
                full_output=True)[:2]
            raise QuadratureError(
                f"integration did not converge: {w} (estimate {value!r}, bound {err!r})",
                estimate=value, error_bound=err) from None
    if err > max(spec.rel_tol * abs(value), spec.abs_tol):
        raise QuadratureError(
            f"error bound {err:.3e} exceeds tolerance for estimate {value:.6e}",
            estimate=value, error_bound=err)
    return value


def cum_intensity(ctx: HeightContext, link: LinkType, r):
    """int_0^r x P_link(x, z) dx for any r >= 0: the context's interpolant
    up to the receiving radius, and a Gauss-Legendre panel beyond it."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.atleast_1d(np.asarray(ctx.cum_intensity(link, r), dtype=float))
    flat_r, flat_out = r.ravel(), out.ravel()
    for i in np.nonzero(flat_r > ctx.r_m)[0]:
        x, w = gauss_nodes(ctx.r_m, flat_r[i], _EXTENSION_NODES)
        flat_out[i] += float(np.sum(w * x * ctx.p_type(link, x)))
    return float(out[0]) if scalar else out


def ranked_cum(ctx: HeightContext, laws, tau: float, spec: QuadratureSpec) -> float:
    """Cumulative intensity of the serving process at log-loss tau, without
    the 2 pi lambda: sum_t int_0^min(x_t, r_m) x P_t(x) dx. x_t is the
    distance at which a type-t station has log-loss tau: log((x^2 +
    h_bar^2)^(alpha/2) / eta) under its law (eta, alpha), laws LoS first,
    less the lesser of both types' log-losses straight below."""
    below = [alpha * np.log(ctx.h_bar) - np.log(eta) for eta, alpha in laws]
    total = 0.0
    for link, (_, alpha), log in zip(LinkType, laws, below):
        x_t = ctx.h_bar * np.sqrt(max(
            np.expm1(2.0 / alpha * (tau - (log - min(below)))), 0.0))
        total += integrate(lambda x: x * float(ctx.p_type(link, np.asarray(x))),
                           0.0, float(min(x_t, ctx.r_m)), spec)
    return total


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
           * np.exp(-2.0 * np.pi * lam * cum_intensity(ctx, link, r0)))
    return float(out) if out.ndim == 0 else out


def _joint_weight(link: LinkType, r0, ctx: HeightContext, params: SystemParams):
    """Joint density of {nearest link-type GBS at r0} and {it wins the
    association}: f_{R0} times the opposite-type void factor. Equals
    A(z) * f_tilde(r0, z)."""
    return (nearest_type_pdf(link, r0, ctx.z, params)
            * exclusion_factor(link, np.asarray(r0, dtype=float), ctx, params))


@lru_cache(maxsize=2048)
def association_probability(link: LinkType, z: float, params: SystemParams) -> float:
    """Probability that the UAV associates with a GBS of the given type.

    Integrates the joint serving weight over [0, receiving radius]; the
    remaining mass 1 - A_L - A_N is the void probability (no receivable
    GBS at all, or none that wins within range).
    """
    ctx = height_context(params, z)

    def integrand(r0):
        return float(_joint_weight(link, np.asarray(r0), ctx, params))

    return integrate(integrand, 0.0, ctx.r_m, _ASSOC_SPEC)


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
