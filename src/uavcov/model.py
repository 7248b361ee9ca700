"""System parameters and physical-layer primitives.

Everything here works in SI units and linear power ratios. dB / dBm /
per-km^2 values are only accepted at the configuration boundary (see
``uavcov.cli``) and converted once on the way in.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import GeometryError, ParameterError
from .quadrature import gauss_nodes

__all__ = [
    "LinkType",
    "AssociationPolicy",
    "ChannelParams",
    "EnvironmentParams",
    "DirectionalAntenna",
    "OmniAntenna",
    "AntennaModel",
    "Waypoint",
    "SystemParams",
    "default_params",
    "linear_from_db",
    "watts_from_dbm",
    "path_loss",
    "los_probability",
    "los_probability_slope",
    "uav_mainlobe_gain",
    "sample_fading",
    "horizontal_speed",
    "horizontal_speed_nodes",
]

_BISECTION_STEPS = 60


class LinkType(enum.Enum):
    """Propagation state of an air-to-ground link."""

    LOS = "los"
    NLOS = "nlos"

    @property
    def other(self) -> "LinkType":
        return LinkType.NLOS if self is LinkType.LOS else LinkType.LOS


class AssociationPolicy(enum.Enum):
    """Serving-cell selection rule."""

    STRONGEST_RSS = "strongest_rss"
    NEAREST = "nearest"


@dataclass(frozen=True)
class ChannelParams:
    """Path-loss exponents/intercepts and Nakagami fading shapes per link type.

    Fading shapes are restricted to positive integers: the coverage
    expression is a finite sum with m-1 terms and needs integer m.
    Equal LoS/NLoS parameters are allowed (degenerate single-type channel,
    used by the policy-equivalence checks).
    """

    alpha_l: float = 2.09
    alpha_n: float = 3.75
    eta_l: float = 10.0 ** (-4.11)  # -41.1 dB at 1 m
    eta_n: float = 10.0 ** (-3.29)  # -32.9 dB at 1 m
    m_l: int = 3
    m_n: int = 1

    def __post_init__(self):
        if not (2.0 < self.alpha_l <= self.alpha_n):
            raise ParameterError(
                f"need 2 < alpha_l <= alpha_n, got {self.alpha_l}, {self.alpha_n}")
        if self.eta_l <= 0 or self.eta_n <= 0:
            raise ParameterError("path-loss intercepts must be positive")
        if not (self.m_l >= self.m_n >= 1):
            raise ParameterError(
                f"need m_l >= m_n >= 1, got {self.m_l}, {self.m_n}")
        if self.m_l != int(self.m_l) or self.m_n != int(self.m_n):
            raise ParameterError("fading shapes must be integers")

    def alpha(self, link: LinkType) -> float:
        return self.alpha_l if link is LinkType.LOS else self.alpha_n

    def eta(self, link: LinkType) -> float:
        return self.eta_l if link is LinkType.LOS else self.eta_n

    def m(self, link: LinkType) -> int:
        return self.m_l if link is LinkType.LOS else self.m_n


@dataclass(frozen=True)
class EnvironmentParams:
    """Sigmoid parameters of the elevation-angle LoS model."""

    a: float = 9.61
    b: float = 0.16  # per degree

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("environment parameters must be positive")


@dataclass(frozen=True)
class DirectionalAntenna:
    """Downward cone with full beamwidth in degrees; zero gain outside."""

    beamwidth_deg: float = 120.0

    def __post_init__(self):
        if not (0.0 < self.beamwidth_deg < 180.0):
            raise ParameterError(
                f"beamwidth must lie in (0, 180) degrees, got {self.beamwidth_deg}")


@dataclass(frozen=True)
class OmniAntenna:
    """Unit-gain omnidirectional antenna with a truncation radius.

    The truncation radius bounds the interference field the same way the
    main-lobe footprint does for the directional antenna, so the analysis
    and the simulator share one model.
    """

    r_max: float = 3000.0

    def __post_init__(self):
        if self.r_max <= 0:
            raise ParameterError("truncation radius must be positive")


AntennaModel = DirectionalAntenna | OmniAntenna


@dataclass(frozen=True)
class Waypoint:
    """One end point of a movement, horizontal coordinates plus altitude."""

    x: float
    y: float
    z: float


@dataclass(frozen=True)
class SystemParams:
    """All scalars of the scenario, SI units and linear ratios only."""

    lambda_b: float = 100e-6        # GBS density, per m^2
    p_t: float = 10.0 ** 1.6        # transmit power, W (46 dBm)
    g_b: float = 1.0                # GBS sidelobe gain, linear
    h_b: float = 30.0               # GBS height, m
    h_lb: float = 90.0              # lower UAV altitude bound, m
    h_ub: float = 150.0             # upper UAV altitude bound, m
    mu: float = 300e-6              # mobility parameter, per m^2
    v: float = 20.0                 # UAV speed, m/s
    kappa: float = 0.3              # handover connection-failure probability
    t_thresh: float = 10.0 ** -0.38  # SIR threshold, linear (-3.8 dB)
    antenna: AntennaModel = field(default_factory=DirectionalAntenna)
    channel: ChannelParams = field(default_factory=ChannelParams)
    env: EnvironmentParams = field(default_factory=EnvironmentParams)
    policy: AssociationPolicy = AssociationPolicy.STRONGEST_RSS

    def __post_init__(self):
        if self.lambda_b <= 0:
            raise ParameterError("lambda_b must be positive")
        if self.p_t <= 0 or self.g_b <= 0:
            raise ParameterError("p_t and g_b must be positive")
        if self.h_b < 0:
            raise ParameterError("h_b must be nonnegative")
        if not (self.h_b < self.h_lb < self.h_ub):
            raise ParameterError(
                f"need h_b < h_lb < h_ub, got {self.h_b}, {self.h_lb}, {self.h_ub}")
        if self.mu <= 0:
            raise ParameterError("mu must be positive")
        if self.v < 0:
            raise ParameterError("v must be nonnegative")
        if not (0.0 <= self.kappa <= 1.0):
            raise ParameterError("kappa must lie in [0, 1]")
        if self.t_thresh <= 0:
            raise ParameterError("t_thresh must be positive")

    @property
    def g_u(self) -> float:
        return uav_mainlobe_gain(self.antenna)

    @property
    def g_tot(self) -> float:
        return self.g_b * self.g_u

    def with_(self, **changes) -> "SystemParams":
        """Copy with selected fields replaced."""
        return replace(self, **changes)


def default_params(**overrides) -> SystemParams:
    """Baseline scenario parameters; keyword overrides are SI/linear."""
    return SystemParams(**overrides)


def linear_from_db(value_db) -> float:
    """Convert dB to a linear power ratio."""
    value_db = np.asarray(value_db, dtype=float)
    if not np.all(np.isfinite(value_db)):
        raise ParameterError(f"non-finite dB value: {value_db}")
    out = 10.0 ** (value_db / 10.0)
    return float(out) if out.ndim == 0 else out


def watts_from_dbm(value_dbm) -> float:
    """Convert dBm to watts."""
    value_dbm = np.asarray(value_dbm, dtype=float)
    if not np.all(np.isfinite(value_dbm)):
        raise ParameterError(f"non-finite dBm value: {value_dbm}")
    out = 10.0 ** ((value_dbm - 30.0) / 10.0)
    return float(out) if out.ndim == 0 else out


def path_loss(link: LinkType, r, h_u, ch: ChannelParams, h_b: float):
    """Distance-dependent channel gain eta * (r^2 + dh^2)^(-alpha/2).

    Args:
        link: LoS or NLoS, selecting (alpha, eta).
        r: horizontal distance in m (scalar or array).
        h_u: UAV altitude in m.
        ch: channel parameters.
        h_b: GBS height in m.

    Returns:
        Linear power gain, strictly decreasing in r and in |h_u - h_b|.
    """
    r = np.asarray(r, dtype=float)
    dh = h_u - h_b
    d2 = r * r + dh * dh
    if np.any(d2 == 0.0):
        raise GeometryError("zero propagation distance (r=0 and h_u=h_b)")
    out = ch.eta(link) * d2 ** (-0.5 * ch.alpha(link))
    return float(out) if out.ndim == 0 else out


def los_probability(r, h_u, env: EnvironmentParams, h_b: float):
    """Elevation-angle LoS probability, sigmoid in the angle in degrees.

    r=0 is handled by the 90-degree limit. Increases with altitude,
    decreases with horizontal distance.
    """
    r = np.asarray(r, dtype=float)
    dh = h_u - h_b
    # in place: a few per cent faster on station-sized arrays than the
    # formula's six fresh temporaries, with the same values
    out = np.asarray(np.arctan2(dh, r))
    np.degrees(out, out=out)
    out -= env.a
    out *= -env.b
    np.exp(out, out=out)
    out *= env.a
    out += 1.0
    np.divide(1.0, out, out=out)
    return float(out) if out.ndim == 0 else out


def los_probability_slope(r, h_u, env: EnvironmentParams, h_b: float):
    """d/dr of ``los_probability``: the sigmoid's slope b P (1 - P) per
    degree times the elevation angle's -(180/pi) dh / (r^2 + dh^2) per metre."""
    r = np.asarray(r, dtype=float)
    dh = h_u - h_b
    p = los_probability(r, h_u, env, h_b)
    return -env.b * p * (1.0 - p) * np.degrees(dh / (r * r + dh * dh))


def uav_mainlobe_gain(antenna: AntennaModel) -> float:
    """Main-lobe gain: 29000/beamwidth_deg^2 for the cone, 1 for omni."""
    if isinstance(antenna, DirectionalAntenna):
        return 29000.0 / antenna.beamwidth_deg ** 2
    return 1.0


def sample_fading(link: LinkType, ch: ChannelParams, rng: np.random.Generator, size=None):
    """Draw Nakagami-m channel power gains, Gamma(m, 1/m) with unit mean.
    At m = 1 the law is the standard exponential, which standard_gamma
    draws the same way; asking for it directly skips the gamma dispatch
    and the division."""
    m = ch.m(link)
    if m == 1:
        return rng.standard_exponential(size)
    return rng.standard_gamma(m, size=size) / m


def horizontal_speed(v: float, rho_t, dz):
    """Horizontal component of the constant-speed 3D movement.

    V * rho / sqrt(rho^2 + dz^2); the no-move case rho=0, dz=0 is defined
    as zero.
    """
    rho_t = np.asarray(rho_t, dtype=float)
    dz = np.asarray(dz, dtype=float)
    if np.any(rho_t < 0):
        raise ParameterError("transition length must be nonnegative")
    norm = np.hypot(rho_t, dz)
    # form the bounded ratio first: v*rho/norm can exceed v for subnormal rho
    ratio = np.where(norm > 0.0, rho_t / np.where(norm > 0.0, norm, 1.0), 0.0)
    out = v * np.clip(ratio, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


_erf = np.frompyfunc(math.erf, 1, 1)


def _speed_ratio_cdf(t, z_t: float, mu: float, h_lb: float, h_ub: float):
    """P(v_h <= t V | z_t) for t in (0, 1], the CDF of the horizontal speed
    given the post-move altitude: the Rayleigh transition length gives
    P(v_h <= s | dz) = 1 - exp(-a^2 dz^2), a^2 = pi mu s^2/(V^2 - s^2), and
    the uniform pre-move altitude averages exp(-a^2 dz^2) in erf form:

    F(s) = 1 - (1/band) (sqrt(pi)/(2a)) [erf(a (z_t - h_lb)) + erf(a (h_ub - z_t))]."""
    with np.errstate(divide="ignore"):  # t = 1: a = inf, erf = 1, F = 1
        a = np.sqrt(np.pi * mu * t * t / ((1.0 - t) * (1.0 + t)))
    spread = np.asarray(_erf(a * (z_t - h_lb)) + _erf(a * (h_ub - z_t)),
                        dtype=float)
    return 1.0 - 0.5 * math.sqrt(math.pi) * spread / (a * (h_ub - h_lb))


@lru_cache(maxsize=256)
def _speed_ratio_nodes(z_t: float, mu: float, h_lb: float, h_ub: float, n: int):
    """F^-1 at the n Gauss-Legendre nodes of (0, 1), as ratios v_h / V,
    by a vectorised bisection to double precision."""
    u, w = gauss_nodes(0.0, 1.0, n)
    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = _speed_ratio_cdf(mid, z_t, mu, h_lb, h_ub) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def horizontal_speed_nodes(z_t: float, params: SystemParams, n: int):
    """Gauss nodes of the horizontal-speed law given z_t.

    Substituting u = F(v_h) makes the law the integration measure: the
    nodes are F^-1 at the Gauss-Legendre nodes of (0, 1) and the weights
    are the plain Gauss weights, which sum to 1. The ratios v_h / V do not
    depend on V and are cached per (z_t, mu, band, n).

    Returns:
        (v_h, weights): n increasing speeds in [0, V] and their weights.
    """
    t, w = _speed_ratio_nodes(float(z_t), params.mu, params.h_lb, params.h_ub, n)
    return params.v * t, w
