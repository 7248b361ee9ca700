"""System parameters and physical-layer primitives.

Everything here works in SI units and linear power ratios. The baseline
scenario is written once, in boundary units (dB, dBm, per km^2), as
``BOUNDARY_DEFAULTS``; ``params_from_boundary`` is the one place a boundary
value becomes SI/linear, and ``default_params`` is that conversion of the
table with SI/linear overrides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
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
    "BOUNDARY_DEFAULTS",
    "params_from_boundary",
    "default_params",
    "linear_from_db",
    "watts_from_dbm",
    "path_loss",
    "los_probability",
    "los_probability_slope",
    "los_radius",
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

    alpha_l: float
    alpha_n: float
    eta_l: float    # linear gain at 1 m
    eta_n: float
    m_l: int
    m_n: int

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

    a: float
    b: float  # per degree

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ParameterError("environment parameters must be positive")


@dataclass(frozen=True)
class DirectionalAntenna:
    """Downward cone with full beamwidth in degrees; zero gain outside."""

    beamwidth_deg: float

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

    r_max: float

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

    lambda_b: float     # GBS density, per m^2
    p_t: float          # transmit power, W
    g_b: float          # GBS sidelobe gain, linear
    h_b: float          # GBS height, m
    h_lb: float         # lower UAV altitude bound, m
    h_ub: float         # upper UAV altitude bound, m
    mu: float           # mobility parameter, per m^2
    v: float            # UAV speed, m/s
    kappa: float        # handover connection-failure probability
    t_thresh: float     # SIR threshold, linear
    antenna: AntennaModel
    channel: ChannelParams
    env: EnvironmentParams
    policy: AssociationPolicy

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


# the baseline scenario in boundary units, the keys of a config file
BOUNDARY_DEFAULTS = {
    "lambda_b": 100.0,       # per km^2
    "mu": 300.0,             # per km^2
    "p_t": 46.0,             # dBm
    "g_b": 0.0,              # dB
    "t_thresh": -3.8,        # dB
    "eta_l": -41.1,          # dB at 1 m
    "eta_n": -32.9,          # dB at 1 m
    "alpha_l": 2.09,
    "alpha_n": 3.75,
    "m_l": 3,                # positive integers
    "m_n": 1,
    "a": 9.61,
    "b": 0.16,               # per degree
    "h_b": 30.0,             # m
    "h_lb": 90.0,            # m
    "h_ub": 150.0,           # m
    "v": 20.0,               # m/s
    "kappa": 0.3,
    "antenna": "directional",  # directional | omni
    "beamwidth_deg": 120.0,  # degrees, the directional antenna's
    "r_max": 3000.0,         # m, the omni antenna's
    "policy": "strongest_rss",  # strongest_rss | nearest
}


def params_from_boundary(values: dict) -> SystemParams:
    """Build SystemParams from a complete boundary-unit value dict with
    lower-case antenna and policy names, keyed like BOUNDARY_DEFAULTS; the
    one place a boundary value becomes SI/linear."""
    if values["antenna"] == "directional":
        antenna = DirectionalAntenna(float(values["beamwidth_deg"]))
    elif values["antenna"] == "omni":
        antenna = OmniAntenna(float(values["r_max"]))
    else:
        raise ParameterError(f"unknown antenna '{values['antenna']}'")
    try:
        policy = AssociationPolicy(values["policy"])
    except ValueError:
        raise ParameterError(f"unknown policy '{values['policy']}'") from None
    return SystemParams(
        lambda_b=float(values["lambda_b"]) / 1e6,
        p_t=watts_from_dbm(float(values["p_t"])),
        g_b=linear_from_db(float(values["g_b"])),
        h_b=float(values["h_b"]),
        h_lb=float(values["h_lb"]),
        h_ub=float(values["h_ub"]),
        mu=float(values["mu"]) / 1e6,
        v=float(values["v"]),
        kappa=float(values["kappa"]),
        t_thresh=linear_from_db(float(values["t_thresh"])),
        antenna=antenna,
        channel=ChannelParams(
            alpha_l=float(values["alpha_l"]), alpha_n=float(values["alpha_n"]),
            eta_l=linear_from_db(float(values["eta_l"])),
            eta_n=linear_from_db(float(values["eta_n"])),
            m_l=int(values["m_l"]), m_n=int(values["m_n"])),
        env=EnvironmentParams(a=float(values["a"]), b=float(values["b"])),
        policy=policy,
    )


def default_params(**overrides) -> SystemParams:
    """The baseline, BOUNDARY_DEFAULTS converted; keyword overrides are
    SI/linear."""
    return replace(params_from_boundary(BOUNDARY_DEFAULTS), **overrides)


def linear_from_db(value_db) -> float:
    """Convert dB to a linear power ratio."""
    value_db = np.asarray(value_db, dtype=float)
    if not np.all(np.isfinite(value_db)):
        raise ParameterError(f"non-finite dB value: {value_db}")
    out = 10.0 ** (value_db / 10.0)
    return float(out) if out.ndim == 0 else out


def watts_from_dbm(value_dbm) -> float:
    """Convert dBm to watts."""
    return linear_from_db(np.asarray(value_dbm, dtype=float) - 30.0)


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
    d2 = np.asarray(r * r + dh * dh)
    if not d2.all():
        raise GeometryError("zero propagation distance (r=0 and h_u=h_b)")
    np.power(d2, -0.5 * ch.alpha(link), out=d2)
    d2 *= ch.eta(link)                                # in place: eta d2^(-a/2)
    return float(d2) if d2.ndim == 0 else d2


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


def los_radius(p, h_u, env: EnvironmentParams, h_b: float):
    """Horizontal distance at which ``los_probability`` falls to p: 0 where
    it starts below p, and 1.6e16 (h_u - h_b) where it never falls to p."""
    angle = env.a - np.log((1.0 / p - 1.0) / env.a) / env.b
    return (h_u - h_b) * np.tan(np.radians(90.0 - np.clip(angle, 0.0, 90.0)))


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


def _speed_ratio_cdf(t, z_t, mu: float, h_lb: float, h_ub: float):
    """P(v_h <= t V | z_t) for t in (0, 1], the CDF of the horizontal speed
    given the post-move altitude z_t (or an array of them broadcasting
    against t): the Rayleigh transition length gives
    P(v_h <= s | dz) = 1 - exp(-a^2 dz^2), a^2 = pi mu s^2/(V^2 - s^2), and
    the uniform pre-move altitude averages exp(-a^2 dz^2) in erf form:

    F(s) = 1 - (1/band) (sqrt(pi)/(2a)) [erf(a (z_t - h_lb)) + erf(a (h_ub - z_t))]."""
    with np.errstate(divide="ignore"):  # t = 1: a = inf, erf = 1, F = 1
        a = np.sqrt(np.pi * mu * t * t / ((1.0 - t) * (1.0 + t)))
    spread = np.asarray(_erf(a * (z_t - h_lb)) + _erf(a * (h_ub - z_t)),
                        dtype=float)
    return 1.0 - 0.5 * math.sqrt(math.pi) * spread / (a * (h_ub - h_lb))


@lru_cache(maxsize=64)
def _speed_ratio_nodes(z_t: tuple, mu: float, h_lb: float, h_ub: float, n: int):
    """F^-1 at the squares of the n Gauss-Legendre nodes x of (0, 1), as
    ratios v_h / V, one row per altitude of z_t, and the weights 2 x w of
    du = 2x dx; one vectorised bisection to double precision inverts every
    altitude at once, each element taking the steps its altitude would alone."""
    x, w = gauss_nodes(0.0, 1.0, n)
    u = x * x
    w = 2.0 * x * w
    z = np.array(z_t)[:, None]
    lo, hi = np.zeros((len(z_t), n)), np.ones((len(z_t), n))
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = _speed_ratio_cdf(mid, z, mu, h_lb, h_ub) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def horizontal_speed_nodes(z_t, params: SystemParams, n: int):
    """Gauss nodes of the horizontal-speed law given z_t, a post-move
    altitude or an array of them.

    Substituting u = F(v_h) makes the law the integration measure, and
    u = x^2 removes F^-1's sqrt(u) start (F grows as v_h^2 from 0), which
    Gauss-Legendre in u resolves only algebraically: the nodes are F^-1 at
    the squared Gauss-Legendre nodes x of (0, 1), the weights 2 x times the
    Gauss weights, which sum to 1. The ratios v_h / V do not depend on V;
    all altitudes are inverted together, cached per (altitude tuple, mu,
    band, n).

    Returns:
        (v_h, weights): n increasing speeds in [0, V] per altitude, shaped
        z_t's shape + (n,), and their n weights.
    """
    z = np.asarray(z_t, dtype=float)
    t, w = _speed_ratio_nodes(tuple(z.ravel().tolist()), params.mu,
                              params.h_lb, params.h_ub, n)
    return params.v * t.reshape(*z.shape, n), w
