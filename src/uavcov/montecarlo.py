"""Ground-truth network simulator.

Each episode samples a GBS field, link types, fading and one 3D movement,
then records association, handover, void and coverage events. Episode e of
a run draws every random number from a Philox stream keyed by (seed, e), so
estimates are bit-identical regardless of execution order, chunking or
worker count.

The common factor P_t*G_tot multiplies the received power of the serving
GBS and of every interferer alike, so it cancels from the SIR and from the
association argmax; episodes therefore work with the path-loss gains
directly, which makes the transmit-power scale invariance exact.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningInfeasibleError, ParameterError
from .geometry import receiving_radius
from .model import (
    AssociationPolicy,
    LinkType,
    SystemParams,
    Waypoint,
    horizontal_speed,
    los_probability,
    path_loss,
    sample_fading,
)

__all__ = [
    "GbsField",
    "EpisodeOutcome",
    "McEstimate",
    "episode_rng",
    "field_radius",
    "sample_ppp",
    "classify_links",
    "associate",
    "simulate_episode",
    "summary_estimates",
    "association_estimate",
    "conditioned_oracles",
    "laplace_estimate",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1
_Z95 = 1.959963984540054
FIELD_MARGIN = 50.0
# mean stations per sampled field beyond which an estimator refuses to run;
# an episode keeps some ten float arrays per station alive
MAX_MEAN_STATIONS = 1e6


@dataclass(frozen=True)
class GbsField:
    """GBS positions inside the sampling disc, one row per station."""

    positions: np.ndarray  # shape (n, 2)

    def __len__(self):
        return len(self.positions)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Events of one simulated movement."""

    associated_pre: tuple[int, LinkType, float] | None
    associated_post: tuple[int, LinkType, float] | None
    handover: bool
    void_pre: bool
    void_post: bool
    sir: float | None
    covered: bool


@dataclass(frozen=True)
class McEstimate:
    """Proportion estimate with a Wilson confidence interval."""

    mean: float
    ci_low: float
    ci_high: float
    n: int
    seed: int

    @property
    def half_width(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ParameterError("need at least one trial")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    hw = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - hw, 0.0), min(center + hw, 1.0)


def _estimate_from_count(successes: int, n: int, seed: int) -> McEstimate:
    lo, hi = wilson_interval(successes, n)
    return McEstimate(successes / n, lo, hi, n, seed)


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one episode, independent of all others."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def field_radius(params: SystemParams) -> float:
    """Sampling disc radius covering both receiving discs of one movement."""
    r_m = receiving_radius(params.h_ub, params.h_b, params.antenna)
    return r_m + params.v + FIELD_MARGIN


def _check_field_budget(lambda_b: float, r_field: float) -> None:
    """Reject, before any draw, a field whose mean station count exceeds
    MAX_MEAN_STATIONS (a beamwidth near 180 degrees, a dense network)."""
    mean = lambda_b * np.pi * r_field * r_field
    if not mean <= MAX_MEAN_STATIONS:
        raise ParameterError(
            f"sampling field of radius {r_field:.4g} m holds {mean:.3g} stations "
            f"on average, above the budget of {MAX_MEAN_STATIONS:.0e}")


def sample_ppp(lambda_b: float, r_field: float, rng: np.random.Generator) -> GbsField:
    """Homogeneous PPP restricted to a disc of radius r_field."""
    n = rng.poisson(lambda_b * np.pi * r_field * r_field)
    radii = r_field * np.sqrt(rng.random(n))
    angles = 2.0 * np.pi * rng.random(n)
    return GbsField(np.column_stack([radii * np.cos(angles),
                                     radii * np.sin(angles)]))


def classify_links(field: GbsField, uav: Waypoint, env, h_b: float,
                   latent: np.ndarray) -> np.ndarray:
    """LoS marks per GBS as seen from the UAV's position, from per-GBS
    latent uniforms.

    Re-thresholding the same latent draw at both waypoints couples the
    marks of one episode: the marginal LoS probability at each position is
    unchanged, while a GBS seen from the same point keeps the same state
    (no displacement implies no handover, for any seed).
    """
    d = np.hypot(field.positions[:, 0] - uav.x, field.positions[:, 1] - uav.y)
    return latent < los_probability(d, uav.z, env, h_b)


def _pathloss_gains(d: np.ndarray, los: np.ndarray, z: float,
                    params: SystemParams) -> np.ndarray:
    ch = params.channel
    d2 = d * d + (z - params.h_b) ** 2
    return np.where(los,
                    ch.eta_l * d2 ** (-0.5 * ch.alpha_l),
                    ch.eta_n * d2 ** (-0.5 * ch.alpha_n))


def _station_fading(los: np.ndarray, params: SystemParams,
                    rng: np.random.Generator) -> np.ndarray:
    """Nakagami power gains per GBS, shape m_l on LoS and m_n on NLoS links."""
    m_arr = np.where(los, params.channel.m_l, params.channel.m_n)
    return rng.standard_gamma(m_arr) / m_arr


def associate(field: GbsField, los: np.ndarray, uav: Waypoint,
              params: SystemParams):
    """Pick the serving GBS under params.policy, or None when no station is
    in range (void).

    Strongest-average-RSS maximizes the mean received power (the common
    P_t*G_tot factor is omitted; it cannot change the argmax), the nearest
    policy minimizes horizontal distance. Exact metric ties resolve to the
    lowest GBS index.
    """
    if len(field) == 0:
        return None
    d = np.hypot(field.positions[:, 0] - uav.x, field.positions[:, 1] - uav.y)
    in_range = d <= receiving_radius(uav.z, params.h_b, params.antenna)
    if not np.any(in_range):
        return None
    if params.policy is AssociationPolicy.NEAREST:
        metric = np.where(in_range, -d, -np.inf)
    else:
        metric = np.where(in_range, _pathloss_gains(d, los, uav.z, params), -np.inf)
    idx = int(np.argmax(metric))
    link = LinkType.LOS if los[idx] else LinkType.NLOS
    return idx, link, float(d[idx])


def simulate_episode(params: SystemParams, rng: np.random.Generator,
                     r_field: float | None = None) -> EpisodeOutcome:
    """One movement: associate, move, re-associate, score SIR and coverage.

    The draw order is fixed and policy-independent so that episodes with
    the same stream are comparable across association policies.
    """
    if r_field is None:
        r_field = field_radius(params)
    band = params.h_ub - params.h_lb
    z_pre, z_post = params.h_lb + band * rng.random(2)
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu))
    theta = np.pi * rng.random()
    field = sample_ppp(params.lambda_b, r_field, rng)

    start = Waypoint(0.0, 0.0, z_pre)
    latent = rng.random(len(field))
    los_pre = classify_links(field, start, params.env, params.h_b, latent)
    pre = associate(field, los_pre, start, params)

    v_h = horizontal_speed(params.v, rho, z_post - z_pre)
    if pre is not None:
        sx, sy = field.positions[pre[0]]
        bearing = math.atan2(sy, sx)
    else:
        bearing = 0.0
    end = Waypoint(v_h * math.cos(bearing + theta),
                   v_h * math.sin(bearing + theta), z_post)

    los_post = classify_links(field, end, params.env, params.h_b, latent)
    post = associate(field, los_post, end, params)

    fading = _station_fading(los_post, params, rng)
    coin = rng.random()

    handover = pre is not None and post is not None and pre[0] != post[0]
    sir = None
    covered = False
    if post is not None:
        d = np.hypot(field.positions[:, 0] - end.x, field.positions[:, 1] - end.y)
        in_range = d <= receiving_radius(z_post, params.h_b, params.antenna)
        powers = _pathloss_gains(d, los_post, z_post, params) * fading
        signal = powers[post[0]]
        interference = float(np.sum(powers[in_range])) - signal
        sir = math.inf if interference <= 0.0 else float(signal / interference)
        covered = sir > params.t_thresh and (
            not handover or coin <= 1.0 - params.kappa)
    return EpisodeOutcome(pre, post, handover, pre is None, post is None,
                          sir, covered)


_SUMMARY_KEYS = ("coverage", "handover", "association_los", "association_nlos",
                 "void")


def _tally_range(args) -> np.ndarray:
    params, seed, start, stop, r_field = args
    counts = np.zeros(len(_SUMMARY_KEYS), dtype=np.int64)
    for e in range(start, stop):
        o = simulate_episode(params, episode_rng(seed, e), r_field)
        serving = o.associated_pre and o.associated_pre[1]
        counts += (
            o.covered,
            o.handover,
            serving is LinkType.LOS,
            serving is LinkType.NLOS,
            o.void_pre,
        )
    return counts


def summary_estimates(params: SystemParams, n: int, seed: int,
                      workers: int = 1, r_field: float | None = None) -> dict:
    """All standard metrics from a single pass over n episodes, keyed like
    the CSV metric column."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    if r_field is None:
        r_field = field_radius(params)
    _check_field_budget(params.lambda_b, r_field)
    if workers <= 1:
        counts = _tally_range((params, seed, 0, n, r_field))
    else:
        chunk = max(1000, -(-n // (4 * workers)))
        jobs = [(params, seed, lo, min(lo + chunk, n), r_field)
                for lo in range(0, n, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(_tally_range, jobs))
    return {key: _estimate_from_count(int(c), n, seed)
            for key, c in zip(_SUMMARY_KEYS, counts)}


def association_estimate(params: SystemParams, z: float, n: int, seed: int) -> dict:
    """Static association-type frequencies at a fixed altitude."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
    _check_field_budget(params.lambda_b, r_field)
    uav = Waypoint(0.0, 0.0, z)
    counts = {"association_los": 0, "association_nlos": 0, "void": 0}
    for e in range(n):
        rng = episode_rng(seed, e)
        field = sample_ppp(params.lambda_b, r_field, rng)
        los = classify_links(field, uav, params.env, params.h_b,
                             rng.random(len(field)))
        got = associate(field, los, uav, params)
        if got is None:
            counts["void"] += 1
        elif got[1] is LinkType.LOS:
            counts["association_los"] += 1
        else:
            counts["association_nlos"] += 1
    return {k: _estimate_from_count(c, n, seed) for k, c in counts.items()}


# ---------------------------------------------------------------------------
# conditioned experiments: pinned serving GBS, field conditioned on it winning
# ---------------------------------------------------------------------------

class _RejectionBudget:
    """Track rejection-sampling acceptance and abort when infeasible."""

    def __init__(self, min_rate: float = 1e-4, warmup: int = 20_000):
        self.attempts = 0
        self.accepted = 0
        self.min_rate = min_rate
        self.warmup = warmup

    def tick(self, accepted: bool):
        self.attempts += 1
        self.accepted += accepted
        if (self.attempts >= self.warmup
                and self.accepted < self.min_rate * self.attempts):
            raise ConditioningInfeasibleError(
                f"acceptance rate {self.accepted / self.attempts:.2e} below "
                f"{self.min_rate:.0e} after {self.attempts} attempts")


def _beats_pinned(d: np.ndarray, los: np.ndarray, pinned_gain: float,
                  pinned_r0: float, z: float, params: SystemParams) -> np.ndarray:
    in_range = d <= receiving_radius(z, params.h_b, params.antenna)
    if params.policy is AssociationPolicy.NEAREST:
        return in_range & (d < pinned_r0)
    return in_range & (_pathloss_gains(d, los, z, params) > pinned_gain)


def _conditioned_field(params: SystemParams, r0: float, z: float,
                       serving: LinkType, r_field: float,
                       rng: np.random.Generator, budget: _RejectionBudget):
    """Sample (field, latent marks) conditioned on the pinned serving GBS at
    (r0, 0) with forced link type winning the association at altitude z."""
    pinned_gain = path_loss(serving, r0, z, params.channel, params.h_b)
    while True:
        field = sample_ppp(params.lambda_b, r_field, rng)
        latent = rng.random(len(field))
        los = classify_links(field, Waypoint(0.0, 0.0, z), params.env,
                             params.h_b, latent)
        d = np.hypot(field.positions[:, 0], field.positions[:, 1])
        bad = _beats_pinned(d, los, pinned_gain, r0, z, params)
        ok = not np.any(bad)
        budget.tick(ok)
        if ok:
            return field, latent, los, d


def conditioned_oracles(params: SystemParams, r0: float, z_t: float,
                        serving: LinkType, n: int, seed: int) -> dict:
    """Conditional handover and conditional coverage frequencies with the
    serving GBS pinned at distance r0 with the forced link type.

    The handover experiment draws the pre-move altitude, conditions the
    field at that altitude, moves the UAV and re-associates at z_t with
    freshly drawn link types. The coverage experiment is static at z_t:
    interference from the conditioned field, independent fading, SIR
    against the threshold. Keys: "handover", "coverage".
    """
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_m_t = receiving_radius(z_t, params.h_b, params.antenna)
    if not 0.0 < r0 < r_m_t:
        raise ParameterError(f"r0 must lie inside (0, {r_m_t:.3f})")
    ch = params.channel
    band = params.h_ub - params.h_lb
    r_field = field_radius(params)
    _check_field_budget(params.lambda_b, r_field)
    budget = _RejectionBudget()

    handovers = 0
    for e in range(n):
        rng = episode_rng(seed, e)
        z_pre = params.h_lb + band * rng.random()
        field, latent, _, _ = _conditioned_field(params, r0, z_pre, serving,
                                                 r_field, rng, budget)
        rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu))
        theta = np.pi * rng.random()
        v_h = horizontal_speed(params.v, rho, z_t - z_pre)
        # pinned serving sits at bearing zero, movement at angle theta to it
        end = Waypoint(v_h * math.cos(theta), v_h * math.sin(theta), z_t)
        aug = GbsField(np.vstack([field.positions, [r0, 0.0]]))
        # field marks stay coupled through the move; the pinned GBS keeps
        # its forced type, which is part of the conditioning
        los_post = np.append(
            classify_links(field, end, params.env, params.h_b, latent),
            serving is LinkType.LOS)
        got = associate(aug, los_post, end, params)
        handovers += got is not None and got[0] != len(aug) - 1

    cov_seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
    covered = 0
    cov_budget = _RejectionBudget()
    for e in range(n):
        rng = episode_rng(cov_seed, e)
        field, _, los, d = _conditioned_field(params, r0, z_t, serving,
                                              r_field, rng, cov_budget)
        in_range = d <= r_m_t
        fading = _station_fading(los, params, rng)
        interference = float(np.sum(
            (_pathloss_gains(d, los, z_t, params) * fading)[in_range]))
        omega = sample_fading(serving, ch, rng)
        signal = path_loss(serving, r0, z_t, ch, params.h_b) * omega
        covered += interference <= 0.0 or signal / interference > params.t_thresh

    return {
        "handover": _estimate_from_count(handovers, n, seed),
        "coverage": _estimate_from_count(covered, n, cov_seed),
    }


def laplace_estimate(params: SystemParams, serving: LinkType, r0: float,
                     z: float, tau: float, n: int, seed: int) -> float:
    """Empirical Laplace functional E[exp(-tau I)] of the interference
    (fading included) under the pinned-serving conditioning."""
    r_m = receiving_radius(z, params.h_b, params.antenna)
    _check_field_budget(params.lambda_b, r_m + 1.0)
    pg = params.p_t * params.g_tot
    budget = _RejectionBudget()
    total = 0.0
    for e in range(n):
        rng = episode_rng(seed, e)
        field, _, los, d = _conditioned_field(params, r0, z, serving,
                                              r_m + 1.0, rng, budget)
        in_range = d <= r_m
        fading = _station_fading(los, params, rng)
        interference = pg * float(np.sum(
            (_pathloss_gains(d, los, z, params) * fading)[in_range]))
        total += math.exp(-tau * interference)
    return total / n
