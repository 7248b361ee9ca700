"""Ground-truth network simulator.

Each episode samples a GBS field, link types, fading and one 3D movement,
then records association, handover, void and coverage events. Episode e of
a run draws every random number from a Philox stream keyed by (seed, e), so
estimates are bit-identical regardless of execution order, chunking or
worker count.

`simulate_episode` runs one episode and is the reference. The estimators
`summary_estimates` and `association_estimate` run the same episodes in
blocks: consecutive episodes whose fields together hold about
BLOCK_STATIONS stations. A block keeps the per-episode streams and their
draw order. Each episode draws its movement and field from its own stream;
the stations of all episodes then sit in one ragged array (episode b owns
the rows starts[b] : starts[b] + sizes[b]), and distances, link types,
path-loss gains and the serving station of every episode are computed
once per waypoint for the whole block; each episode then resumes its
stream for the fading and the handover coin. Every elementwise operation
is the one `simulate_episode` applies, so the counts equal those of a
plain loop over `simulate_episode`.

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
# a block holds at least one whole field, some ten float arrays per station
MAX_MEAN_STATIONS = 1e6
# stations per block, counting one for each episode's own draws; a larger
# field is a block of its own. At the baseline 4096 ran as fast as 8192
# with 0.8 MB less peak memory, and 2048 ran slower
BLOCK_STATIONS = 4096


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


def _pathloss_gains(d: np.ndarray, los: np.ndarray, dz2,
                    params: SystemParams) -> np.ndarray:
    """Path-loss gains at horizontal distances d, with dz2 the squared
    height gap (z - h_b)**2 as a Python or numpy scalar power: the array
    square may differ from it in the last bit."""
    ch = params.channel
    d2 = d * d + dz2
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
        gains = _pathloss_gains(d, los, (uav.z - params.h_b) ** 2, params)
        metric = np.where(in_range, gains, -np.inf)
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
        powers = _pathloss_gains(d, los_post, (z_post - params.h_b) ** 2,
                                 params) * fading
        signal = powers[post[0]]
        interference = float(np.sum(powers[in_range])) - signal
        sir = math.inf if interference <= 0.0 else float(signal / interference)
        covered = sir > params.t_thresh and (
            not handover or coin <= 1.0 - params.kappa)
    return EpisodeOutcome(pre, post, handover, pre is None, post is None,
                          sir, covered)


# ---------------------------------------------------------------------------
# block engine: the episodes of simulate_episode, a block at a time
# ---------------------------------------------------------------------------

class _EpisodeStreams:
    """The streams of episode_rng(seed, e) through one Philox whose state is
    reset in place: building a Philox per episode reads OS entropy and costs
    several times the reset."""

    def __init__(self, seed: int):
        self._key = np.array([seed & _MASK64, 0], dtype=np.uint64)
        self._bits = np.random.Philox(key=self._key)
        self._rng = np.random.Generator(self._bits)
        # counter 0 and an empty output buffer: the state of a new Philox
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }

    def start(self, e: int) -> np.random.Generator:
        """Episode e's stream before its first draw."""
        self._key[1] = e & _MASK64
        self._bits.state = self._fresh
        return self._rng

    def save(self) -> dict:
        """The current stream's state, for resume."""
        return self._bits.state

    def resume(self, state: dict) -> np.random.Generator:
        self._bits.state = state
        return self._rng


def _segment_argmax(metric: np.ndarray, starts: np.ndarray,
                    sizes: np.ndarray) -> np.ndarray:
    """Per segment metric[starts[b] : starts[b] + sizes[b]], the index of
    its first maximum, as np.argmax gives it (exact ties go to the lowest
    index); -1 for an empty segment or one whose maximum is -inf."""
    out = np.full(len(sizes), -1, dtype=np.intp)
    full = sizes > 0
    if not np.any(full):
        return out
    peak = np.full(len(sizes), -np.inf)
    peak[full] = np.maximum.reduceat(metric, starts[full])
    # every non-empty segment reaches its peak, so its first hit is its own
    hits = np.flatnonzero(metric == np.repeat(peak, sizes))
    first = hits[np.searchsorted(hits, starts[full])]
    out[full] = np.where(peak[full] > -np.inf, first, -1)
    return out


class _FieldBlock:
    """The fields of consecutive episodes in one ragged array: episode b
    owns the stations starts[b] : starts[b] + sizes[b]. Episode b drew
    random(3 n_b): station radii, angles, then LoS latents, as sample_ppp
    and simulate_episode draw them."""

    def __init__(self, sizes: list, draws: list, r_field: float):
        self.sizes = np.array(sizes, dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        if len(sizes) == 1:
            n, u = sizes[0], draws[0]
            self._seg = None
            # a copy, so that the raw draws can be freed
            radius_u, angle_u, self.latent = u[:n], u[n:2 * n], u[2 * n:].copy()
        else:
            u = np.concatenate(draws)
            self._seg = np.repeat(np.arange(len(sizes)), self.sizes)
            # station i of episode b drew its radius at 3 starts[b] + (i - starts[b])
            first = 2 * self.starts[self._seg] + np.arange(len(self._seg))
            n_b = self.sizes[self._seg]
            radius_u, angle_u, self.latent = (u[first], u[first + n_b],
                                              u[first + 2 * n_b])
        radii = r_field * np.sqrt(radius_u)
        angles = 2.0 * np.pi * angle_u
        self.x = radii * np.cos(angles)
        self.y = radii * np.sin(angles)

    def spread(self, per_episode: np.ndarray) -> np.ndarray:
        """One value per station; a one-episode block broadcasts instead."""
        return per_episode if self._seg is None else per_episode[self._seg]

    def serve(self, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
              params: SystemParams):
        """Link types, in-range mask, path-loss gains and serving station
        (-1 when void) with each episode's UAV at (wx, wy, z)[b]; the same
        operations as classify_links and associate."""
        d = np.hypot(self.x - self.spread(wx), self.y - self.spread(wy))
        los = self.latent < los_probability(d, self.spread(z), params.env,
                                            params.h_b)
        in_range = d <= self.spread(receiving_radius(z, params.h_b,
                                                     params.antenna))
        # scalar powers per episode, as _pathloss_gains asks
        dz2 = np.array([(zb - params.h_b) ** 2 for zb in z.tolist()])
        gains = _pathloss_gains(d, los, self.spread(dz2), params)
        metric = -d if params.policy is AssociationPolicy.NEAREST else gains
        serving = _segment_argmax(np.where(in_range, metric, -np.inf),
                                  self.starts, self.sizes)
        return los, in_range, gains, serving


def _draw_block(streams: _EpisodeStreams, start: int, stop: int,
                r_field: float, draw):
    """Draw episodes start, start + 1, ... (short of stop) until their
    stations, counting one per episode, reach BLOCK_STATIONS. draw(rng)
    takes one episode's draws from its stream and returns (values, n,
    random(3 n)). Returns the episodes' values and their _FieldBlock."""
    values, sizes, draws = [], [], []
    e, slots = start, 0
    while e < stop and slots < BLOCK_STATIONS:
        v, n, u = draw(streams.start(e))
        values.append(v)
        sizes.append(n)
        draws.append(u)
        slots += n + 1
        e += 1
    return values, _FieldBlock(sizes, draws, r_field)


_SUMMARY_KEYS = ("coverage", "handover", "association_los", "association_nlos",
                 "void")


def _tally_block(params: SystemParams, streams: _EpisodeStreams, draw,
                 start: int, stop: int, r_field: float):
    """Summary counts of one block from episode start on, and the episode
    after the block. The block's arrays live only in this call, so the next
    block is drawn without them."""
    episodes, field = _draw_block(streams, start, stop, r_field, draw)
    altitudes, rho, theta, states = zip(*episodes)
    altitudes = np.array(altitudes)
    band = params.h_ub - params.h_lb
    z_pre = params.h_lb + band * altitudes[:, 0]
    z_post = params.h_lb + band * altitudes[:, 1]
    origin = np.zeros(len(episodes))
    los, in_range, gains, pre = field.serve(origin, origin, z_pre, params)
    has_pre = pre >= 0
    serving_los = los[pre[has_pre]]

    # math's atan2, cos and sin as in simulate_episode: numpy's vector
    # versions may differ in the last bit
    v_h = horizontal_speed(params.v, np.array(rho), z_post - z_pre)
    heading = [t + (math.atan2(field.y[i], field.x[i]) if i >= 0 else 0.0)
               for i, t in zip(pre.tolist(), theta)]
    end_x = np.array([v * math.cos(h) for v, h in zip(v_h.tolist(), heading)])
    end_y = np.array([v * math.sin(h) for v, h in zip(v_h.tolist(), heading)])
    los, in_range, gains, post = field.serve(end_x, end_y, z_post, params)

    # fading and coin from each episode's own stream; a void episode needs
    # neither, and nothing follows them in its stream
    served = np.flatnonzero(post >= 0)
    m = np.where(los, float(params.channel.m_l), float(params.channel.m_n))
    powers = np.zeros(len(m))
    coin = np.empty(len(served))
    first = field.starts.tolist()
    ends = (field.starts + field.sizes).tolist()
    for k, b in enumerate(served.tolist()):
        rng = streams.resume(states[b])
        rows = slice(first[b], ends[b])
        powers[rows] = rng.standard_gamma(m[rows])
        coin[k] = rng.random()
    powers /= m
    powers *= gains

    # per-episode sums of the in-range powers by np.add.reduce, whose
    # pairwise order is np.sum's: a reordered sum may round differently
    kept = np.flatnonzero(in_range)
    lo = np.searchsorted(kept, field.starts[served]).tolist()
    hi = np.searchsorted(kept, field.starts[served] + field.sizes[served]).tolist()
    kept = powers[kept]
    total = np.array([np.add.reduce(kept[a:b]) for a, b in zip(lo, hi)])
    signal = powers[post[served]]
    interference = total - signal
    sir = np.full(len(served), np.inf)
    np.divide(signal, interference, out=sir, where=interference > 0.0)

    handover = has_pre & (post >= 0) & (pre != post)
    covered = (sir > params.t_thresh) & (
        ~handover[served] | (coin <= 1.0 - params.kappa))
    counts = (
        np.count_nonzero(covered),
        np.count_nonzero(handover),
        np.count_nonzero(serving_los),
        len(serving_los) - np.count_nonzero(serving_los),
        len(pre) - len(serving_los),
    )
    return counts, start + len(episodes)


def _tally_range(args) -> np.ndarray:
    """Summary counts over episodes start..stop-1, equal to a loop of
    simulate_episode over the same streams."""
    params, seed, start, stop, r_field = args
    streams = _EpisodeStreams(seed)
    scale = 1.0 / math.sqrt(2.0 * np.pi * params.mu)
    mean = params.lambda_b * np.pi * r_field * r_field

    def draw(rng):
        # simulate_episode's draws up to the link types, in its order
        altitudes = rng.random(2)
        rho = rng.rayleigh(scale)
        theta = np.pi * rng.random()
        n = rng.poisson(mean)
        u = rng.random(3 * n)
        return (altitudes, rho, theta, streams.save()), n, u

    counts = np.zeros(len(_SUMMARY_KEYS), dtype=np.int64)
    e = start
    while e < stop:
        block, e = _tally_block(params, streams, draw, e, stop, r_field)
        counts += block
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
    """Static association-type frequencies at a fixed altitude, equal to a
    loop of sample_ppp, classify_links and associate over episode_rng(seed, e)."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
    _check_field_budget(params.lambda_b, r_field)
    streams = _EpisodeStreams(seed)
    mean = params.lambda_b * np.pi * r_field * r_field

    def draw(rng):
        n_field = rng.poisson(mean)
        return None, n_field, rng.random(3 * n_field)

    los_count = nlos_count = 0
    e = 0
    while e < n:
        episodes, field = _draw_block(streams, e, n, r_field, draw)
        e += len(episodes)
        at = np.zeros(len(episodes))
        los, _, _, serving = field.serve(at, at, np.full(len(episodes), z), params)
        serving_los = los[serving[serving >= 0]]
        los_count += np.count_nonzero(serving_los)
        nlos_count += len(serving_los) - np.count_nonzero(serving_los)
    counts = {"association_los": los_count, "association_nlos": nlos_count,
              "void": n - los_count - nlos_count}
    return {k: _estimate_from_count(int(c), n, seed) for k, c in counts.items()}


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
    gains = _pathloss_gains(d, los, (z - params.h_b) ** 2, params)
    return in_range & (gains > pinned_gain)


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
        gains = _pathloss_gains(d, los, (z_t - params.h_b) ** 2, params)
        interference = float(np.sum((gains * fading)[in_range]))
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
        gains = _pathloss_gains(d, los, (z - params.h_b) ** 2, params)
        interference = pg * float(np.sum((gains * fading)[in_range]))
        total += math.exp(-tau * interference)
    return total / n
