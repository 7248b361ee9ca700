"""Ground-truth network simulator.

Each episode samples a GBS field, link types, fading and one 3D movement,
then records association, handover, void and coverage events.
`simulate_episode` runs one episode from a given stream and is the
reference. A field is drawn without trigonometry: a Poisson count of
points uniform in the square [-r_field, r_field]^2, x and y from one draw,
keeping those inside the disc (a PPP of the same intensity on the disc),
then one LoS latent per kept station. Every distance is sqrt(dx*dx +
dy*dy) and every squared height gap a product.

Every estimator runs blocks of a fixed number of episodes, chosen from
the inputs so that a block's fields hold about BLOCK_STATIONS stations (a
denser field is a block of its own). Block k draws from one Philox stream
keyed by (seed, k), each quantity in one vector call; `summary_estimates`
draws in simulate_episode's order (altitudes, rho, theta, square counts,
x|y, latents, fading, coins), so a one-episode block consumes its stream
as simulate_episode does. Workers get whole
blocks, so estimates are bit-identical regardless of execution order or
worker count. A block's stations sit in one array (episode b owns the
rows starts[b] : starts[b] + sizes[b]); distances, link types, gains and
serving stations are computed once per waypoint for the whole block, with
simulate_episode's elementwise operations. The pre-move association, with
the UAV above the origin, looks only at a disc of about ORIGIN_CANDIDATES
stations and doubles its radius until the disc's winner provably beats
every station outside it, so it picks the station the whole field would.

The conditioned oracles pin the serving GBS and condition by restriction:
a PPP with no point in a region is the PPP on the region's complement, so
each field drops the stations that would beat the pinned GBS.

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

from .errors import ParameterError
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
# mean stations per sampled field (on the disc) beyond which an estimator
# refuses to run, before any draw; a block holds at least one whole field,
# some ten float arrays per station, and the square it is drawn from holds
# 4/pi times as many points while the field is built
MAX_MEAN_STATIONS = 1e6
# stations per block, counting one for each episode's own draws; a larger
# field is a block of its own. At the baseline 4096 ran as fast as 8192
# with 0.8 MB less peak memory, and 2048 ran slower
BLOCK_STATIONS = 4096
# mean stations in the first candidate disc of the pre-move association
ORIGIN_CANDIDATES = 64
# relative margin by which a candidate winner must beat any station outside
# the disc; rounding moves a distance or a gain by some 1e-15
DISC_MARGIN = 1e-9


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
    """Counter-based stream for one episode or block, independent of all others."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def field_radius(params: SystemParams) -> float:
    """Sampling disc radius covering both receiving discs of one movement."""
    r_m = receiving_radius(params.h_ub, params.h_b, params.antenna)
    return r_m + params.v + FIELD_MARGIN


def _check_field_budget(lambda_b: float, r_field: float) -> float:
    """The mean station count of a field; rejects, before any draw, one
    above MAX_MEAN_STATIONS (a beamwidth near 180 degrees, a dense network)."""
    mean = lambda_b * np.pi * r_field * r_field
    if not mean <= MAX_MEAN_STATIONS:
        raise ParameterError(
            f"sampling field of radius {r_field:.4g} m holds {mean:.3g} stations "
            f"on average, above the budget of {MAX_MEAN_STATIONS:.0e}")
    return mean


def sample_ppp(lambda_b: float, r_field: float, rng: np.random.Generator) -> GbsField:
    """Homogeneous PPP restricted to a disc of radius r_field: a Poisson
    count of points uniform in the square [-r_field, r_field]^2, x and y
    from one draw, keeping the points inside the disc."""
    n = rng.poisson(4.0 * lambda_b * r_field * r_field)
    xy = (2.0 * rng.random(2 * n) - 1.0) * r_field
    x, y = xy[:n], xy[n:]
    inside = x * x + y * y <= r_field * r_field
    return GbsField(np.column_stack([x[inside], y[inside]]))


def _distance(x, y, px, py) -> np.ndarray:
    """Horizontal distances sqrt(dx*dx + dy*dy) of the points (x, y) from
    (px, py); every distance of this module, so all round alike."""
    dx = x - px
    dy = y - py
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def classify_links(field: GbsField, uav: Waypoint, env, h_b: float,
                   latent: np.ndarray) -> np.ndarray:
    """LoS marks per GBS as seen from the UAV's position, from per-GBS
    latent uniforms.

    Re-thresholding the same latent draw at both waypoints couples the
    marks of one episode: the marginal LoS probability at each position is
    unchanged, while a GBS seen from the same point keeps the same state
    (no displacement implies no handover, for any seed).
    """
    d = _distance(field.positions[:, 0], field.positions[:, 1], uav.x, uav.y)
    return latent < los_probability(d, uav.z, env, h_b)


def _pathloss_gains(d: np.ndarray, los: np.ndarray, dz2,
                    params: SystemParams) -> np.ndarray:
    """Path-loss gains at horizontal distances d, with dz2 the squared
    height gap dz * dz, dz = z - h_b."""
    ch = params.channel
    d2 = d * d + dz2
    return np.where(los,
                    ch.eta_l * d2 ** (-0.5 * ch.alpha_l),
                    ch.eta_n * d2 ** (-0.5 * ch.alpha_n))


def _station_fading(los: np.ndarray, params: SystemParams,
                    rng: np.random.Generator) -> np.ndarray:
    """Nakagami power gains per GBS, shape m_l on LoS and m_n on NLoS links."""
    m_arr = np.where(los, float(params.channel.m_l), float(params.channel.m_n))
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
    d = _distance(field.positions[:, 0], field.positions[:, 1], uav.x, uav.y)
    in_range = d <= receiving_radius(uav.z, params.h_b, params.antenna)
    if not np.any(in_range):
        return None
    if params.policy is AssociationPolicy.NEAREST:
        metric = np.where(in_range, -d, -np.inf)
    else:
        dz = uav.z - params.h_b
        gains = _pathloss_gains(d, los, dz * dz, params)
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
        bearing = np.arctan2(sy, sx)
    else:
        bearing = 0.0
    # numpy's scalar and vector results agree; math's may differ in the last bit
    end = Waypoint(v_h * np.cos(bearing + theta),
                   v_h * np.sin(bearing + theta), z_post)

    los_post = classify_links(field, end, params.env, params.h_b, latent)
    post = associate(field, los_post, end, params)

    fading = _station_fading(los_post, params, rng)
    coin = rng.random()

    handover = pre is not None and post is not None and pre[0] != post[0]
    sir = None
    covered = False
    if post is not None:
        d = _distance(field.positions[:, 0], field.positions[:, 1], end.x, end.y)
        in_range = d <= receiving_radius(z_post, params.h_b, params.antenna)
        dz = z_post - params.h_b
        powers = _pathloss_gains(d, los_post, dz * dz, params) * fading
        signal = powers[post[0]]
        interference = float(np.sum(powers[in_range])) - signal
        sir = math.inf if interference <= 0.0 else float(signal / interference)
        covered = sir > params.t_thresh and (
            not handover or coin <= 1.0 - params.kappa)
    return EpisodeOutcome(pre, post, handover, pre is None, post is None,
                          sir, covered)


# ---------------------------------------------------------------------------
# block engine: simulate_episode's draws, one vector call per block
# ---------------------------------------------------------------------------

def _block_episodes(mean: float) -> int:
    """Episodes per block for fields of the given mean station count: the
    block holds about BLOCK_STATIONS stations, counting one for each
    episode's own draws; a denser field is a block of its own."""
    return max(1, int(BLOCK_STATIONS // (mean + 1.0)))


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
    """The fields of a block's episodes in one array: episode b owns the
    stations starts[b] : starts[b] + sizes[b]. Draws the square counts,
    then x and y of all points in one call, then the LoS latents of the
    kept stations, as sample_ppp and simulate_episode draw them for one
    field; r2 is each station's squared distance from the origin."""

    def __init__(self, episodes: int, lambda_b: float, r_field: float,
                 rng: np.random.Generator):
        self.lambda_b, self.r_field = lambda_b, r_field
        counts = rng.poisson(4.0 * lambda_b * r_field * r_field, episodes)
        n = int(counts.sum())
        # in-place arithmetic and index gathers: a dense field faults and
        # copies less than with fresh products and boolean masks
        xy = rng.random(2 * n)
        xy *= 2.0
        xy -= 1.0
        xy *= r_field
        x, y = xy[:n], xy[n:]
        r2 = x * x
        r2 += y * y
        keep = np.flatnonzero(r2 <= r_field * r_field)
        self.x, self.y, self.r2 = x.take(keep), y.take(keep), r2.take(keep)
        ends = np.searchsorted(keep, np.cumsum(counts))
        self.sizes = np.diff(ends, prepend=0)
        self.starts = ends - self.sizes
        self.latent = rng.random(len(keep))
        self._seg = (None if episodes == 1
                     else np.repeat(np.arange(episodes), self.sizes))

    def spread(self, per_episode: np.ndarray) -> np.ndarray:
        """One value per station; a one-episode block broadcasts instead."""
        return per_episode if self._seg is None else per_episode[self._seg]

    def sums(self, values: np.ndarray, mask: np.ndarray,
             episodes: np.ndarray) -> np.ndarray:
        """Per listed episode, the sum of values over its stations where
        mask holds, by np.add.reduce, whose pairwise order is np.sum's: a
        reordered sum may round differently."""
        kept = np.flatnonzero(mask)
        lo = np.searchsorted(kept, self.starts[episodes]).tolist()
        hi = np.searchsorted(kept, self.starts[episodes]
                             + self.sizes[episodes]).tolist()
        kept = values[kept]
        return np.array([np.add.reduce(kept[a:b]) for a, b in zip(lo, hi)])

    def links(self, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
              params: SystemParams):
        """Distances, link types, in-range mask and path-loss gains of the
        stations with each episode's UAV at (wx, wy, z)[b]; the same
        operations as classify_links and associate."""
        d = _distance(self.x, self.y, self.spread(wx), self.spread(wy))
        los = self.latent < los_probability(d, self.spread(z), params.env,
                                            params.h_b)
        in_range = d <= self.spread(receiving_radius(z, params.h_b,
                                                     params.antenna))
        dz = z - params.h_b
        gains = _pathloss_gains(d, los, self.spread(dz * dz), params)
        return d, los, in_range, gains

    def serve(self, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
              params: SystemParams):
        """Link types, in-range mask, path-loss gains and serving station
        (-1 when void) with each episode's UAV at (wx, wy, z)[b]."""
        d, los, in_range, gains = self.links(wx, wy, z, params)
        metric = -d if params.policy is AssociationPolicy.NEAREST else gains
        serving = _segment_argmax(np.where(in_range, metric, -np.inf),
                                  self.starts, self.sizes)
        return los, in_range, gains, serving

    def serve_origin(self, z: np.ndarray, params: SystemParams):
        """Serving station (-1 when void) and its LoS mark with each
        episode's UAV above the origin at altitude z[b], as serve picks
        them, from the stations of a disc r2 <= r_c^2 whose first radius
        holds ORIGIN_CANDIDATES stations on average. An episode's pick
        stands once no station outside the disc can be in range or beat it
        (a gain above what a LoS or NLoS station at r_c could have, or a
        distance below r_c), by DISC_MARGIN; the other episodes go round
        again with r_c doubled. At r_c >= r_field the disc is the field."""
        ch = params.channel
        nearest = params.policy is AssociationPolicy.NEAREST
        r_m = receiving_radius(z, params.h_b, params.antenna)
        dz = z - params.h_b
        dz2 = dz * dz
        serving = np.full(len(z), -1, dtype=np.intp)
        serving_los = np.zeros(len(z), dtype=bool)
        todo = np.arange(len(z))
        r_c = math.sqrt(ORIGIN_CANDIDATES / (math.pi * self.lambda_b))
        while len(todo):
            # the candidates of the episodes in todo, segment by segment
            near = np.flatnonzero(self.r2 <= r_c * r_c)
            lo = np.searchsorted(near, self.starts[todo])
            sizes = np.searchsorted(near, self.starts[todo]
                                    + self.sizes[todo]) - lo
            starts = np.cumsum(sizes) - sizes
            seg = np.repeat(np.arange(len(todo)), sizes)
            rows = near[np.arange(len(seg)) + (lo - starts)[seg]]
            ep = todo[seg]
            # x - 0.0 == x, so this is _distance from the origin
            d = np.sqrt(self.r2[rows])
            los = self.latent[rows] < los_probability(d, z[ep], params.env,
                                                      params.h_b)
            metric = -d if nearest else _pathloss_gains(d, los, dz2[ep], params)
            best = _segment_argmax(np.where(d <= r_m[ep], metric, -np.inf),
                                   starts, sizes)
            # the best metric a station outside the disc could have
            if nearest:
                outside = np.full(len(todo), -r_c * (1.0 - DISC_MARGIN))
            else:
                edge = r_c * r_c + dz2[todo]
                outside = (1.0 + DISC_MARGIN) * np.maximum(
                    ch.eta_l * edge ** (-0.5 * ch.alpha_l),
                    ch.eta_n * edge ** (-0.5 * ch.alpha_n))
            done = (r_c * (1.0 - DISC_MARGIN) > r_m[todo]) | (r_c >= self.r_field)
            won = np.flatnonzero(best >= 0)
            done[won] |= metric[best[won]] > outside[won]
            won = won[done[won]]
            serving[todo[won]] = rows[best[won]]
            serving_los[todo[won]] = los[best[won]]
            todo = todo[~done]
            r_c *= 2.0
        return serving, serving_los


_SUMMARY_KEYS = ("coverage", "handover", "association_los", "association_nlos",
                 "void")


def _association_counts(serving: np.ndarray, serving_los: np.ndarray) -> tuple:
    """Episodes served over LoS, over NLoS, and void."""
    served = np.count_nonzero(serving >= 0)
    n_los = np.count_nonzero(serving_los)
    return n_los, served - n_los, len(serving) - served


def _tally_block(params: SystemParams, episodes: int, r_field: float,
                 rng: np.random.Generator):
    """Summary counts of one block of episodes drawn from rng; its arrays
    live only in this call, so the next block is drawn without them."""
    band = params.h_ub - params.h_lb
    z_pre, z_post = (params.h_lb + band * rng.random((episodes, 2))).T
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), episodes)
    theta = np.pi * rng.random(episodes)
    field = _FieldBlock(episodes, params.lambda_b, r_field, rng)

    pre, pre_los = field.serve_origin(z_pre, params)
    association = _association_counts(pre, pre_los)
    has_pre = pre >= 0

    bearing = np.zeros(episodes)
    bearing[has_pre] = np.arctan2(field.y[pre[has_pre]], field.x[pre[has_pre]])
    heading = bearing + theta
    v_h = horizontal_speed(params.v, rho, z_post - z_pre)
    los, in_range, gains, post = field.serve(v_h * np.cos(heading),
                                             v_h * np.sin(heading), z_post,
                                             params)
    powers = gains * _station_fading(los, params, rng)
    coin = rng.random(episodes)

    served = np.flatnonzero(post >= 0)
    total = field.sums(powers, in_range, served)
    signal = powers[post[served]]
    interference = total - signal
    sir = np.full(len(served), np.inf)
    np.divide(signal, interference, out=sir, where=interference > 0.0)

    handover = has_pre & (post >= 0) & (pre != post)
    covered = (sir > params.t_thresh) & (
        ~handover[served] | (coin[served] <= 1.0 - params.kappa))
    return np.count_nonzero(covered), np.count_nonzero(handover), *association


def _tally_blocks(args) -> np.ndarray:
    """Summary counts over the given blocks of an n-episode run; block k
    holds episodes k*size onwards and draws from episode_rng(seed, k)."""
    params, seed, n, size, blocks, r_field = args
    return np.sum([_tally_block(params, min(size, n - k * size), r_field,
                                episode_rng(seed, k)) for k in blocks], axis=0)


def summary_estimates(params: SystemParams, n: int, seed: int,
                      workers: int = 1, r_field: float | None = None) -> dict:
    """All standard metrics from a single pass over n episodes, keyed like
    the CSV metric column."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    if r_field is None:
        r_field = field_radius(params)
    size = _block_episodes(_check_field_budget(params.lambda_b, r_field))
    blocks = range(-(-n // size))
    if workers <= 1:
        counts = _tally_blocks((params, seed, n, size, blocks, r_field))
    else:
        # workers get whole blocks, so the counts do not depend on them
        chunk = -(-len(blocks) // (4 * workers))
        jobs = [(params, seed, n, size, blocks[i:i + chunk], r_field)
                for i in range(0, len(blocks), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(_tally_blocks, jobs))
    return {key: _estimate_from_count(int(c), n, seed)
            for key, c in zip(_SUMMARY_KEYS, counts)}


def _blocks(n: int, seed: int, size: int):
    """(episodes, stream) of each block of an n-episode run: block k holds
    episodes k*size onwards and draws from episode_rng(seed, k)."""
    for k in range(-(-n // size)):
        yield min(size, n - k * size), episode_rng(seed, k)


def association_estimate(params: SystemParams, z: float, n: int, seed: int) -> dict:
    """Static association-type frequencies at a fixed altitude, block k of
    episodes drawing its fields and link types from episode_rng(seed, k)."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
    size = _block_episodes(_check_field_budget(params.lambda_b, r_field))
    counts = np.zeros(3, dtype=np.int64)
    for episodes, rng in _blocks(n, seed, size):
        field = _FieldBlock(episodes, params.lambda_b, r_field, rng)
        counts += _association_counts(*field.serve_origin(
            np.full(episodes, z), params))
    return {key: _estimate_from_count(int(c), n, seed)
            for key, c in zip(_SUMMARY_KEYS[2:], counts)}


# ---------------------------------------------------------------------------
# conditioned experiments: a pinned serving GBS at (r0, 0) of forced type,
# each field less the stations that would beat it
# ---------------------------------------------------------------------------

def _beats_pinned(field: _FieldBlock, wx: np.ndarray, wy: np.ndarray,
                  z: np.ndarray, r0: float, serving: LinkType,
                  params: SystemParams):
    """Which stations of a block associate would pick over the pinned GBS,
    with each episode's UAV at (wx, wy, z)[b]; an out-of-range pinned GBS
    loses to every in-range station. Also the stations' link types,
    in-range mask and path-loss gains there."""
    d, los, in_range, gains = field.links(wx, wy, z, params)
    pinned_d = _distance(r0, 0.0, wx, wy)
    if params.policy is AssociationPolicy.NEAREST:
        beats = d < field.spread(pinned_d)
    else:
        dz = z - params.h_b
        pinned = _pathloss_gains(pinned_d, np.full(len(z), serving is LinkType.LOS),
                                 dz * dz, params)
        beats = gains > field.spread(pinned)
    beats |= field.spread(pinned_d > receiving_radius(z, params.h_b,
                                                      params.antenna))
    beats &= in_range
    return beats, los, in_range, gains


def _conditioned_interference(params: SystemParams, r0: float, z: float,
                              serving: LinkType, r_field: float, n: int,
                              seed: int):
    """Per block k of an n-episode run on episode_rng(seed, k): the stream,
    and each episode's faded path-loss interference at altitude z above
    the origin from the in-range stations that do not beat the pinned
    GBS. Fading is drawn for every station of the block."""
    size = _block_episodes(_check_field_budget(params.lambda_b, r_field))
    for episodes, rng in _blocks(n, seed, size):
        field = _FieldBlock(episodes, params.lambda_b, r_field, rng)
        origin = np.zeros(episodes)
        beats, los, in_range, gains = _beats_pinned(
            field, origin, origin, np.full(episodes, z), r0, serving, params)
        powers = gains * _station_fading(los, params, rng)
        yield rng, field.sums(powers, in_range & ~beats, np.arange(episodes))


def conditioned_oracles(params: SystemParams, r0: float, z_t: float,
                        serving: LinkType, n: int, seed: int) -> dict:
    """Conditional handover and conditional coverage frequencies with the
    serving GBS pinned at (r0, 0) with the forced link type; keys
    "handover", "coverage". Each field drops the stations that beat the
    pinned GBS with the UAV above the origin.

    The handover experiment drops them at the pre-move altitude, moves the
    UAV at angle theta to the pinned GBS's bearing to altitude z_t, and
    counts a handover when a kept station beats the pinned GBS there (link
    types re-thresholded from the same latents, the pinned GBS keeping its
    type). The coverage experiment is static at z_t: the pinned GBS's SIR
    over the kept in-range stations, with independent fading.

    With a directional antenna and r0 >= r_m(h_lb) (103.9 m at the
    baseline) the pinned GBS is out of range at some pre-move altitudes,
    where every in-range station is dropped, so the handover experiment
    no longer conditions on the pinned GBS serving: at r0 = 120 m it reads
    0.372 (20 000 episodes, seed 5) against an analytic 0.350.
    """
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_m_t = receiving_radius(z_t, params.h_b, params.antenna)
    if not 0.0 < r0 < r_m_t:
        raise ParameterError(f"r0 must lie inside (0, {r_m_t:.3f})")
    band = params.h_ub - params.h_lb
    r_field = field_radius(params)
    size = _block_episodes(_check_field_budget(params.lambda_b, r_field))

    handovers = 0
    for episodes, rng in _blocks(n, seed, size):
        z_pre = params.h_lb + band * rng.random(episodes)
        field = _FieldBlock(episodes, params.lambda_b, r_field, rng)
        rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), episodes)
        theta = np.pi * rng.random(episodes)
        origin = np.zeros(episodes)
        dropped = _beats_pinned(field, origin, origin, z_pre, r0, serving,
                                params)[0]
        v_h = horizontal_speed(params.v, rho, z_t - z_pre)
        # the pinned GBS sits at bearing zero, the movement at theta to it
        beats = _beats_pinned(field, v_h * np.cos(theta), v_h * np.sin(theta),
                              np.full(episodes, z_t), r0, serving, params)[0]
        handovers += np.count_nonzero(field.sums(beats, ~dropped,
                                                 np.arange(episodes)))

    cov_seed = (seed + 0x9E3779B97F4A7C15) & _MASK64
    signal_gain = path_loss(serving, r0, z_t, params.channel, params.h_b)
    covered = 0
    for rng, interference in _conditioned_interference(
            params, r0, z_t, serving, r_field, n, cov_seed):
        signal = signal_gain * sample_fading(serving, params.channel, rng,
                                             len(interference))
        sir = np.full(len(interference), np.inf)
        np.divide(signal, interference, out=sir, where=interference > 0.0)
        covered += np.count_nonzero(sir > params.t_thresh)

    return {
        "handover": _estimate_from_count(handovers, n, seed),
        "coverage": _estimate_from_count(covered, n, cov_seed),
    }


def laplace_estimate(params: SystemParams, serving: LinkType, r0: float,
                     z: float, tau: float, n: int, seed: int) -> float:
    """Empirical Laplace functional E[exp(-tau I)] of the interference
    (fading included) under the pinned-serving conditioning."""
    r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
    pg = params.p_t * params.g_tot
    return sum(float(np.sum(np.exp(-tau * (pg * interference))))
               for _, interference in _conditioned_interference(
                   params, r0, z, serving, r_field, n, seed)) / n
