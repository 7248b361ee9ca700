"""Ground-truth network simulator.

Each episode samples a GBS field, link types, fading and one 3D movement,
then records association, handover, void and coverage events.
`simulate_episode` runs one episode from a given stream and is the
per-episode reference. A field is drawn without trigonometry: a Poisson
count of points uniform in the square [-r, r]^2, x and y from one draw,
keeping those inside the disc of radius r (a PPP of the same intensity on
the disc), then one LoS latent per kept station. Every distance is
sqrt(dx*dx + dy*dy) and every squared height gap a product.

`summary_estimates` runs blocks of a fixed number of episodes, chosen
from the inputs so that a block holds about BLOCK_STATIONS stations (it
counts at most ORIGIN_CANDIDATES per episode, so a block holds
at least 504 episodes, 1893 at the baseline). Block k draws from one
PCG64DXSM stream seeded by SeedSequence([seed, k]), each quantity in one
vector call, and workers get whole blocks, so estimates are bit-identical
regardless of execution order or worker count; the worker pool's module is
imported when a pool is started. A block's stations sit in one array
(episode b owns the rows starts[b] : ends[b]). One path picks the serving
stations: `_FieldBlock.serve` runs link types, gains and the
serving argmax on the stations in range only, compacted in row order, and
returns each pick's metric; `_FieldBlock.settle` calls it, and tests each
pick's metric against the stations outside the disc, until every pick
stands.

The engine simulates the near field only. A block draws, in
order: altitudes, rho and theta, which fix each episode's horizontal speed
v_h and field radius R_b = max(r_m(z_pre), v_h + r_m(z_post)) (1 +
DISC_MARGIN), beyond which no station is in range of either waypoint
(`_episode_radius`); a first disc (square counts, x|y, latents): the
whole field where it holds at most ORIGIN_CANDIDATES stations on average
(R_b <= `_near_radius`, every field at the baseline), else a disc of half
as many; the annulus out to max(2R, R + v_h) (at most R_b) of every
episode whose pick, made v_h from the origin (0 before the move), does
not stand yet on its disc of radius R, round after round; then the
fading of the disc's stations in range after the move, the NLoS law for
every one and then the LoS law written over the LoS rows. Blocks are
sized by the mean count of a disc of radius `_near_radius`, capped at
r_field = r_m(h_ub) + v rather than R_b (16.3 stations at the baseline,
where an episode draws 10.6 on average).

* Near field. A pick stands once no station outside the episode's disc of
  radius R, at least R (before the move, above the origin) or R - v_h
  (after it) from the UAV, can be in range or beat it, bounded by the LoS
  and NLoS laws at that distance (`_stands`). A disc grown this way is a
  stopping set, so the stations outside it are a PPP again, independent
  of those inside (Zuyev, Adv. Appl. Prob. 1999).
* Exterior. Coverage integrates out the serving fading and the stations
  outside the disc that are in range after the move: P(SIR > T | near
  field) is analytic's Nakagami sum exp(g0) sum_{l<m} b_l, with g0 and t_k
  from one quadrature row per episode in the distance from the UAV
  (`_exterior_nodes`) and the near interferers' faded sum I_near adding
  -s I_near to g0 and s I_near to t_1, s = m T / S. Where the disc is the
  episode's field (R = R_b), or R - v_h >= r_m, there is no row: at the
  baseline the first disc is the whole field, so every draw up to the
  fading is the full-field tally's.
* Estimators. Association, handover and void are indicator means;
  coverage is the mean of P(SIR > T | near field) (1 - kappa 1[handover]),
  a conditional Monte Carlo estimate whose Wilson interval from (mean, n)
  is conservative.

The common factor P_t*G_tot multiplies the received power of the serving
GBS and of every interferer alike, so it cancels from the SIR and from the
association argmax; episodes therefore work with the path-loss gains
directly, which makes the transmit-power scale invariance exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _coverage_series, _exponent_terms, _panel_terms, _radial_panel
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
from .quadrature import gauss_nodes

__all__ = [
    "EpisodeOutcome",
    "McEstimate",
    "episode_rng",
    "field_radius",
    "sample_ppp",
    "classify_links",
    "associate",
    "simulate_episode",
    "summary_estimates",
    "wilson_interval",
]

_MASK64 = (1 << 64) - 1
_Z95 = 1.959963984540054
# mean stations per sampled field (on the disc) beyond which an estimator
# refuses to run, before any draw; a block holds at least one whole field,
# some ten float arrays per station, and the square it is drawn from holds
# 4/pi times as many points while the field is built
MAX_MEAN_STATIONS = 1e6
# stations per block, counting one for each episode's own draws, by the
# mean count of a _near_radius disc, capped at field_radius, not at each
# episode's R_b (a baseline block of 1893 episodes draws some 20 000); a
# larger disc is a block of its own. On a 2-core Xeon a block costs some
# 0.2 ms plus about 1.1 us per baseline episode, so at 32768 (1893 baseline
# episodes, 2.3 ms) the fixed cost is a tenth of a block, against 40 % at
# 4096. On one field of r_m(h_ub) + v + 50 m for every episode, the baseline
# sweep ran 42 % faster than at 4096 for 2 MB more peak memory, 16384 35 %
# faster for 1 MB
BLOCK_STATIONS = 1 << 15
# mean stations of the largest field an episode draws whole; a larger
# field starts from a disc of half as many, since the stations outside it
# are integrated exactly (on a 2-core Xeon, omni at 1000/km^2 ran in 0.7
# of the time of a 64-station disc). Blocks count this many per episode
ORIGIN_CANDIDATES = 64
# Gauss nodes in the angle of the exterior's annulus, and in its tail
# beyond (_exterior_nodes), which takes analytic's radial rule. The tail
# needs fewer nodes than analytic.N_X: at 32 the rule's conditional
# coverage misses 4x the nodes by at most 1.4e-6, far below an estimate's
# sampling error, and N_X = 44 made a block of dense omni episodes 3 %
# slower
N_PHI = 40
N_TAIL = 32
# relative margin by which a candidate winner must beat any station outside
# the disc; rounding moves a distance or a gain by some 1e-15
DISC_MARGIN = 1e-9


@dataclass(frozen=True)
class EpisodeOutcome:
    """Events of one simulated movement; associated_pre or _post is None
    at a void waypoint."""

    associated_pre: tuple[int, LinkType, float] | None
    associated_post: tuple[int, LinkType, float] | None
    handover: bool
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


def wilson_interval(successes: float, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ParameterError("need at least one trial")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    hw = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - hw, 0.0), min(center + hw, 1.0)


def _estimate_from_count(successes: float, n: int, seed: int) -> McEstimate:
    """The estimate of a sum of n per-episode values in [0, 1]; for values
    other than 0 and 1 the Wilson interval is conservative, since such a
    variable's variance is at most p (1 - p)."""
    lo, hi = wilson_interval(successes, n)
    return McEstimate(successes / n, lo, hi, n, seed)


def episode_rng(seed: int, index: int) -> np.random.Generator:
    """PCG64DXSM stream for one episode or block, seeded by the pair
    (seed, index) through SeedSequence, independent of all others."""
    return np.random.Generator(np.random.PCG64DXSM(
        np.random.SeedSequence([seed & _MASK64, index & _MASK64])))


def field_radius(params: SystemParams) -> float:
    """r_m(h_ub) + v, the largest field an episode draws (_episode_radius,
    up to its margin): the radius the station budget is checked on, and the
    cap of _near_radius."""
    r_m = receiving_radius(params.h_ub, params.h_b, params.antenna)
    return r_m + params.v


def _episode_radius(r_m, v_h):
    """The field radius of a movement from altitude z_pre above the origin
    to altitude z_post, v_h away, with the receiving radii (r_m(z_pre),
    r_m(z_post)) the last axis of r_m:
    R_b = max(r_m(z_pre), v_h + r_m(z_post)) (1 + DISC_MARGIN). No station beyond it is in range of either waypoint,
    so it can neither serve nor interfere, and a PPP restricted to disjoint
    sets is independent PPPs: dropping those stations leaves every
    estimator's law as it is. The margin keeps rounding from dropping a
    station on the boundary and R_b - v_h >= r_m(z_post) true in floating
    point."""
    return np.maximum(r_m[..., 0], v_h + r_m[..., 1]) * (1.0 + DISC_MARGIN)


def _check_field_budget(lambda_b: float, r_field: float) -> float:
    """The mean station count of a field; rejects, before any draw, one
    above MAX_MEAN_STATIONS (a beamwidth near 180 degrees, a dense network)."""
    mean = lambda_b * np.pi * r_field * r_field
    if not mean <= MAX_MEAN_STATIONS:
        raise ParameterError(
            f"sampling field of radius {r_field:.4g} m holds {mean:.3g} stations "
            f"on average, above the budget of {MAX_MEAN_STATIONS:.0e}")
    return mean


def sample_ppp(lambda_b: float, r_field: float,
               rng: np.random.Generator) -> np.ndarray:
    """Homogeneous PPP restricted to a disc of radius r_field, one (x, y)
    row per station: a Poisson count of points uniform in the square
    [-r_field, r_field]^2, x and y from one draw, keeping the points inside
    the disc."""
    n = rng.poisson(4.0 * lambda_b * r_field * r_field)
    xy = (2.0 * rng.random(2 * n) - 1.0) * r_field
    x, y = xy[:n], xy[n:]
    inside = x * x + y * y <= r_field * r_field
    return np.column_stack([x[inside], y[inside]])


def _distance(x, y, px, py) -> np.ndarray:
    """Horizontal distances sqrt(dx*dx + dy*dy) of the points (x, y) from
    (px, py); every distance of this module, so all round alike."""
    dx = x - px
    dy = y - py
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def classify_links(positions: np.ndarray, uav: Waypoint, env, h_b: float,
                   latent: np.ndarray) -> np.ndarray:
    """LoS marks per GBS, positions one (x, y) row each, as seen from the
    UAV's position, from per-GBS latent uniforms.

    Re-thresholding the same latent draw at both waypoints couples the
    marks of one episode: the marginal LoS probability at each position is
    unchanged, while a GBS seen from the same point keeps the same state
    (no displacement implies no handover, for any seed).
    """
    d = _distance(*positions.T, uav.x, uav.y)
    return latent < los_probability(d, uav.z, env, h_b)


def _pathloss_gains(d: np.ndarray, los: np.ndarray, dz2,
                    params: SystemParams) -> np.ndarray:
    """Path-loss gains at horizontal distances d, with dz2 the squared
    height gap dz * dz, dz = z - h_b; both laws in place: as fast as the
    np.where of both laws, which holds twice as many station-sized arrays
    at once and raises a dense run's peak RSS by about 0.4 MB."""
    ch = params.channel
    d2 = d * d
    d2 += dz2
    out = d2 ** (-0.5 * ch.alpha_l)
    out *= ch.eta_l
    d2 **= -0.5 * ch.alpha_n
    d2 *= ch.eta_n
    np.copyto(out, d2, where=~los)
    return out


def _station_fading(los: np.ndarray, params: SystemParams,
                    rng: np.random.Generator) -> np.ndarray:
    """Nakagami power gains per GBS, shape m_l on LoS and m_n on NLoS links:
    the NLoS law for every station in one scalar-shape draw, then the LoS
    law for the LoS rows, in row order, written over theirs. Index writes:
    a boolean-mask scatter costs dense fields nearly twice as much."""
    out = sample_fading(LinkType.NLOS, params.channel, rng, len(los))
    rows = np.flatnonzero(los)
    out[rows] = sample_fading(LinkType.LOS, params.channel, rng, len(rows))
    return out


def associate(positions: np.ndarray, los: np.ndarray, uav: Waypoint,
              params: SystemParams):
    """Pick the serving GBS of positions (one (x, y) row each) under
    params.policy, or None when no station is in range (void).

    Strongest-average-RSS maximizes the mean received power (the common
    P_t*G_tot factor is omitted; it cannot change the argmax), the nearest
    policy minimizes horizontal distance. Exact metric ties resolve to the
    lowest GBS index.
    """
    d = _distance(*positions.T, uav.x, uav.y)
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


def simulate_episode(params: SystemParams,
                     rng: np.random.Generator) -> EpisodeOutcome:
    """One movement: associate, move, re-associate, score SIR and coverage.

    The draw order is fixed and policy-independent so that episodes with
    the same stream are comparable across association policies.
    """
    band = params.h_ub - params.h_lb
    z = params.h_lb + band * rng.random(2)
    z_pre, z_post = z
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu))
    theta = np.pi * rng.random()
    v_h = horizontal_speed(params.v, rho, z_post - z_pre)
    r_m = receiving_radius(z, params.h_b, params.antenna)
    positions = sample_ppp(params.lambda_b, _episode_radius(r_m, v_h), rng)

    start = Waypoint(0.0, 0.0, z_pre)
    latent = rng.random(len(positions))
    los_pre = classify_links(positions, start, params.env, params.h_b, latent)
    pre = associate(positions, los_pre, start, params)

    if pre is not None:
        sx, sy = positions[pre[0]]
        bearing = np.arctan2(sy, sx)
    else:
        bearing = 0.0
    # numpy's scalar and vector results agree; math's may differ in the last bit
    end = Waypoint(v_h * np.cos(bearing + theta),
                   v_h * np.sin(bearing + theta), z_post)

    los_post = classify_links(positions, end, params.env, params.h_b, latent)
    post = associate(positions, los_post, end, params)

    # fading only for the stations in range, in index order
    d = _distance(*positions.T, end.x, end.y)
    near = np.flatnonzero(d <= r_m[1])
    fading = _station_fading(los_post[near], params, rng)
    coin = rng.random()

    handover = pre is not None and post is not None and pre[0] != post[0]
    sir = None
    covered = False
    if post is not None:
        dz = z_post - params.h_b
        powers = _pathloss_gains(d[near], los_post[near], dz * dz, params) * fading
        signal = powers[np.searchsorted(near, post[0])]
        interference = _segment_sums(powers, [len(near)])[0] - signal
        sir = math.inf if interference <= 0.0 else float(signal / interference)
        covered = sir > params.t_thresh and (
            not handover or coin <= 1.0 - params.kappa)
    return EpisodeOutcome(pre, post, handover, sir, covered)


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


def _segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per segment of values, segment b being the next sizes[b] of them
    (the segments tile values), the sum of its values by one
    np.add.reduceat over the non-empty segments; 0 for an empty one. A
    segment sums the same wherever it sits, so simulate_episode, calling
    this on its one segment, rounds as a block does."""
    out = np.zeros(len(sizes))
    full = np.flatnonzero(sizes)
    if len(full):
        out[full] = np.add.reduceat(values, (np.cumsum(sizes) - sizes)[full])
    return out


def _stands(best: np.ndarray, clearance, r_m, z, params: SystemParams):
    """Whether each episode's pick, of metric best (-inf when there is
    none), stands against every station farther than clearance from the
    UAV at altitude z: none of them can be in range, or the pick beats the
    best metric any of them could have (the larger path_loss of the two
    link types at the clearance, or a distance below it), by DISC_MARGIN."""
    if params.policy is AssociationPolicy.NEAREST:
        outside = -clearance * (1.0 - DISC_MARGIN)
    else:
        outside = (1.0 + DISC_MARGIN) * np.maximum(
            *(path_loss(link, clearance, z, params.channel, params.h_b)
              for link in LinkType))
    return (clearance * (1.0 - DISC_MARGIN) > r_m) | (best > outside)


class _FieldBlock:
    """The fields of a block's episodes in one array: episode b owns the
    stations starts[b] : ends[b], those of the disc of radius radius[b]
    about the origin (radius one value per episode, or one for all). Draws
    the square counts, then x and y of all points in one call, then the LoS
    latents of the kept stations, as sample_ppp and simulate_episode draw
    them for one field."""

    def __init__(self, episodes: int, lambda_b: float, radius,
                 rng: np.random.Generator):
        self.lambda_b = lambda_b
        self.radius = np.full(episodes, radius, dtype=float)
        counts, x, y, r2, half = self._square(self.radius, rng)
        keep = np.flatnonzero(r2 <= half * half)
        self.x, self.y = x.take(keep), y.take(keep)
        self._index(np.diff(np.searchsorted(keep, np.cumsum(counts)), prepend=0))
        self.latent = rng.random(len(keep))

    def _square(self, radius: np.ndarray, rng: np.random.Generator):
        """Counts of the squares [-radius[i], radius[i]]^2, then x, y,
        squared distance from the origin and its square's radius of each
        point: a Poisson count of mean 4 lambda radius[i]^2 per square, then
        x and y of all points in one call, in place (on a dense field a
        fifth faster than fresh products (2u - 1) r and x*x + y*y, same
        values)."""
        counts = rng.poisson(4.0 * self.lambda_b * radius * radius)
        n = int(counts.sum())
        half = np.repeat(radius, counts)
        xy = rng.random(2 * n).reshape(2, n)
        xy *= 2.0
        xy -= 1.0
        xy *= half
        x, y = xy
        r2 = x * x
        r2 += y * y
        return counts, x, y, r2, half

    def _index(self, sizes: np.ndarray) -> None:
        self.sizes = sizes
        self.ends = np.cumsum(sizes)
        self.starts = self.ends - sizes
        self._seg = np.repeat(np.arange(len(sizes)), sizes)

    def grow(self, todo: np.ndarray, reach, limit,
             rng: np.random.Generator) -> None:
        """Adds to each episode in todo the stations of the annulus from its
        disc, of radius R, out to max(2R, R + reach), at most limit (reach
        and limit one value per episode of todo, or one for all; annulus):
        a pick made reach from the origin can stand only once R - reach > 0,
        so one round clears the move. Each episode's new rows follow its old
        ones, so a station keeps its offset within its episode's rows."""
        inner = self.radius[todo]
        outer = np.minimum(np.maximum(2.0 * inner, inner + reach), limit)
        episode, x, y, latent = self.annulus(todo, outer, rng)
        episode = np.concatenate([self._seg, episode])
        order = np.argsort(episode, kind="stable")
        self.x = np.concatenate([self.x, x]).take(order)
        self.y = np.concatenate([self.y, y]).take(order)
        self.latent = np.concatenate([self.latent, latent]).take(order)
        self._index(np.bincount(episode, minlength=len(self.sizes)))
        self.radius[todo] = outer

    def annulus(self, todo: np.ndarray, outer: np.ndarray,
                rng: np.random.Generator):
        """Episode, x, y and latent of the stations between each disc
        in todo and radius outer[i]: square counts, x and y, then the
        latents of the kept stations, each one call for all of todo."""
        inner = self.radius[todo]
        counts, x, y, r2, half = self._square(outer, rng)
        keep = np.flatnonzero((r2 > np.repeat(inner * inner, counts))
                               & (r2 <= half * half))
        return (np.repeat(todo, counts).take(keep), x.take(keep), y.take(keep),
                rng.random(len(keep)))

    def spread(self, per_episode: np.ndarray) -> np.ndarray:
        """One value per station: its episode's."""
        return per_episode[self._seg]

    def compact(self, mask: np.ndarray):
        """The stations where mask holds, in row order, and how many of
        them each episode owns."""
        rows = np.flatnonzero(mask)
        return rows, np.diff(np.searchsorted(rows, self.ends), prepend=0)

    def serve(self, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
              r_m: np.ndarray, params: SystemParams):
        """With each episode's UAV at (wx, wy, z)[b], of receiving radius
        r_m[b]: the rows of the stations in range and how many each episode
        owns, their link types, path-loss gains and pick metrics (the gain,
        or minus the distance under the nearest policy), and each episode's
        serving station as an index into rows (-1 when void);
        classify_links's and associate's operations, on the stations in
        range only."""
        d = _distance(self.x, self.y, self.spread(wx), self.spread(wy))
        rows, sizes = self.compact(d <= self.spread(r_m))
        d = d.take(rows)
        z = z.take(self._seg.take(rows))
        los = self.latent.take(rows) < los_probability(d, z, params.env,
                                                       params.h_b)
        dz = z - params.h_b
        gains = _pathloss_gains(d, los, dz * dz, params)
        metric = -d if params.policy is AssociationPolicy.NEAREST else gains
        serving = _segment_argmax(metric, np.cumsum(sizes) - sizes, sizes)
        return rows, sizes, los, gains, metric, serving

    def settle(self, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
               r_m: np.ndarray, reach: np.ndarray, limit: np.ndarray,
               params: SystemParams, rng: np.random.Generator):
        """serve's result with each episode's UAV at (wx, wy, z)[b], of
        receiving radius r_m[b], reach[b] from the origin, once every pick
        stands: the episodes whose disc is smaller than their field, of
        radius limit[b], and whose pick could still lose to a station
        outside it, at least radius - reach from the UAV (_stands), grow
        their discs (grow) and go round again."""
        while True:
            served = self.serve(wx, wy, z, r_m, params)
            open_ = np.flatnonzero(self.radius < limit)
            if not len(open_):
                return served
            *_, metric, serving = served
            pick = serving[open_]
            won = pick >= 0
            best = np.full(len(open_), -np.inf)
            best[won] = metric[pick[won]]
            clearance = np.maximum(self.radius[open_] - reach[open_], 0.0)
            todo = open_[~_stands(best, clearance, r_m[open_], z[open_], params)]
            if not len(todo):
                return served
            self.grow(todo, reach[todo], limit[todo], rng)


_SUMMARY_KEYS = ("coverage", "handover", "association_los", "association_nlos",
                 "void")


def _association_counts(los: np.ndarray, pick: np.ndarray) -> tuple:
    """Episodes served over LoS, over NLoS, and void, from _FieldBlock.serve's
    link types and picks."""
    won = pick[pick >= 0]
    n_los = np.count_nonzero(los[won])
    return n_los, len(won) - n_los, len(pick) - len(won)


def _near_radius(lambda_b: float, r_field: float) -> float:
    """Radius of a disc of ORIGIN_CANDIDATES stations on average, at most
    the field: an episode whose field R_b fits in it draws the field
    whole, any other a first disc of half its area (_tally_block)."""
    return min(math.sqrt(ORIGIN_CANDIDATES / (math.pi * lambda_b)), r_field)


def _exterior_nodes(radius: np.ndarray, v_h: np.ndarray, z: np.ndarray,
                    r_m: np.ndarray, params: SystemParams, n_x: int = N_TAIL):
    """(rho nodes, weights) of one row per episode over the stations outside
    the disc |p| <= radius[b] in range of a UAV at altitude z[b], of
    receiving radius r_m[b], v_h[b] from the disc's centre, rho being the
    distance from the UAV: the outside is a PPP again (the disc is a
    stopping set), so each node weighs its circle's share outside the disc,
    1 - arccos((rho^2 + v_h^2 - radius^2) / (2 rho v_h)) / pi. The share
    rises from 0 at radius - v_h and reaches 1 at radius + v_h, at each end
    as a square root; rho = lo + (hi - lo)(1 - cos phi) / 2 on N_PHI Gauss
    nodes in phi takes both roots out. Beyond, up to the receiving radius,
    analytic's radial rule of n_x nodes (``_radial_panel``). Needs radius >
    v_h."""
    lo = radius - v_h
    hi = np.minimum(radius + v_h, r_m)
    phi, w_phi = gauss_nodes(0.0, np.pi, N_PHI)
    half = 0.5 * (hi - lo)[:, None]
    rho = lo[:, None] + half * (1.0 - np.cos(phi))
    cos_gap = ((rho * rho + (v_h * v_h - radius * radius)[:, None])
               / np.maximum(2.0 * rho * v_h[:, None], 1e-300))
    share = 1.0 - np.arccos(np.clip(cos_gap, -1.0, 1.0)) / np.pi
    x_tail, w_tail = _radial_panel(hi, r_m, z, params, n_x)
    return (np.concatenate([rho, x_tail], axis=1),
            np.concatenate([half * np.sin(phi) * w_phi * share, w_tail], axis=1))


def _near_coverage(params: SystemParams, serving_los: np.ndarray,
                   signal: np.ndarray, interference: np.ndarray,
                   radius: np.ndarray, v_h: np.ndarray, z: np.ndarray,
                   r_m: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """P(SIR > T | near field) per served episode, the serving fading and
    the stations outside the disc integrated out: signal is the serving
    path-loss gain S, interference the faded sum over the disc's other
    stations in range, I_near. With s = m T / S for the serving shape m,
    the near field adds -s I_near to g0 and s I_near to t_1 of the
    exterior's analytic._exponent_terms on _exterior_nodes (none where the
    disc is the episode's field, radius = limit, or radius - v_h >= r_m, the
    receiving radius at z), and the first m terms of
    analytic._coverage_series add up to the probability."""
    ch = params.channel
    m = np.where(serving_los, ch.m_l, ch.m_n)
    s = m * params.t_thresh / signal
    x = s * interference
    g0 = -x
    order = ch.m_l - 1
    t = [x, *(np.zeros(len(x)) for _ in range(1, order))][:order]
    far = np.flatnonzero(radius < limit)
    if len(far):
        far = far[radius[far] - v_h[far] < r_m[far]]
    if len(far):
        nodes = _exterior_nodes(radius[far], v_h[far], z[far], r_m[far], params)
        terms = _panel_terms(dict.fromkeys(LinkType, nodes), z[far], params)
        g_far, t_far = _exponent_terms(s[far], terms, params, order)
        g0[far] += g_far
        for tk, tk_far in zip(t, t_far):
            tk[far] += tk_far
    # b_l needs t_k for k <= l only, so the NLoS-served rows' first m_n
    # terms are theirs
    terms = _coverage_series(g0, t)
    total = sum(terms[:ch.m_n])
    total += sum(terms[ch.m_n:]) * serving_los
    return np.minimum(total, 1.0, out=total)


def _tally_block(params: SystemParams, episodes: int, near: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Summary sums of one block of episodes drawn from rng, near being
    _near_radius: coverage as the sum of the episodes' conditional
    coverage, then the handover, LoS, NLoS and void counts. Its arrays live
    only in this call, so the next block is drawn without them."""
    band = params.h_ub - params.h_lb
    z = params.h_lb + band * rng.random((episodes, 2))
    z_pre, z_post = z.T
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), episodes)
    theta = np.pi * rng.random(episodes)
    v_h = horizontal_speed(params.v, rho, z_post - z_pre)
    r_m = receiving_radius(z, params.h_b, params.antenna)
    limit = _episode_radius(r_m, v_h)
    # a field of at most ORIGIN_CANDIDATES stations is drawn whole, a
    # larger one from a disc of half as many; near may be r_field, and
    # every R_b is at most r_field (1 + DISC_MARGIN)
    first = np.where(limit <= near * (1.0 + DISC_MARGIN),
                     np.minimum(near, limit), near * math.sqrt(0.5))
    field = _FieldBlock(episodes, params.lambda_b, first, rng)

    origin = np.zeros(episodes)
    rows, _, los, _, _, pick = field.settle(origin, origin, z_pre, r_m[:, 0],
                                            origin, limit, params, rng)
    has_pre = pick >= 0
    pre = rows[pick[has_pre]]
    association = _association_counts(los, pick)

    bearing = np.zeros(episodes)
    bearing[has_pre] = np.arctan2(field.y[pre], field.x[pre])
    heading = bearing + theta
    # the pre-move pick by its offset in its episode's rows, which growing
    # the disc leaves as it is
    offset = np.full(episodes, -1, dtype=np.intp)
    offset[has_pre] = pre - field.starts[has_pre]
    rows, sizes, los, gains, _, post = field.settle(
        v_h * np.cos(heading), v_h * np.sin(heading), z_post, r_m[:, 1], v_h,
        limit, params, rng)
    powers = _station_fading(los, params, rng)
    powers *= gains

    served = np.flatnonzero(post >= 0)
    serving = post[served]
    powers[serving] = 0.0
    interference = _segment_sums(powers, sizes)[served]
    handover = has_pre[served] & (offset[served] != rows[serving] - field.starts[served])
    covered = _near_coverage(params, los[serving], gains[serving], interference,
                             field.radius[served], v_h[served], z_post[served],
                             r_m[served, 1], limit[served])
    covered *= 1.0 - params.kappa * handover
    return np.array([covered.sum(), np.count_nonzero(handover), *association])


def _tally_blocks(args) -> np.ndarray:
    """Summary sums of each of the given blocks of an n-episode run, one
    row per block; block k holds episodes k*size onwards and draws from
    episode_rng(seed, k)."""
    params, seed, n, size, blocks, near = args
    return np.array([_tally_block(params, min(size, n - k * size), near,
                                  episode_rng(seed, k)) for k in blocks]
                    ).reshape(-1, len(_SUMMARY_KEYS))


def summary_estimates(params: SystemParams, n: int, seed: int,
                      workers: int = 1) -> dict:
    """All standard metrics from a single pass over n episodes, keyed like
    the CSV metric column. Coverage is the mean of the episodes'
    conditional coverage (_near_coverage) times 1 - kappa on a handover;
    handover, association and void are indicator means."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_field = field_radius(params)
    _check_field_budget(params.lambda_b, r_field)
    near = _near_radius(params.lambda_b, r_field)
    size = _block_episodes(params.lambda_b * np.pi * near * near)
    blocks = range(-(-n // size))
    if workers <= 1:
        sums = _tally_blocks((params, seed, n, size, blocks, near))
    else:
        # workers get whole blocks, and the per-block sums add up in block
        # order, so the estimates do not depend on them
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-len(blocks) // (4 * workers))
        jobs = [(params, seed, n, size, blocks[i:i + chunk], near)
                for i in range(0, len(blocks), chunk)]
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            sums = np.concatenate(list(pool.map(_tally_blocks, jobs)))
    return {key: _estimate_from_count(float(total), n, seed)
            for key, total in zip(_SUMMARY_KEYS, sums.sum(axis=0))}
