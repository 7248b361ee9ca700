"""Oracles that only the tests run: the static association estimate and
the Monte Carlo experiments conditioned on a pinned serving GBS, and the
analytic marginal integrals built one altitude at a time.

Each draws whole fields with `montecarlo._FieldBlock`, block k of an
n-episode run from episode_rng(seed, k), and picks or drops stations with
the block engine's operations. `association_estimate` picks with
`_FieldBlock.serve`, the UAV above the origin, over the whole field, as
`associate` picks for one field.

The conditioned oracles pin the serving GBS at (r0, 0) and condition by
restriction: a PPP with no point in a region is the PPP on the region's
complement, so each field drops the stations that would beat the pinned
GBS. Their interference fades only the in-range stations that do not beat
it.

Every montecarlo name is looked up on the module at call time, so a test
that patches `montecarlo.episode_rng`, `BLOCK_STATIONS` or `_FieldBlock`
patches these oracles too.

`per_altitude_metrics` computes `analytic._policy_metrics` one altitude
node at a time: one `HeightContext`, serving-process node set, and
handover and coverage call per serving type and node, accumulated node by
node; the engine, which stacks the altitudes, is held to it.
`per_call_same_type_area` and `speed_ratio_nodes_at` are the handover
kernel's set-up done per call and per altitude, which the engine's shared
factors and stacked inversion must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from uavcov import analytic, geometry, model
from uavcov import montecarlo as mc
from uavcov.association import height_context, serving_nodes
from uavcov.errors import ParameterError
from uavcov.geometry import receiving_radius
from uavcov.model import (
    AssociationPolicy,
    LinkType,
    SystemParams,
    horizontal_speed,
    los_probability,
    path_loss,
    sample_fading,
)
from uavcov.quadrature import gauss_nodes


def links(field, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
          params: SystemParams):
    """Distances, link types, in-range mask and path-loss gains of all
    stations of a block with each episode's UAV at (wx, wy, z)[b]; the same
    operations as classify_links and associate."""
    d = mc._distance(field.x, field.y, field.spread(wx), field.spread(wy))
    los = field.latent < los_probability(d, field.spread(z), params.env,
                                         params.h_b)
    in_range = d <= field.spread(receiving_radius(z, params.h_b,
                                                  params.antenna))
    dz = z - params.h_b
    gains = mc._pathloss_gains(d, los, field.spread(dz * dz), params)
    return d, los, in_range, gains


def sums(field, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per episode of a block, the sum of values over its stations where
    mask holds, by _segment_sums."""
    rows, sizes = field.compact(mask)
    return mc._segment_sums(values[rows], sizes)


def _blocks(n: int, seed: int, size: int):
    """(episodes, stream) of each block of an n-episode run: block k holds
    episodes k*size onwards and draws from episode_rng(seed, k)."""
    for k in range(-(-n // size)):
        yield min(size, n - k * size), mc.episode_rng(seed, k)


def association_estimate(params: SystemParams, z: float, n: int, seed: int) -> dict:
    """Static association-type frequencies at a fixed altitude, block k of
    episodes drawing its fields and link types from episode_rng(seed, k)."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    r_field = receiving_radius(z, params.h_b, params.antenna) + 1.0
    size = mc._block_episodes(mc._check_field_budget(params.lambda_b, r_field))
    counts = np.zeros(3, dtype=np.int64)
    for episodes, rng in _blocks(n, seed, size):
        field = mc._FieldBlock(episodes, params.lambda_b, r_field, rng)
        origin = np.zeros(episodes)
        altitude = np.full(episodes, z)
        _, _, los, _, _, pick = field.serve(
            origin, origin, altitude,
            receiving_radius(altitude, params.h_b, params.antenna), params)
        counts += mc._association_counts(los, pick)
    return {key: mc._estimate_from_count(int(c), n, seed)
            for key, c in zip(mc._SUMMARY_KEYS[2:], counts)}


def _beats_pinned(field, wx: np.ndarray, wy: np.ndarray, z: np.ndarray,
                  r0: float, serving: LinkType, params: SystemParams):
    """Which stations of a block associate would pick over the pinned GBS,
    with each episode's UAV at (wx, wy, z)[b]; an out-of-range pinned GBS
    loses to every in-range station. Also the stations' link types,
    in-range mask and path-loss gains there."""
    d, los, in_range, gains = links(field, wx, wy, z, params)
    pinned_d = mc._distance(r0, 0.0, wx, wy)
    if params.policy is AssociationPolicy.NEAREST:
        beats = d < field.spread(pinned_d)
    else:
        dz = z - params.h_b
        pinned = mc._pathloss_gains(pinned_d,
                                    np.full(len(z), serving is LinkType.LOS),
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
    GBS. Fading is drawn for those stations only, in row order."""
    size = mc._block_episodes(mc._check_field_budget(params.lambda_b, r_field))
    for episodes, rng in _blocks(n, seed, size):
        field = mc._FieldBlock(episodes, params.lambda_b, r_field, rng)
        origin = np.zeros(episodes)
        beats, los, in_range, gains = _beats_pinned(
            field, origin, origin, np.full(episodes, z), r0, serving, params)
        rows, sizes = field.compact(in_range & ~beats)
        powers = mc._station_fading(los.take(rows), params, rng)
        powers *= gains.take(rows)
        yield rng, mc._segment_sums(powers, sizes)


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
    r_field = mc.field_radius(params)
    size = mc._block_episodes(mc._check_field_budget(params.lambda_b, r_field))

    handovers = 0
    for episodes, rng in _blocks(n, seed, size):
        z_pre = params.h_lb + band * rng.random(episodes)
        field = mc._FieldBlock(episodes, params.lambda_b, r_field, rng)
        rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), episodes)
        theta = np.pi * rng.random(episodes)
        origin = np.zeros(episodes)
        dropped = _beats_pinned(field, origin, origin, z_pre, r0, serving,
                                params)[0]
        v_h = horizontal_speed(params.v, rho, z_t - z_pre)
        # the pinned GBS sits at bearing zero, the movement at theta to it
        beats = _beats_pinned(field, v_h * np.cos(theta), v_h * np.sin(theta),
                              np.full(episodes, z_t), r0, serving, params)[0]
        handovers += np.count_nonzero(sums(field, beats, ~dropped))

    cov_seed = (seed + 0x9E3779B97F4A7C15) & mc._MASK64
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
        "handover": mc._estimate_from_count(handovers, n, seed),
        "coverage": mc._estimate_from_count(covered, n, cov_seed),
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


def per_altitude_metrics(params: SystemParams, n_z: int, n_r0: int):
    """analytic._PolicyMetrics of params, one altitude node at a time: the
    serving process's nodes of height_context(params, z), a handover call
    per serving type and one coverage call for both."""
    z_nodes, w_z = gauss_nodes(params.h_lb, params.h_ub, n_z)
    w_z = w_z * (1.0 / (params.h_ub - params.h_lb))
    cov1 = dict.fromkeys(LinkType, 0.0)
    cov2 = dict.fromkeys(LinkType, 0.0)
    assoc = dict.fromkeys(LinkType, 0.0)
    handover = void = 0.0
    for z, wz in zip(z_nodes, w_z):
        nodes, void_z = serving_nodes(height_context(params, z),
                                      analytic._ranking_laws(params),
                                      params.lambda_b, n_r0)
        nodes = {link: (r0[0], weight[0]) for link, (r0, weight) in nodes.items()}
        coverage = analytic._coverage_grid(nodes, z, params)
        for link, (r0, weight) in nodes.items():
            stay = analytic._stay_grid(link, r0, z, params)
            p_cov = coverage[link]
            assoc[link] += wz * float(np.sum(weight))
            cov1[link] += wz * float(np.sum(weight * p_cov))
            cov2[link] += wz * float(np.sum(weight * p_cov * stay))
            handover += wz * float(np.sum(weight * (1.0 - stay)))
        void += wz * float(void_z[0])
    return analytic._PolicyMetrics(cov1, cov2, handover, assoc, void)


def per_call_same_type_area(r0, v, theta, r_m):
    """geometry.same_type_lens_complement_area with its move factors built
    inside the call, on broadcastable r0, v and theta, and the r_m cap
    tested on every element once max(r0) + max(v) > r_m: the expression
    the factor-fed form is held to bit for bit."""
    r0, v, theta = (np.asarray(a, dtype=float) for a in (r0, v, theta))
    along, across = v * np.cos(theta), v * np.sin(theta)
    r2 = np.asarray(r0 + along)
    out = np.asarray(np.arctan2(across, r2))
    r2 *= r2
    r2 += across * across
    out *= r2
    out += r0 * (2.0 * along * (np.pi - theta) + across)
    out += v * v * (np.pi - theta)
    if r0.max(initial=0.0) + v.max(initial=0.0) > r_m:
        capped = r2 > r_m * r_m
        if np.any(capped):
            out[capped] = geometry.lens_complement_area(
                x=np.broadcast_to(r0, out.shape)[capped], y=r_m,
                v=np.broadcast_to(v, out.shape)[capped])
    np.maximum(out, 0.0, out=out)
    return float(out) if out.ndim == 0 else out


def speed_ratio_nodes_at(z_t: float, mu: float, h_lb: float, h_ub: float,
                         n: int) -> np.ndarray:
    """model._speed_ratio_nodes' ratios v_h / V at one post-move altitude,
    by a bisection of that altitude alone at the squared Gauss nodes."""
    x, _ = gauss_nodes(0.0, 1.0, n)
    u = x * x
    lo, hi = np.zeros(n), np.ones(n)
    for _ in range(model._BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = model._speed_ratio_cdf(mid, z_t, mu, h_lb, h_ub) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
