"""The full-field block tally: the reference for montecarlo.summary_estimates.

Every block draws every station of every episode's field, of the radius
R_b the engine gives it (`montecarlo._episode_radius`), associates with
`_FieldBlock.serve` over the whole field before the move (the UAV above
the origin) and after it, draws the fading of every station
in range after the move and one coin per episode, and counts coverage as
the indicator SIR > T and (no handover or the coin passes). It draws in
`simulate_episode`'s order, so a one-episode block consumes its stream as
`simulate_episode` does. The tests hold the near-field engine to it: equal
association, handover and void counts where the first disc is the whole
field, agreement within the confidence intervals elsewhere.

Every montecarlo name is looked up on the module at call time, so a test
that patches `montecarlo.episode_rng` or `BLOCK_STATIONS` patches this
tally too.
"""

from __future__ import annotations

import math

import numpy as np

from uavcov import montecarlo as mc
from uavcov.errors import ParameterError
from uavcov.geometry import receiving_radius
from uavcov.model import SystemParams, horizontal_speed


def tally_block(params: SystemParams, episodes: int,
                rng: np.random.Generator):
    """Coverage, handover, LoS, NLoS and void counts of one block."""
    band = params.h_ub - params.h_lb
    z = params.h_lb + band * rng.random((episodes, 2))
    z_pre, z_post = z.T
    rho = rng.rayleigh(1.0 / math.sqrt(2.0 * np.pi * params.mu), episodes)
    theta = np.pi * rng.random(episodes)
    v_h = horizontal_speed(params.v, rho, z_post - z_pre)
    r_m = receiving_radius(z, params.h_b, params.antenna)
    field = mc._FieldBlock(episodes, params.lambda_b, mc._episode_radius(r_m, v_h),
                           rng)

    origin = np.zeros(episodes)
    rows, _, los, _, _, pick = field.serve(origin, origin, z_pre, r_m[:, 0], params)
    association = mc._association_counts(los, pick)
    has_pre = pick >= 0
    pre = np.full(episodes, -1, dtype=np.intp)
    pre[has_pre] = rows[pick[has_pre]]

    bearing = np.zeros(episodes)
    bearing[has_pre] = np.arctan2(field.y[pre[has_pre]], field.x[pre[has_pre]])
    heading = bearing + theta
    rows, sizes, los, gains, _, post = field.serve(v_h * np.cos(heading),
                                                v_h * np.sin(heading), z_post,
                                                r_m[:, 1], params)
    powers = mc._station_fading(los, params, rng)
    powers *= gains
    coin = rng.random(episodes)

    served = np.flatnonzero(post >= 0)
    signal = powers[post[served]]
    interference = mc._segment_sums(powers, sizes)[served] - signal
    sir = np.full(len(served), np.inf)
    np.divide(signal, interference, out=sir, where=interference > 0.0)

    handover = has_pre[served] & (pre[served] != rows[post[served]])
    covered = (sir > params.t_thresh) & (
        ~handover | (coin[served] <= 1.0 - params.kappa))
    return np.count_nonzero(covered), np.count_nonzero(handover), *association


def summary_estimates(params: SystemParams, n: int, seed: int) -> dict:
    """The summary metrics of n episodes, block k of a fixed episode count
    (from the mean station count of the largest field, field_radius)
    drawing from episode_rng(seed, k); keyed like
    montecarlo.summary_estimates."""
    if n < 100:
        raise ParameterError("need at least 100 trials")
    size = mc._block_episodes(
        mc._check_field_budget(params.lambda_b, mc.field_radius(params)))
    counts = np.zeros(len(mc._SUMMARY_KEYS), dtype=np.int64)
    for k in range(-(-n // size)):
        counts += tally_block(params, min(size, n - k * size),
                              mc.episode_rng(seed, k))
    return {key: mc._estimate_from_count(int(c), n, seed)
            for key, c in zip(mc._SUMMARY_KEYS, counts)}
