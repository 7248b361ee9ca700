"""Planar geometry of the handover analysis.

All radii are horizontal projections: the receiving range, the equal-mean-RSS
radius map between link types, the cross-type exclusion radii, the post-move
serving distance, and the area of the post-move disk not covered by the
pre-move disk (the region whose PPP null probability gives the no-handover
probability): in general, and in closed form for a same-type target, whose
two circles both pass through the serving GBS.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .model import AntennaModel, ChannelParams, DirectionalAntenna, LinkType

__all__ = [
    "receiving_radius",
    "equal_power_radius",
    "exclusion_radius",
    "displaced_distance",
    "lens_complement_area",
    "same_type_lens_complement_area",
]


def receiving_radius(z, h_b: float, antenna: AntennaModel):
    """Horizontal radius of the antenna footprint at altitude z.

    (z - h_b) * tan(beamwidth/2) for the directional cone; the truncation
    radius for the omni model, independent of altitude.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z <= h_b):
        raise GeometryError(f"altitude {z} not above GBS height {h_b}")
    if isinstance(antenna, DirectionalAntenna):
        out = (z - h_b) * np.tan(np.radians(antenna.beamwidth_deg / 2.0))
        return float(out) if out.ndim == 0 else out
    out = np.broadcast_to(antenna.r_max, z.shape).astype(float)
    return float(antenna.r_max) if z.ndim == 0 else out.copy()


def equal_power_radius(serving: LinkType, target: LinkType, x, h_bar: float,
                       ch: ChannelParams):
    """Horizontal radius at which a target-type GBS matches the mean RSS of a
    serving-type GBS at horizontal distance x.

    Identity for same-type pairs. For cross-type pairs solves
    eta_t*(d^2+h^2)^(-a_t/2) = eta_s*(x^2+h^2)^(-a_s/2) for d, clamped to 0
    when no real solution exists (the matching point would be underground).
    """
    x = np.asarray(x, dtype=float)
    if serving is target:
        return float(x) if x.ndim == 0 else x.copy()
    a_s, a_t = ch.alpha(serving), ch.alpha(target)
    e_s, e_t = ch.eta(serving), ch.eta(target)
    h2 = h_bar * h_bar
    radicand = (e_t / e_s) ** (2.0 / a_t) * (x * x + h2) ** (a_s / a_t) - h2
    out = np.sqrt(np.maximum(radicand, 0.0))
    return float(out) if out.ndim == 0 else out


def exclusion_radius(serving: LinkType, r0, h_bar: float, ch: ChannelParams):
    """Minimum distance of the nearest opposite-type GBS given the serving one.

    Under strongest-average-RSS association, a serving-type GBS at r0 implies
    no opposite-type GBS closer than the equal-mean-RSS radius.
    """
    return equal_power_radius(serving, serving.other, r0, h_bar, ch)


def displaced_distance(r0, v_h, theta):
    """Distance to the original serving GBS after moving v_h at angle theta."""
    r0 = np.asarray(r0, dtype=float)
    v_h = np.asarray(v_h, dtype=float)
    out = np.sqrt(r0 * r0 + v_h * v_h + 2.0 * r0 * v_h * np.cos(theta))
    return float(out) if out.ndim == 0 else out


def lens_complement_area(*, x, y, v):
    """Area of disk B not covered by disk A, |B| - |A and B|.

    Disk A of radius x sits at the pre-move point, disk B of radius y at the
    post-move point, their centers v apart; broadcastable arrays or scalars.
    With lens half-angles a, b at the centers of A and B the area is
    y^2 (pi - b) - x^2 a + t/2, t being 4 times the area of the triangle of
    both centers and a crossing point P (Heron). It is summed as
    x^2 g + (y^2 - x^2) c + t/2 with c = pi - b and g = c - a, the angle
    at P between its vectors to the centers. Both angles come from atan2
    of those vectors' cross and dot products, (t, x^2 + y^2 - v^2) for g
    and (t, x^2 - y^2 - v^2) for c, with y^2 - x^2 and the factors of t
    formed from x - y, and x^2 - v^2 from x - v. As v -> 0 with y near x,
    c's weight y^2 - x^2 is O(x v), so the area keeps an error of order
    eps x^2; as y -> 0 with v near x (the post-move disc shrinking onto
    the pre-move circle), c's argument is -y^2 with no squares of size x^2
    cancelling, where the angle amplifies its rounding by 1/t. t = 0
    unless the circles cross, which gives the disjoint (pi*y^2) and A
    inside B (pi*(y^2 - x^2)) limits; B inside A is pinned to exactly 0.
    """
    x, y, v = (np.asarray(a, dtype=float) for a in (x, y, v))
    if np.any(x < 0) or np.any(y < 0) or np.any(v < 0):
        raise GeometryError("radii and separation must be nonnegative")
    gap, y2 = x - y, y * y
    growth = -gap * (x + y)                                   # y^2 - x^2
    shrink = (x - v) * (x + v)                                # x^2 - v^2
    t = np.sqrt(np.maximum((x + y - v) * (x + y + v) * (v + gap) * (v - gap), 0.0))
    out = (x * x * np.arctan2(t, shrink + y2)
           + growth * np.arctan2(t, shrink - y2) + 0.5 * t)
    out = np.where(v + y <= x, 0.0, np.maximum(out, 0.0))
    return float(out) if out.ndim == 0 else out


def same_type_lens_complement_area(r0, v, theta, r_m):
    """lens_complement_area(x=r0, y=min(r_after, r_m), v=v), r_after being
    displaced_distance(r0, v, theta); broadcastable arrays or scalars.

    For a same-type target both circles pass through the serving GBS, so
    the lens half-angles have a closed form: pi - theta at the pre-move
    point and b = theta - d at the post-move one, d = atan2(v sin(theta),
    r0 + v cos(theta)) being the angle the move turns the view of the GBS
    by. The area r_after^2 (pi - b) - r0^2 (pi - theta) + r0 v sin(theta)
    is then summed as d r_after^2 + r0 (2 v cos(theta) (pi - theta) + v
    sin(theta)) + v^2 (pi - theta), r_after^2 taken from d's own arctan2
    arguments; the bracketed factors live on the small theta x v grid, so
    the full grid takes one arctan2 and a few in-place passes. As v -> 0
    every term is O(r0 v) and none of size r0^2 cancels; as theta -> pi the
    terms of size r0 v (pi - theta) cancel to the O((pi - theta)^3) area as
    they do in r0^2 d + (r_after^2 - r0^2)(pi - b) + r0 v sin(theta), so the
    error stays of order eps (r0 + v)^2. Only elements whose post-move disk
    is capped at r_m take the general formula; as r_after <= r0 + v, none
    can be when max(r0) + max(v) <= r_m.
    """
    r0, v, theta = (np.asarray(a, dtype=float) for a in (r0, v, theta))
    along, across = v * np.cos(theta), v * np.sin(theta)
    r2 = np.asarray(r0 + along)
    out = np.asarray(np.arctan2(across, r2))                  # d
    r2 *= r2
    r2 += across * across                                     # r_after^2
    out *= r2
    out += r0 * (2.0 * along * (np.pi - theta) + across)
    out += v * v * (np.pi - theta)
    if r0.max(initial=0.0) + v.max(initial=0.0) > r_m:   # else r_after <= r_m
        capped = r2 > r_m * r_m
        if np.any(capped):
            out[capped] = lens_complement_area(
                x=np.broadcast_to(r0, out.shape)[capped], y=r_m,
                v=np.broadcast_to(v, out.shape)[capped])
    np.maximum(out, 0.0, out=out)
    return float(out) if out.ndim == 0 else out
