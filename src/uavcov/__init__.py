"""Handover and SIR coverage analysis for a 3D-mobile aerial user with a
directional antenna in a Poisson cellular network: numerical evaluation of
the closed-form probabilities plus a Monte Carlo validation simulator."""

from .analytic import (
    CoverageBreakdown,
    HandoverContext,
    conditional_coverage,
    conditional_handover,
    conditional_handover_any,
    coverage_probability,
    laplace_derivatives,
    laplace_interference,
)
from .association import (
    association_probability,
    nearest_any_pdf,
    nearest_type_pdf,
    serving_distance_pdf,
)
from .geometry import (
    displaced_distance,
    equal_power_radius,
    exclusion_radius,
    lens_complement_area,
    receiving_radius,
)
from .model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    EnvironmentParams,
    LinkType,
    OmniAntenna,
    SystemParams,
    Waypoint,
    default_params,
    horizontal_speed,
    linear_from_db,
    los_probability,
    mobility_pdfs,
    path_loss,
    sample_fading,
    uav_mainlobe_gain,
    watts_from_dbm,
)
from .montecarlo import (
    EpisodeOutcome,
    GbsField,
    McEstimate,
    associate,
    classify_links,
    conditioned_oracles,
    episode_rng,
    sample_ppp,
    simulate_episode,
    summary_estimates,
)
from .quadrature import QuadratureSpec, integrate

__version__ = "0.1.0"
