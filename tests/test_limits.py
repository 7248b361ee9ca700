"""Literature anchors: limits in which the engines must reproduce published
closed forms.

Engine agreement cannot see a defect in code that both engines share (the
path-loss law, the LoS probability, the interference Laplace exponent and
the coverage series). These limits tie them to formulas derived outside
this repository.

* SIR coverage in a single-type network (`a` 1e-6, so P_LoS is 1 up to
  1e-6), path-loss exponent 4, Rayleigh fading, no noise: Andrews, Baccelli
  and Ganti (IEEE Trans. Commun. 2011) give
  P = 1 / (1 + sqrt(T) (pi/2 - arctan(1/sqrt(T)))). The UAV flies 0.5-1 m
  above the stations and the omni truncation radius is 100 km, so neither
  the height nor the cut interference shows at this tolerance.
* The handover rate of a horizontal straight move of length v in a
  Poisson-Voronoi tessellation of density lambda: it crosses on average
  (4/pi) sqrt(lambda) v cell boundaries (Moller, Lectures on Random Voronoi
  Tessellations, 1994), so the nearest-GBS handover probability is
  (4/pi) x + O(x^2) at x = v sqrt(lambda) (used for handover rates by Lin,
  Ganti, Fleming and Andrews, IEEE Trans. Wireless Commun. 2013).
"""

import math

import pytest

from uavcov.analytic import coverage_probability
from uavcov.model import BOUNDARY_DEFAULTS, params_from_boundary
from uavcov.montecarlo import summary_estimates

SINGLE_TYPE = {**BOUNDARY_DEFAULTS, "a": 1e-6, "alpha_l": 4.0, "alpha_n": 4.0,
               "m_l": 1, "m_n": 1, "antenna": "omni", "r_max": 100_000.0,
               "h_lb": 30.5, "h_ub": 31.0, "kappa": 0.0}


def abg_coverage(t_db: float) -> float:
    """Coverage of the nearest (strongest) BS at path-loss exponent 4."""
    root = math.sqrt(10.0 ** (t_db / 10.0))
    return 1.0 / (1.0 + root * (math.pi / 2.0 - math.atan(1.0 / root)))


@pytest.mark.parametrize("policy", ["strongest_rss", "nearest"])
@pytest.mark.parametrize("lambda_b", [1.0, 10.0])
@pytest.mark.parametrize("t_db", [-10.0, -3.8, 5.0])
def test_analytic_coverage_is_the_abg_formula(t_db, lambda_b, policy):
    # the largest gap is 2.9e-5: the 32-node serving-distance rule and the
    # P_LoS of 1 - 1e-6
    p = params_from_boundary({**SINGLE_TYPE, "t_thresh": t_db,
                              "lambda_b": lambda_b, "policy": policy})
    assert abs(coverage_probability(p).total - abg_coverage(t_db)) <= 5e-5


@pytest.mark.parametrize("policy", ["strongest_rss", "nearest"])
def test_monte_carlo_coverage_holds_the_abg_formula(policy):
    p = params_from_boundary({**SINGLE_TYPE, "t_thresh": -3.8,
                              "lambda_b": 10.0, "policy": policy})
    got = summary_estimates(p, 20_000, 1)["coverage"]
    assert got.ci_low <= abg_coverage(-3.8) <= got.ci_high, got


def test_handover_rate_is_the_voronoi_crossing_rate():
    # a band 0.1 m thick keeps the move horizontal; the deviation
    # 4/pi - H/x is the O(x) term, 5.6e-3, 6.9e-4 and 2.9e-4 at the three
    # x below, so it falls about 8x over the first decade, and the last
    # step, 4x in x, leaves the rule's own floor
    def deviation(x):
        lam = 10.0                                      # per km^2
        p = params_from_boundary({
            **SINGLE_TYPE, "h_ub": 30.6, "lambda_b": lam, "policy": "nearest",
            "v": x / math.sqrt(lam * 1e-6)})
        return 4.0 / math.pi - coverage_probability(p).handover_prob / x

    coarse, fine, finest = deviation(2e-2), deviation(2e-3), deviation(5e-4)
    assert fine > 0.0 and coarse >= 5.0 * fine
    assert abs(finest) < 5e-4
