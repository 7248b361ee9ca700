"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and values. AC-2 encodes a quantitative claim about the omni vs
directional handover gap at the baseline density that this model does not
reproduce: the closed form and the independent simulator agree with each
other that the gap there is below 0.01. The handover region is set by the
equal-power disks around the serving GBS (radius ~ the 47 m serving
distance) and the per-second displacement, so the receiving radius only
matters once it is comparable to those scales; the claimed reduction is
real in sparse networks (measured gap ~0.18 at 10 per km^2, where the far
serving GBS has a volatile link type and the omni user always has an
in-range competitor) but has vanished by 100 per km^2. The criterion is
kept as stated rather than weakened.
"""

import io
import math
import time

import numpy as np
import pytest

from uavcov.analytic import (
    _policy_metrics,
    coverage_probability,
    coverage_drift_events,
    reset_coverage_drift_counter,
)
from uavcov.association import height_context
from uavcov.cli import SweepSpec, load_config, rows_to_csv, run_sweep, validate
from uavcov.geometry import equal_power_radius, exclusion_radius, lens_complement_area
from uavcov.model import (
    AssociationPolicy,
    ChannelParams,
    DirectionalAntenna,
    LinkType,
    default_params,
)
from uavcov.montecarlo import summary_estimates

from quadpack import (
    QuadratureSpec,
    integrate,
    nearest_any_pdf,
    nearest_type_pdf,
    serving_distance_pdf,
)
from test_analytic import OMNI, _tau_threshold, laplace_derivatives, laplace_interference
from test_geometry import lens_complement_by_slicing

SEED = 20260809
TRIALS = 100_000


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    return ok


def test_ac1_oracle_agreement():
    """AC-1: |analytic - MC| <= max(0.02, 3*CI half-width) at baseline."""
    start = time.time()
    # baseline scenario, V = 20 m/s
    rep = validate(load_config(None), TRIALS, seed=SEED, threads=2)
    elapsed = time.time() - start
    lines = ", ".join(f"{r.name} gap {r.gap:.4f}<=:{r.threshold:.4f}"
                      for r in rep.rows)
    widths_ok = all(r.mc.ci_high - r.mc.ci_low < 0.01 for r in rep.rows)
    ok = rep.passed and widths_ok and elapsed <= 600.0
    assert report("AC-1", ok, f"{lines}; CI widths < 0.01: {widths_ok}; "
                              f"runtime {elapsed:.0f}s <= 600s"), rep.render()


@pytest.mark.slow
def test_ac2_handover_gap_directional_vs_omni():
    """AC-2: handover(omni) - handover(directional 120) > 0.1 at 100/km^2,
    analytic and MC both."""
    params = default_params()
    omni = params.with_(antenna=OMNI)
    analytic_gap = (coverage_probability(omni).handover_prob
                    - coverage_probability(params).handover_prob)
    mc_dir = summary_estimates(params, 30_000, SEED, workers=2)["handover"]
    mc_omni = summary_estimates(omni, 30_000, SEED, workers=2)["handover"]
    mc_gap = mc_omni.mean - mc_dir.mean
    ok = analytic_gap > 0.1 and mc_gap > 0.1
    assert report(
        "AC-2", ok,
        f"analytic gap {analytic_gap:.4f}, mc gap {mc_gap:.4f} "
        f"(needs > 0.1; both engines agree the gap at this density is two "
        f"orders smaller -- the mechanism only exists in sparse networks "
        f"where the serving link type is volatile, see the module docstring)")


def test_ac3_optimal_density_interior():
    """AC-3: strongest-RSS coverage attains an interior maximum in density."""
    params = default_params()
    grid = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
    cov = [coverage_probability(params.with_(lambda_b=g * 1e-6)).total
           for g in grid]
    argmax = int(np.argmax(cov))
    ok = 0 < argmax < len(grid) - 1
    assert report("AC-3", ok,
                  "coverage " + " ".join(f"{c:.3f}" for c in cov)
                  + f"; argmax at {grid[argmax]:g}/km^2")


def test_ac4_sparse_network_crossover():
    """AC-4: directional worse than omni at 10/km^2, better at 100/km^2."""
    params = default_params()
    vals = {}
    for lam in (10.0, 100.0):
        p = params.with_(lambda_b=lam * 1e-6)
        vals[lam] = (coverage_probability(p).total,
                     coverage_probability(p.with_(antenna=OMNI)).total)
    ok = vals[10.0][0] < vals[10.0][1] and vals[100.0][0] > vals[100.0][1]
    assert report(
        "AC-4", ok,
        f"lam=10: dir {vals[10.0][0]:.3f} < omni {vals[10.0][1]:.3f}; "
        f"lam=100: dir {vals[100.0][0]:.3f} > omni {vals[100.0][1]:.3f}")


def test_ac5_beamwidth_handover_saturation():
    """AC-5: handover non-decreasing in beamwidth, flat by 150 degrees."""
    params = default_params()
    grid = (20.0, 50.0, 80.0, 110.0, 140.0, 150.0, 160.0, 170.0)
    ho = {bw: coverage_probability(
        params.with_(antenna=DirectionalAntenna(bw))).handover_prob
        for bw in grid}
    vals = [ho[bw] for bw in grid]
    ok = (all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
          and abs(ho[170.0] - ho[150.0]) < 0.02)
    assert report("AC-5", ok,
                  "handover " + " ".join(f"{v:.4f}" for v in vals)
                  + f"; |P(170)-P(150)| = {abs(ho[170.0] - ho[150.0]):.4f}")


def test_ac6_beamwidth_coverage_peak():
    """AC-6: interior coverage maximum in beamwidth; optimum shrinks with
    density."""
    params = default_params()
    grid = (20.0, 50.0, 80.0, 110.0, 140.0, 170.0)
    argmaxes = {}
    details = []
    for lam in (50.0, 500.0):
        cov = [coverage_probability(
            params.with_(lambda_b=lam * 1e-6,
                         antenna=DirectionalAntenna(bw))).total
            for bw in grid]
        idx = int(np.argmax(cov))
        argmaxes[lam] = idx
        details.append(f"lam={lam:g}: argmax {grid[idx]:g} deg "
                       + " ".join(f"{c:.3f}" for c in cov))
        assert 0 < idx < len(grid) - 1, f"no interior maximum: {cov}"
    ok = argmaxes[500.0] <= argmaxes[50.0]
    assert report("AC-6", ok, "; ".join(details))


def test_ac7_policy_gap_shrinks_with_density():
    """AC-7: the strongest-RSS advantage over nearest narrows as the
    network densifies (omni antenna)."""
    params = default_params().with_(antenna=OMNI)
    gaps = {}
    for lam in (50.0, 1000.0):
        p = params.with_(lambda_b=lam * 1e-6)
        gaps[lam] = (coverage_probability(p).total
                     - coverage_probability(
                         p.with_(policy=AssociationPolicy.NEAREST)).total)
    ok = gaps[1000.0] < gaps[50.0]
    assert report("AC-7", ok,
                  f"gap at 50/km^2 {gaps[50.0]:.5f}, at 1000/km^2 "
                  f"{gaps[1000.0]:.5f}")


def test_ac8_property_suite():
    """AC-8: the numerical property suite, within a five-minute budget."""
    start = time.time()
    params = default_params()
    tight = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_depth=14)
    checks = []

    # lens-complement area vs independent slicing oracle, 200 disk pairs
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        x = rng.uniform(0.5, 100.0)
        y = rng.uniform(0.5, 100.0)
        v = rng.uniform(0.0, 1.5 * (x + y))
        got = lens_complement_area(x=x, y=y, v=v)
        if v + y <= x:
            ok = got == 0.0
        elif v >= x + y:
            ok = abs(got - math.pi * y * y) <= 1e-9 * y * y
        else:
            oracle = lens_complement_by_slicing(x, y, v)
            ok = abs(got - oracle) <= 0.01 * max(oracle, 1e-9)
            worst = max(worst, abs(got - oracle) / max(oracle, 1e-9))
        assert ok, (x, y, v, got)
    checks.append(f"lens oracle worst rel err {worst:.2e}")

    # Laplace-derivative finite differences
    tau0 = _tau_threshold(LinkType.LOS, 50.0, 120.0, params)
    for tau in tau0 * np.linspace(0.4, 2.5, 5):
        ders = laplace_derivatives(tau, LinkType.LOS, 50.0, 120.0, params, 2)
        h = tau * 1e-4
        lp = laplace_interference(tau + h, LinkType.LOS, 50.0, 120.0, params)
        l0 = laplace_interference(tau, LinkType.LOS, 50.0, 120.0, params)
        lm = laplace_interference(tau - h, LinkType.LOS, 50.0, 120.0, params)
        assert abs((lp - lm) / (2 * h) - ders[1]) <= 1e-3 * abs(ders[1])
        assert abs((lp - 2 * l0 + lm) / (h * h) - ders[2]) <= 5e-3 * abs(ders[2])
    checks.append("laplace FD ok")

    # PDF normalizations
    ctx = height_context(params, 120.0)
    for link in LinkType:
        val = integrate(lambda r: serving_distance_pdf(link, r, 120.0, params),
                        0.0, ctx.r_m, tight)
        assert abs(val - 1.0) <= 1e-5
        val = integrate(lambda r: nearest_type_pdf(link, r, 120.0, params),
                        0.0, np.inf, tight)
        assert abs(val - 1.0) <= 1e-5
    val = integrate(lambda r: nearest_any_pdf(r, params), 0.0, np.inf, tight)
    assert abs(val - 1.0) <= 1e-5
    checks.append("pdf normalizations ok")

    # affinity in kappa
    lo = coverage_probability(params.with_(kappa=0.0)).total
    hi = coverage_probability(params.with_(kappa=1.0)).total
    mid = coverage_probability(params.with_(kappa=0.5)).total
    assert abs(mid - 0.5 * (lo + hi)) <= 1e-6
    checks.append("kappa affinity ok")

    # transmit-power / GBS-gain scale invariance
    base = coverage_probability(params)
    scaled = coverage_probability(
        params.with_(p_t=params.p_t * 10.0, g_b=params.g_b * 100.0))
    assert abs(scaled.total - base.total) <= 1e-9 * base.total
    assert abs(scaled.handover_prob - base.handover_prob) <= (
        1e-9 * base.handover_prob)
    checks.append("scale invariance ok")

    # symmetric-channel policy equivalence (kappa=0; see decisions ledger)
    sym = params.with_(channel=ChannelParams(alpha_l=3.0, alpha_n=3.0,
                                             eta_l=1e-4, eta_n=1e-4,
                                             m_l=2, m_n=2), kappa=0.0)
    diff = abs(coverage_probability(sym).total
               - coverage_probability(
                   sym.with_(policy=AssociationPolicy.NEAREST)).total)
    assert diff <= 2e-3
    checks.append(f"policy equivalence diff {diff:.1e}")

    # substitute-back identities for the equal-power and exclusion radii
    ch = params.channel
    h_bar = 90.0
    for r0 in (20.0, 60.0, 120.0):
        d = equal_power_radius(LinkType.NLOS, LinkType.LOS, r0, h_bar, ch)
        lhs = ch.eta_l * (d * d + h_bar**2) ** (-ch.alpha_l / 2)
        rhs = ch.eta_n * (r0 * r0 + h_bar**2) ** (-ch.alpha_n / 2)
        assert abs(lhs - rhs) <= 1e-9 * rhs
        rho = exclusion_radius(LinkType.NLOS, r0, h_bar, ch)
        assert rho == d
    checks.append("substitute-back ok")

    # clamp drift stays quiet at the baseline; the cache is cleared so
    # that the evaluation runs, and counts, rather than hitting the cache
    _policy_metrics.cache_clear()
    reset_coverage_drift_counter()
    coverage_probability(params)
    assert coverage_drift_events() == 0

    elapsed = time.time() - start
    ok = elapsed <= 300.0
    assert report("AC-8", ok, "; ".join(checks) + f"; runtime {elapsed:.0f}s")


def test_ac9_reproducibility():
    """AC-9: sweep output is byte-identical across runs and thread counts."""
    spec = SweepSpec(axis="lambda_b", values=(50.0, 100.0),
                     metrics=("coverage", "handover"), engine="both",
                     trials=2000, seed=SEED)

    def render(threads):
        buf = io.StringIO()
        rows_to_csv(run_sweep(spec, load_config(None), threads=threads), buf)
        return buf.getvalue().encode("utf-8")

    once, again, parallel = render(1), render(1), render(2)
    ok = once == again == parallel
    assert report("AC-9", ok, f"{len(once)} bytes, identical across runs "
                              f"and thread counts: {ok}")
