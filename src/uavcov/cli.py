"""Configuration boundary, parameter sweeps, figure presets and validation.

The config file is a flat key=value text file whose keys match the system
parameter names. Boundary units (converted on load, SI/linear inside):

    lambda_b, mu            per km^2
    p_t                     dBm
    g_b, t_thresh,
    eta_l, eta_n            dB
    h_b, h_lb, h_ub, r_max  m
    v                       m/s
    beamwidth_deg           degrees
    alpha_l, alpha_n, a, b, kappa   dimensionless
    m_l, m_n                positive integers
    antenna                 directional | omni
    policy                  strongest_rss | nearest

Sweep results are emitted as UTF-8 CSV with the fixed header
axis,value,metric,policy,antenna,analytic,mc_mean,mc_ci_low,mc_ci_high,n,seed,error
and 9-significant-digit floats, byte-deterministic for a given
(config, spec, seed) regardless of worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field, replace

from . import analytic, montecarlo
from .errors import ParameterError
from .model import (
    AssociationPolicy,
    DirectionalAntenna,
    OmniAntenna,
    SystemParams,
    linear_from_db,
    watts_from_dbm,
)

__all__ = [
    "SweepSpec",
    "ResultRow",
    "FigureVariant",
    "ValidationReport",
    "load_config",
    "params_from_boundary",
    "run_sweep",
    "figure_preset",
    "run_figure",
    "validate",
    "rows_to_csv",
    "main",
]

CSV_HEADER = ("axis", "value", "metric", "policy", "antenna", "analytic",
              "mc_mean", "mc_ci_low", "mc_ci_high", "n", "seed", "error")

BOUNDARY_DEFAULTS = {
    "lambda_b": 100.0,       # per km^2
    "mu": 300.0,             # per km^2
    "p_t": 46.0,             # dBm
    "g_b": 0.0,              # dB
    "t_thresh": -3.8,        # dB
    "eta_l": -41.1,          # dB
    "eta_n": -32.9,          # dB
    "alpha_l": 2.09,
    "alpha_n": 3.75,
    "m_l": 3,
    "m_n": 1,
    "a": 9.61,
    "b": 0.16,
    "h_b": 30.0,
    "h_lb": 90.0,
    "h_ub": 150.0,
    "v": 20.0,
    "kappa": 0.3,
    "antenna": "directional",
    "beamwidth_deg": 120.0,
    "r_max": 3000.0,
    "policy": "strongest_rss",
}

_STRING_KEYS = {"antenna", "policy"}
_INT_KEYS = {"m_l", "m_n"}

SWEEP_AXES = ("lambda_b", "beamwidth_deg", "v", "kappa", "height_band", "t_thresh")
METRICS = ("coverage", "handover", "association", "void")
POLICIES = tuple(p.value for p in AssociationPolicy)
ANTENNAS = ("directional", "omni")
LAMBDA_GRID = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
BEAMWIDTH_GRID = (20.0, 50.0, 80.0, 110.0, 140.0, 170.0)


def params_from_boundary(values: dict) -> SystemParams:
    """Build SystemParams from a complete boundary-unit value dict."""
    from .model import ChannelParams, EnvironmentParams

    antenna_name = values["antenna"].strip().lower()
    if antenna_name == "directional":
        antenna = DirectionalAntenna(float(values["beamwidth_deg"]))
    elif antenna_name == "omni":
        antenna = OmniAntenna(float(values["r_max"]))
    else:
        raise ParameterError(f"unknown antenna '{values['antenna']}'")
    policy_name = values["policy"].strip().lower()
    try:
        policy = AssociationPolicy(policy_name)
    except ValueError:
        raise ParameterError(f"unknown policy '{values['policy']}'") from None
    return SystemParams(
        lambda_b=float(values["lambda_b"]) * 1e-6,
        p_t=watts_from_dbm(float(values["p_t"])),
        g_b=linear_from_db(float(values["g_b"])),
        h_b=float(values["h_b"]),
        h_lb=float(values["h_lb"]),
        h_ub=float(values["h_ub"]),
        mu=float(values["mu"]) * 1e-6,
        v=float(values["v"]),
        kappa=float(values["kappa"]),
        t_thresh=linear_from_db(float(values["t_thresh"])),
        antenna=antenna,
        channel=ChannelParams(
            alpha_l=float(values["alpha_l"]), alpha_n=float(values["alpha_n"]),
            eta_l=linear_from_db(float(values["eta_l"])),
            eta_n=linear_from_db(float(values["eta_n"])),
            m_l=int(values["m_l"]), m_n=int(values["m_n"])),
        env=EnvironmentParams(a=float(values["a"]), b=float(values["b"])),
        policy=policy,
    )


def load_config(path: str | None) -> SystemParams:
    """Parse a flat key=value config file on top of the built-in defaults."""
    return params_from_boundary(_config_values(path))


def _config_values(path: str | None) -> dict:
    """Boundary-unit values of a config file on top of the built-in defaults."""
    values = dict(BOUNDARY_DEFAULTS)
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(
                        f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in BOUNDARY_DEFAULTS:
                    raise ParameterError(f"{path}:{lineno}: unknown config key '{key}'")
                if key in _STRING_KEYS:
                    values[key] = val
                elif key in _INT_KEYS:
                    values[key] = int(val)
                else:
                    values[key] = float(val)
    return values


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis with values, evaluated for the cartesian product
    of metrics, policies and antenna variants."""

    axis: str
    values: tuple
    metrics: tuple = ("coverage",)
    policies: tuple = ("strongest_rss",)
    antennas: tuple = ("directional",)
    engine: str = "both"
    trials: int = 20_000
    seed: int = 1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ParameterError(f"unknown sweep axis '{self.axis}'")
        if not self.values or not self.metrics:
            raise ParameterError("values and metrics must be non-empty")
        for kind, names, known in (("metric", self.metrics, METRICS),
                                   ("policy", self.policies, POLICIES),
                                   ("antenna", self.antennas, ANTENNAS)):
            for name in names:
                if name not in known:
                    raise ParameterError(f"unknown {kind} '{name}'")
        if self.engine not in ("analytic", "mc", "both"):
            raise ParameterError(f"unknown engine '{self.engine}'")
        if self.engine != "analytic" and self.trials < 100:
            raise ParameterError("need at least 100 trials for MC engines")


@dataclass(frozen=True)
class ResultRow:
    axis: str
    value: object
    metric: str
    policy: str
    antenna: str
    analytic: float | None = None
    mc_mean: float | None = None
    mc_ci_low: float | None = None
    mc_ci_high: float | None = None
    n: int | None = None
    seed: int | None = None
    error: str = ""


@dataclass(frozen=True)
class FigureVariant:
    """A labeled sweep belonging to one figure preset."""

    label: str
    spec: SweepSpec
    overrides: dict = dataclass_field(default_factory=dict)


def _apply_axis(params: SystemParams, axis: str, value) -> SystemParams:
    if axis == "lambda_b":
        return params.with_(lambda_b=float(value) * 1e-6)
    if axis == "beamwidth_deg":
        if isinstance(params.antenna, DirectionalAntenna):
            return params.with_(antenna=DirectionalAntenna(float(value)))
        return params  # omni reference curves ignore the beamwidth axis
    if axis == "v":
        return params.with_(v=float(value))
    if axis == "kappa":
        return params.with_(kappa=float(value))
    if axis == "t_thresh":
        return params.with_(t_thresh=linear_from_db(float(value)))
    if axis == "height_band":
        lo, hi = value
        return params.with_(h_lb=float(lo), h_ub=float(hi))
    raise ParameterError(f"unknown sweep axis '{axis}'")


def _apply_antenna(params: SystemParams, name: str) -> SystemParams:
    """The configured antenna when it is of the named kind, else that kind's
    default."""
    kind = DirectionalAntenna if name == "directional" else OmniAntenna
    return params if isinstance(params.antenna, kind) else params.with_(antenna=kind())


def _analytic_metrics(params: SystemParams) -> dict:
    """The analytic value of every CSV metric row, under params.policy."""
    breakdown = analytic.coverage_probability(params)
    return {
        "coverage": breakdown.total,
        "handover": breakdown.handover_prob,
        "void": breakdown.void_prob,
        "association_los": breakdown.association[0],
        "association_nlos": breakdown.association[1],
    }


def _metric_rows_for_spec(metric: str) -> tuple:
    if metric == "association":
        return ("association_los", "association_nlos")
    return (metric,)


def _evaluate_group(args, workers: int = 1) -> list:
    spec, params, value, policy, antenna_name = args
    p = _apply_axis(params, spec.axis, value)
    p = _apply_antenna(p, antenna_name)
    p = p.with_(policy=AssociationPolicy(policy))
    error = ""
    analytic_vals, mc_vals = {}, {}
    if spec.engine in ("analytic", "both"):
        try:
            analytic_vals = _analytic_metrics(p)
        except Exception as exc:  # recorded per row, sweep continues
            error = f"analytic: {exc}"
    if spec.engine in ("mc", "both"):
        try:
            mc_vals = montecarlo.summary_estimates(p, spec.trials, spec.seed,
                                                   workers=workers)
        except Exception as exc:
            error = (error + "; " if error else "") + f"mc: {exc}"
    rows = []
    for metric in spec.metrics:
        for name in _metric_rows_for_spec(metric):
            est = mc_vals.get(name)
            rows.append(ResultRow(
                axis=spec.axis,
                value=value,
                metric=name,
                policy=policy,
                antenna=antenna_name,
                analytic=analytic_vals.get(name),
                mc_mean=est.mean if est else None,
                mc_ci_low=est.ci_low if est else None,
                mc_ci_high=est.ci_high if est else None,
                n=spec.trials if est else None,
                seed=spec.seed,
                error=error,
            ))
    return rows


def run_sweep(spec: SweepSpec, params: SystemParams, threads: int = 1) -> list:
    """Evaluate the sweep; rows come back in deterministic axis order."""
    groups = [(spec, params, value, policy, antenna)
              for value in spec.values
              for policy in spec.policies
              for antenna in spec.antennas]
    if len(groups) == 1:
        # one point: the threads go to its Monte Carlo episodes instead
        per_group = [_evaluate_group(groups[0], workers=threads)]
    elif threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            per_group = list(pool.map(_evaluate_group, groups))
    else:
        per_group = [_evaluate_group(g) for g in groups]
    return [row for rows in per_group for row in rows]


def figure_preset(preset_id: str) -> list:
    """Sweep variants reproducing the headline result figures.

    Returns a list of labeled sweeps because one figure can overlay several
    parameter families (height bands, densities, failure probabilities)
    that the fixed CSV schema cannot encode in a single file.
    """
    if preset_id == "fig2a":
        spec = SweepSpec(axis="lambda_b", values=LAMBDA_GRID,
                         metrics=("coverage", "handover"),
                         policies=("strongest_rss",),
                         antennas=("directional", "omni"), engine="both")
        return [
            FigureVariant("band90-150", spec, {"h_lb": 90.0, "h_ub": 150.0}),
            FigureVariant("band120-180", spec, {"h_lb": 120.0, "h_ub": 180.0}),
        ]
    if preset_id == "fig2b":
        spec = SweepSpec(axis="lambda_b", values=LAMBDA_GRID,
                         metrics=("coverage",),
                         policies=("strongest_rss", "nearest"),
                         antennas=("directional", "omni"), engine="both")
        return [FigureVariant("policies", spec)]
    if preset_id == "fig3a":
        spec = SweepSpec(axis="beamwidth_deg", values=BEAMWIDTH_GRID,
                         metrics=("handover",), policies=("strongest_rss",),
                         antennas=("directional", "omni"), engine="both")
        return [FigureVariant(f"lam{int(lam)}", spec, {"lambda_b": lam})
                for lam in (50.0, 100.0, 500.0)]
    if preset_id == "fig3b":
        spec = SweepSpec(axis="beamwidth_deg", values=BEAMWIDTH_GRID,
                         metrics=("coverage",), policies=("strongest_rss",),
                         antennas=("directional",), engine="both")
        return [FigureVariant(f"lam{int(lam)}_kappa{kappa}", spec,
                              {"lambda_b": lam, "kappa": kappa})
                for lam in (50.0, 100.0, 500.0)
                for kappa in (0.1, 0.3, 0.5)]
    raise ParameterError(f"unknown figure preset '{preset_id}'")


def run_figure(preset_id: str, base, trials: int, seed: int, threads: int = 1,
               config: str | None = None):
    """Run every variant of a figure preset, one CSV per variant.

    Each variant's overrides apply on top of the config file's values (the
    built-in defaults without one). Variant `label` is written next to
    `base` as `<stem>_<label><suffix>`, the suffix defaulting to `.csv`.
    Yields (path, rows) as each file is written.
    """
    values = _config_values(config)
    base = pathlib.Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    suffix = base.suffix or ".csv"
    for variant in figure_preset(preset_id):
        # figure overrides are boundary-unit values
        params = params_from_boundary({**values, **variant.overrides})
        spec = replace(variant.spec, trials=trials, seed=seed)
        rows = run_sweep(spec, params, threads=threads)
        path = base.with_name(f"{base.stem}_{variant.label}{suffix}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            rows_to_csv(rows, fh)
        yield path, rows


def _format(x) -> str:
    """CSV text of one cell: floats with 9 significant digits, tuples (the
    height band) joined by '-', None empty."""
    if x is None:
        return ""
    if isinstance(x, tuple):
        return "-".join(_format(v) for v in x)
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def rows_to_csv(rows, fh) -> None:
    """Write rows with the fixed schema; floats use 9 significant digits."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([_format(getattr(r, name)) for name in CSV_HEADER])


@dataclass(frozen=True)
class ValidationRow:
    name: str
    analytic: float
    mc: montecarlo.McEstimate
    threshold: float

    @property
    def gap(self) -> float:
        return abs(self.analytic - self.mc.mean)

    @property
    def ok(self) -> bool:
        return self.gap <= self.threshold


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple
    trials: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        out = io.StringIO()
        out.write(f"analytic vs Monte Carlo, {self.trials} episodes, "
                  f"seed {self.seed}\n")
        out.write(f"{'quantity':<22}{'analytic':>12}{'mc':>12}{'ci':>22}"
                  f"{'gap':>10}{'limit':>10}  status\n")
        for r in self.rows:
            ci = f"[{r.mc.ci_low:.4f}, {r.mc.ci_high:.4f}]"
            out.write(f"{r.name:<22}{r.analytic:>12.5f}{r.mc.mean:>12.5f}"
                      f"{ci:>22}{r.gap:>10.5f}{r.threshold:>10.5f}"
                      f"  {'ok' if r.ok else 'FAIL'}\n")
        out.write("overall: " + ("PASS" if self.passed else "FAIL") + "\n")
        return out.getvalue()


def validate(params: SystemParams, trials: int, seed: int,
             threads: int = 1) -> ValidationReport:
    """Compare every analytic quantity against its Monte Carlo estimate.

    A row passes when the absolute gap is at most max(0.02, 3 * CI
    half-width). Coverage is checked under both association policies;
    association fractions, void and handover under strongest-average-RSS.
    """
    if trials < 10_000:
        raise ParameterError("validation needs at least 10^4 trials")
    strongest = params.with_(policy=AssociationPolicy.STRONGEST_RSS)
    nearest = params.with_(policy=AssociationPolicy.NEAREST)
    an_s, an_n = _analytic_metrics(strongest), _analytic_metrics(nearest)
    mc_s = montecarlo.summary_estimates(strongest, trials, seed, workers=threads)
    mc_n = montecarlo.summary_estimates(nearest, trials, seed, workers=threads)

    def row(name, key, an=an_s, mc=mc_s):
        est = mc[key]
        return ValidationRow(name, an[key], est, max(0.02, 3.0 * est.half_width))

    rows = (
        row("assoc_los", "association_los"),
        row("assoc_nlos", "association_nlos"),
        row("void", "void"),
        row("handover", "handover"),
        row("coverage_strongest", "coverage"),
        row("coverage_nearest", "coverage", an_n, mc_n),
    )
    return ValidationReport(rows, trials, seed)


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--output", default=None,
                        help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--threads", type=int, default=1)


def _open_output(path):
    """Context manager of the output file, or of stdout without a path."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _single_point_rows(params, engine, trials, seed, threads):
    spec = SweepSpec(axis="lambda_b", values=(params.lambda_b * 1e6,),
                     metrics=METRICS, policies=(params.policy.value,),
                     antennas=("directional" if isinstance(
                         params.antenna, DirectionalAntenna) else "omni",),
                     engine=engine, trials=trials, seed=seed)
    return run_sweep(spec, params, threads=threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uavcov",
        description="handover and coverage probabilities of a 3D-mobile "
                    "aerial user in a Poisson cellular network")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("analytic", "evaluate the closed-form expressions"),
            ("simulate", "Monte Carlo estimates"),
            ("sweep", "sweep a parameter axis"),
            ("figure", "run a figure-reproduction preset"),
            ("validate", "analytic vs Monte Carlo agreement report")]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated axis values "
                                "(height_band: lo:hi pairs)")
            p.add_argument("--metrics", default="coverage",
                           help=f"comma-separated subset of {METRICS}")
            p.add_argument("--policies", default="strongest_rss",
                           help=f"comma-separated subset of {POLICIES}")
            p.add_argument("--antennas", default="directional",
                           help=f"comma-separated subset of {ANTENNAS}")
            p.add_argument("--engine", default="both",
                           choices=("analytic", "mc", "both"))
        if name == "figure":
            p.add_argument("preset", choices=("fig2a", "fig2b", "fig3a", "fig3b"))

    args = parser.parse_args(argv)
    params = load_config(args.config)

    if args.command in ("analytic", "simulate"):
        engine = "analytic" if args.command == "analytic" else "mc"
        rows = _single_point_rows(params, engine, args.trials, args.seed,
                                  args.threads)
        with _open_output(args.output) as fh:
            rows_to_csv(rows, fh)
        return 0

    if args.command == "sweep":
        def parse_value(text):
            if args.axis == "height_band":
                lo, _, hi = text.partition(":")
                return (float(lo), float(hi))
            return float(text)

        spec = SweepSpec(
            axis=args.axis,
            values=tuple(parse_value(v) for v in args.values.split(",")),
            metrics=tuple(args.metrics.split(",")),
            policies=tuple(args.policies.split(",")),
            antennas=tuple(args.antennas.split(",")),
            engine=args.engine, trials=args.trials, seed=args.seed)
        rows = run_sweep(spec, params, threads=args.threads)
        with _open_output(args.output) as fh:
            rows_to_csv(rows, fh)
        return 0

    if args.command == "figure":
        base = args.output or f"{args.preset}.csv"
        for path, _ in run_figure(args.preset, base, args.trials, args.seed,
                                  threads=args.threads, config=args.config):
            print(f"wrote {path}", file=sys.stderr)
        return 0

    if args.command == "validate":
        report = validate(params, args.trials, args.seed, threads=args.threads)
        with _open_output(args.output) as fh:
            fh.write(report.render())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
