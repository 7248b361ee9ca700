"""Configuration boundary, parameter sweeps, figure presets and validation.

The config file is a flat key=value text file whose keys and boundary
units are those of `model.BOUNDARY_DEFAULTS`. `load_config` returns its
values in boundary units; each sweep point puts its axis value, antenna and
policy on top of them and is converted to SI/linear once, by
`model.params_from_boundary`. beamwidth_deg is the directional variants'
beamwidth and r_max the omni variants' truncation radius, whichever kind
`antenna` selects.

Sweep results are emitted as UTF-8 CSV with the fixed header
axis,value,metric,policy,antenna,analytic,mc_mean,mc_ci_low,mc_ci_high,n,seed,error
and 9-significant-digit floats, byte-deterministic for a given
(config, spec, seed) regardless of worker count. The mc_* columns, n and
seed are empty on a row without a Monte Carlo estimate. A sweep with
threads > 1 imports its process pool when it starts one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import pathlib
import sys
from dataclasses import dataclass, replace

from . import analytic, montecarlo
from .errors import ParameterError
from .model import (
    BOUNDARY_DEFAULTS,
    AssociationPolicy,
    params_from_boundary,
)

__all__ = [
    "SweepSpec",
    "ResultRow",
    "ValidationReport",
    "load_config",
    "run_sweep",
    "validate",
    "rows_to_csv",
    "main",
]

CSV_HEADER = ("axis", "value", "metric", "policy", "antenna", "analytic",
              "mc_mean", "mc_ci_low", "mc_ci_high", "n", "seed", "error")
# the CSV_HEADER columns that name an attribute of the row's McEstimate
_MC_CELLS = {"mc_mean": "mean", "mc_ci_low": "ci_low", "mc_ci_high": "ci_high",
             "n": "n", "seed": "seed"}

SWEEP_AXES = ("lambda_b", "beamwidth_deg", "v", "kappa", "height_band", "t_thresh")
METRICS = ("coverage", "handover", "association", "void")
POLICIES = tuple(p.value for p in AssociationPolicy)
ANTENNAS = ("directional", "omni")
LAMBDA_GRID = (10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
# the most densities one analytic evaluation takes: its arrays grow with them
DENSITY_GROUP = 8
BEAMWIDTH_GRID = (20.0, 50.0, 80.0, 110.0, 140.0, 170.0)


def load_config(path: str | None) -> dict:
    """Boundary-unit values of a flat key=value config file on top of the
    built-in defaults, each of its default's type, with lower-case antenna
    and policy names. The whole config is checked once, so a bad value is
    rejected even where a sweep overrides its key."""
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
                try:
                    values[key] = type(BOUNDARY_DEFAULTS[key])(val)
                except ValueError:
                    raise ParameterError(f"{path}:{lineno}: bad value {val!r} "
                                         f"for '{key}'") from None
    values["antenna"] = values["antenna"].lower()
    values["policy"] = values["policy"].lower()
    params_from_boundary(values)
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
    mc: montecarlo.McEstimate | None = None
    error: str = ""


def _analytic_metrics(points: list) -> list:
    """The analytic value of every CSV metric row at each of points, which
    differ in lambda_b alone, under their policy; evaluated together."""
    return [{"coverage": b.total,
             "handover": b.handover_prob,
             "void": b.void_prob,
             "association_los": b.association[0],
             "association_nlos": b.association[1]}
            for b in analytic.coverage_probabilities(points)]


def _analytic_cells(points: list) -> list:
    """Per point, its analytic metrics and its error text. If evaluating
    the points together raises, they are evaluated one at a time, so that
    only a failing point carries an error, worded as in a one-point sweep."""
    try:
        return [(metrics, "") for metrics in _analytic_metrics(points)]
    except Exception as exc:  # recorded per row, sweep continues
        if len(points) == 1:
            return [({}, f"analytic: {exc}")]
    return [cell for p in points for cell in _analytic_cells([p])]


def _metric_rows_for_spec(metric: str) -> tuple:
    if metric == "association":
        return ("association_los", "association_nlos")
    return (metric,)


def _evaluate_group(args, workers: int = 1) -> list:
    """Rows of the points of one group, a list per point: the group's axis
    values under one policy and antenna."""
    spec, values, group, policy, antenna_name = args

    def point(value):
        axis = (dict(zip(("h_lb", "h_ub"), value)) if spec.axis == "height_band"
                else {spec.axis: value})
        return params_from_boundary({**values, **axis, "antenna": antenna_name,
                                     "policy": policy})

    points = [point(value) for value in group]
    cells = ([({}, "")] * len(points) if spec.engine == "mc"
             else _analytic_cells(points))
    out = []
    for value, p, (analytic_vals, error) in zip(group, points, cells):
        mc_vals = {}
        if spec.engine in ("mc", "both"):
            try:
                mc_vals = montecarlo.summary_estimates(p, spec.trials, spec.seed,
                                                       workers=workers)
            except Exception as exc:
                error = (error + "; " if error else "") + f"mc: {exc}"
        out.append([ResultRow(spec.axis, value, name, policy, antenna_name,
                              analytic_vals.get(name), mc_vals.get(name), error)
                    for metric in spec.metrics
                    for name in _metric_rows_for_spec(metric)])
    return out


def run_sweep(spec: SweepSpec, values: dict, threads: int = 1) -> list:
    """Evaluate the sweep on load_config's boundary values, each point's
    axis value, antenna and policy on top of them; rows come back in
    deterministic axis order.

    The points of one policy and antenna on the lambda_b axis form groups
    of up to DENSITY_GROUP consecutive densities, each evaluated together,
    in fewer when that leaves a thread without a group; every other point
    is a group of its own."""
    variants = [(policy, antenna) for policy in spec.policies
                for antenna in spec.antennas]
    size = 1
    if spec.axis == "lambda_b":
        size = max(1, min(DENSITY_GROUP,
                          -(-len(spec.values) * len(variants) // threads)))
    n = len(spec.values)
    groups = [(spec, values, spec.values[i:i + size], policy, antenna)
              for policy, antenna in variants for i in range(0, n, size)]
    if len(groups) == 1:
        # one group: the threads go to its Monte Carlo episodes instead
        per_group = [_evaluate_group(groups[0], workers=threads)]
    elif threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(groups))) as pool:
            per_group = list(pool.map(_evaluate_group, groups))
    else:
        per_group = [_evaluate_group(g) for g in groups]
    # the points' rows come variant by variant, each variant in axis order
    per_point = [rows for point_rows in per_group for rows in point_rows]
    return [row for i in range(n) for v in range(len(variants))
            for row in per_point[v * n + i]]


# figure presets: id -> (sweep, {variant label: boundary-unit overrides}).
# One figure can overlay several parameter families (height bands,
# densities, failure probabilities) that the fixed CSV schema cannot encode
# in one file, so each variant is a sweep of its own
FIGURE_PRESETS = {
    "fig2a": (SweepSpec(axis="lambda_b", values=LAMBDA_GRID,
                        metrics=("coverage", "handover"),
                        antennas=("directional", "omni")),
              {"band90-150": {"h_lb": 90.0, "h_ub": 150.0},
               "band120-180": {"h_lb": 120.0, "h_ub": 180.0}}),
    "fig2b": (SweepSpec(axis="lambda_b", values=LAMBDA_GRID,
                        policies=("strongest_rss", "nearest"),
                        antennas=("directional", "omni")),
              {"policies": {}}),
    "fig3a": (SweepSpec(axis="beamwidth_deg", values=BEAMWIDTH_GRID,
                        metrics=("handover",), antennas=("directional", "omni")),
              {f"lam{int(lam)}": {"lambda_b": lam} for lam in (50.0, 100.0, 500.0)}),
    "fig3b": (SweepSpec(axis="beamwidth_deg", values=BEAMWIDTH_GRID),
              {f"lam{int(lam)}_kappa{kappa}": {"lambda_b": lam, "kappa": kappa}
               for lam in (50.0, 100.0, 500.0) for kappa in (0.1, 0.3, 0.5)}),
}


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
        # an mc cell reads the row's estimate, and is empty without one
        writer.writerow([_format(getattr(r.mc, _MC_CELLS[name], None)
                                 if name in _MC_CELLS else getattr(r, name))
                         for name in CSV_HEADER])


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

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        out = io.StringIO()
        first = self.rows[0].mc
        out.write(f"analytic vs Monte Carlo, {first.n} episodes, "
                  f"seed {first.seed}\n")
        out.write(f"{'quantity':<22}{'analytic':>12}{'mc':>12}{'ci':>22}"
                  f"{'gap':>10}{'limit':>10}  status\n")
        for r in self.rows:
            ci = f"[{r.mc.ci_low:.4f}, {r.mc.ci_high:.4f}]"
            out.write(f"{r.name:<22}{r.analytic:>12.5f}{r.mc.mean:>12.5f}"
                      f"{ci:>22}{r.gap:>10.5f}{r.threshold:>10.5f}"
                      f"  {'ok' if r.ok else 'FAIL'}\n")
        out.write("overall: " + ("PASS" if self.passed else "FAIL") + "\n")
        return out.getvalue()


def validate(values: dict, trials: int, seed: int,
             threads: int = 1) -> ValidationReport:
    """Compare every analytic quantity against its Monte Carlo estimate.

    A row passes when the absolute gap is at most max(0.02, 3 * CI
    half-width). Coverage is checked under both association policies;
    association fractions, void and handover under strongest-average-RSS.
    """
    if trials < 10_000:
        raise ParameterError("validation needs at least 10^4 trials")
    spec = _point_spec(values, policies=POLICIES, trials=trials, seed=seed)
    results = {}
    for r in run_sweep(spec, values, threads=threads):
        if r.error:
            raise ParameterError(r.error)
        results[r.policy, r.metric] = r

    def row(name, metric, policy="strongest_rss"):
        r = results[policy, metric]
        return ValidationRow(name, r.analytic, r.mc, max(0.02, 3.0 * r.mc.half_width))

    rows = (
        row("assoc_los", "association_los"),
        row("assoc_nlos", "association_nlos"),
        row("void", "void"),
        row("handover", "handover"),
        row("coverage_strongest", "coverage"),
        row("coverage_nearest", "coverage", "nearest"),
    )
    return ValidationReport(rows)


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------

def _add_common(parser, episodes: bool):
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--output", default=None,
                        help="output path (default stdout)")
    if episodes:
        parser.add_argument("--seed", type=int, default=SweepSpec.seed)
        parser.add_argument("--trials", type=int, default=SweepSpec.trials)
        parser.add_argument("--threads", type=int, default=1)


def _open_output(path):
    """Context manager of the output file, or of stdout without a path."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _point_spec(values: dict, policies=None, **options) -> SweepSpec:
    """Every metric at the configured density and antenna, under the
    configured policy or the given policies; options (engine, trials, seed)
    go to SweepSpec."""
    return SweepSpec(axis="lambda_b", values=(values["lambda_b"],),
                     metrics=METRICS, policies=policies or (values["policy"],),
                     antennas=(values["antenna"],), **options)


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
        _add_common(p, episodes=name != "analytic")
        if name == "sweep":
            p.add_argument("--axis", required=True, choices=SWEEP_AXES)
            p.add_argument("--values", required=True,
                           help="comma-separated axis values "
                                "(height_band: lo:hi pairs)")
            for option, known in (("metrics", METRICS), ("policies", POLICIES),
                                  ("antennas", ANTENNAS)):
                p.add_argument(f"--{option}",
                               default=",".join(getattr(SweepSpec, option)),
                               help=f"comma-separated subset of {known}")
            p.add_argument("--engine", default=SweepSpec.engine,
                           choices=("analytic", "mc", "both"))
        if name == "figure":
            p.add_argument("preset", choices=list(FIGURE_PRESETS))

    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")
    try:
        return _run(args)
    except (ParameterError, OSError) as exc:
        # bad input, or a config or output path that cannot be opened
        parser.error(str(exc))


def _run(args) -> int:
    """Runs the parsed command; its exit code."""
    values = load_config(args.config)

    if args.command in ("analytic", "simulate", "sweep"):
        if args.command == "analytic":
            spec = _point_spec(values, engine="analytic")
        elif args.command == "simulate":
            spec = _point_spec(values, engine="mc", trials=args.trials,
                               seed=args.seed)
        else:
            def parse_value(text):
                try:
                    if args.axis == "height_band":
                        lo, _, hi = text.partition(":")
                        return (float(lo), float(hi))
                    return float(text)
                except ValueError:
                    raise ParameterError(f"malformed --values entry '{text}'") from None

            spec = SweepSpec(
                axis=args.axis,
                values=tuple(parse_value(v) for v in args.values.split(",")),
                metrics=tuple(args.metrics.split(",")),
                policies=tuple(args.policies.split(",")),
                antennas=tuple(args.antennas.split(",")),
                engine=args.engine, trials=args.trials, seed=args.seed)
        rows = run_sweep(spec, values, threads=getattr(args, "threads", 1))
        with _open_output(args.output) as fh:
            rows_to_csv(rows, fh)
        return 0

    if args.command == "figure":
        # variant <label> goes next to the output as <stem>_<label><suffix>
        base = pathlib.Path(args.output or f"{args.preset}.csv")
        base.parent.mkdir(parents=True, exist_ok=True)
        spec, variants = FIGURE_PRESETS[args.preset]
        spec = replace(spec, trials=args.trials, seed=args.seed)
        for label, overrides in variants.items():
            # figure overrides are boundary-unit values
            rows = run_sweep(spec, {**values, **overrides}, threads=args.threads)
            path = base.with_name(f"{base.stem}_{label}{base.suffix or '.csv'}")
            with _open_output(path) as fh:
                rows_to_csv(rows, fh)
            print(f"wrote {path}", file=sys.stderr)
        return 0

    if args.command == "validate":
        report = validate(values, args.trials, args.seed, threads=args.threads)
        with _open_output(args.output) as fh:
            fh.write(report.render())
        return 0 if report.passed else 1

    raise AssertionError(f"unhandled command {args.command}")
