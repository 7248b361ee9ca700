import concurrent.futures
import csv
import functools
import io
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

from uavcov import cli
from uavcov.analytic import coverage_probability
from uavcov.cli import (
    BOUNDARY_DEFAULTS,
    CSV_HEADER,
    FIGURE_PRESETS,
    SweepSpec,
    load_config,
    main,
    params_from_boundary,
    rows_to_csv,
    run_sweep,
    validate,
)
from uavcov.errors import ParameterError
from uavcov.model import (
    AssociationPolicy,
    DirectionalAntenna,
    OmniAntenna,
    default_params,
)


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def cut_preset(monkeypatch, preset_id, **changes):
    """Cuts a figure preset's sweep to the one density 100 per km^2, with
    the given SweepSpec changes; returns the preset's variants."""
    spec, variants = FIGURE_PRESETS[preset_id]
    monkeypatch.setitem(FIGURE_PRESETS, preset_id,
                        (replace(spec, values=(100.0,), **changes), variants))
    return variants


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = params_from_boundary(load_config(write_config(tmp_path,
                                                          "# nothing here\n")))
        assert p.lambda_b == pytest.approx(1e-4)
        assert isinstance(p.antenna, DirectionalAntenna)
        assert p.antenna.beamwidth_deg == 120.0
        assert p.t_thresh == pytest.approx(10 ** -0.38)
        assert p.channel.m_l == 3 and p.channel.m_n == 1
        assert p.channel.alpha_l == 2.09 and p.channel.alpha_n == 3.75
        assert p.channel.eta_l == pytest.approx(10 ** -4.11)
        assert p.channel.eta_n == pytest.approx(10 ** -3.29)
        assert p.kappa == 0.3
        assert p.p_t == pytest.approx(10 ** 1.6)
        assert p.env.a == 9.61 and p.env.b == 0.16
        assert p.mu == pytest.approx(3e-4)
        assert (p.h_b, p.h_lb, p.h_ub) == (30.0, 90.0, 150.0)
        assert p.v == 20.0
        assert p.g_b == 1.0
        assert p.policy is AssociationPolicy.STRONGEST_RSS

    def test_no_file_gives_defaults(self):
        assert load_config(None) == BOUNDARY_DEFAULTS

    def test_library_and_cli_share_one_baseline(self):
        assert default_params() == params_from_boundary(load_config(None))

    def test_readme_table_matches_the_defaults(self):
        # the README's "Configuration" table: key(s) | unit | default(s)
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split(
            "\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = re.split(r"(?<!\\)\|", line.strip().strip("|"))
            if len(cells) != 3 or not cells[0].strip().startswith("`"):
                continue
            keys = [k.strip(" `") for k in cells[0].split(",")]
            defaults = [d.strip() for d in cells[2].split(",")]
            assert len(keys) == len(defaults), line
            documented.update(zip(keys, defaults))
        assert documented.keys() == BOUNDARY_DEFAULTS.keys()
        for key, text in documented.items():
            default = BOUNDARY_DEFAULTS[key]
            assert type(default)(text) == default, key

    def test_band_ordering_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="h_lb"):
            load_config(write_config(tmp_path, "h_lb = 200\n"))

    def test_unit_conversion(self, tmp_path):
        values = load_config(write_config(tmp_path, "lambda_b = 50\n"))
        assert values["lambda_b"] == 50.0
        assert params_from_boundary(values).lambda_b == pytest.approx(5e-5)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="frequency"):
            load_config(write_config(tmp_path, "frequency = 2.4\n"))

    def test_omni_selection(self, tmp_path):
        values = load_config(write_config(tmp_path, "antenna = omni\nr_max = 2000\n"))
        assert params_from_boundary(values).antenna == OmniAntenna(2000.0)

    def test_names_are_lower_cased(self, tmp_path):
        values = load_config(write_config(tmp_path,
                                          "antenna = Omni\npolicy = NEAREST\n"))
        assert (values["antenna"], values["policy"]) == ("omni", "nearest")


class TestPointDensity:
    """analytic, simulate and validate evaluate the configured density."""

    def test_sweep_points_evaluate_every_integer_density(self, monkeypatch):
        # a sweep value v per km^2 is evaluated at float(v) / 1e6, as
        # params_from_boundary converts a configured density, in groups of
        # at most DENSITY_GROUP densities
        seen, sizes = [], set()

        def analytic_metrics(points):
            seen.extend(p.lambda_b for p in points)
            sizes.add(len(points))
            return [{}] * len(points)

        monkeypatch.setattr(cli, "_analytic_metrics", analytic_metrics)
        densities = [float(v) for v in range(1, 100_001)]
        spec = SweepSpec(axis="lambda_b", values=tuple(densities),
                         metrics=("void",), engine="analytic")
        run_sweep(spec, load_config(None))
        assert seen == [v / 1e6 for v in densities]
        assert sizes == {cli.DENSITY_GROUP}

    @pytest.mark.parametrize("per_km2", ["30", "100"])
    def test_commands_evaluate_the_configured_density(self, tmp_path,
                                                      monkeypatch, per_km2):
        seen = []

        def analytic_metrics(points):
            seen.extend(p.lambda_b for p in points)
            return [dict.fromkeys(cli.montecarlo._SUMMARY_KEYS, 0.5) for _ in points]

        def summary_estimates(p, n, seed, workers=1):
            seen.append(p.lambda_b)
            est = cli.montecarlo.McEstimate(0.5, 0.49, 0.51, n, seed)
            return dict.fromkeys(cli.montecarlo._SUMMARY_KEYS, est)

        monkeypatch.setattr(cli, "_analytic_metrics", analytic_metrics)
        monkeypatch.setattr(cli.montecarlo, "summary_estimates", summary_estimates)
        cfg = write_config(tmp_path, f"lambda_b = {per_km2}\n")
        out = str(tmp_path / "out")
        for argv in (["analytic"], ["simulate", "--trials", "100"],
                     ["validate", "--trials", "10000"]):
            assert main([*argv, "--config", cfg, "--output", out]) == 0
        # analytic, simulate, then validate's two policies on both engines
        assert seen == [float(per_km2) / 1e6] * 6


class TestRunSweep:
    def test_single_point_both_engines(self):
        spec = SweepSpec(axis="lambda_b", values=(100.0,),
                         metrics=("coverage",), engine="both",
                         trials=500, seed=3)
        rows = run_sweep(spec, load_config(None))
        assert len(rows) == 1
        row = rows[0]
        assert row.analytic is not None and row.mc is not None
        assert row.mc.ci_low <= row.mc.mean <= row.mc.ci_high
        assert (row.mc.n, row.mc.seed) == (500, 3)
        assert row.error == ""

    def test_seed_only_on_monte_carlo_rows(self):
        spec = SweepSpec(axis="lambda_b", values=(100.0,), engine="analytic",
                         seed=3)
        [row] = run_sweep(spec, load_config(None))
        assert row.analytic is not None
        assert row.mc is None

    def test_cardinality(self):
        spec = SweepSpec(axis="lambda_b", values=(10.0, 100.0),
                         metrics=("coverage", "handover"),
                         policies=("strongest_rss", "nearest"),
                         engine="analytic")
        rows = run_sweep(spec, load_config(None))
        assert len(rows) == 2 * 2 * 2  # values x metrics x policies

    def test_association_metric_expands(self):
        spec = SweepSpec(axis="v", values=(20.0,), metrics=("association",),
                         engine="analytic")
        rows = run_sweep(spec, load_config(None))
        assert [r.metric for r in rows] == ["association_los", "association_nlos"]

    def test_reproducible_csv_bytes(self):
        spec = SweepSpec(axis="lambda_b", values=(50.0, 100.0),
                         metrics=("coverage",), engine="mc",
                         trials=1000, seed=7)

        def render(threads):
            buf = io.StringIO()
            rows_to_csv(run_sweep(spec, load_config(None), threads=threads), buf)
            return buf.getvalue()

        first, second = render(1), render(1)
        assert first == second
        assert render(2) == first

    def test_rows_within_unit_interval(self):
        spec = SweepSpec(axis="kappa", values=(0.0, 0.5),
                         metrics=("coverage", "void"), engine="analytic")
        for row in run_sweep(spec, load_config(None)):
            assert 0.0 <= row.analytic <= 1.0

    def test_height_band_axis(self):
        spec = SweepSpec(axis="height_band", values=((90.0, 150.0),),
                         metrics=("void",), engine="analytic")
        rows = run_sweep(spec, load_config(None))
        assert rows[0].analytic == pytest.approx(0.00442, abs=2e-4)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(axis="nonsense", values=(1.0,))
        with pytest.raises(ParameterError):
            SweepSpec(axis="v", values=())
        with pytest.raises(ParameterError):
            SweepSpec(axis="v", values=(1.0,), engine="mc", trials=10)
        with pytest.raises(ParameterError, match="foo"):
            SweepSpec(axis="v", values=(1.0,), policies=("strongest_rss", "foo"))
        with pytest.raises(ParameterError, match="dish"):
            SweepSpec(axis="v", values=(1.0,), antennas=("dish",))


def csv_text(rows) -> str:
    buf = io.StringIO()
    rows_to_csv(rows, buf)
    return buf.getvalue()


class TestDensityGroups:
    """A lambda_b sweep evaluates the densities of one policy and antenna
    together; its CSV cells are those of one-point sweeps."""

    SPEC = SweepSpec(axis="lambda_b", values=cli.LAMBDA_GRID, metrics=cli.METRICS,
                     policies=cli.POLICIES, antennas=cli.ANTENNAS,
                     engine="analytic")

    @pytest.mark.parametrize("changes", [
        {}, {"b": 3.0}, {"h_lb": 40.0, "h_ub": 300.0}, {"v": 0.0},
        {"beamwidth_deg": 170.0}], ids=["baseline", "b3", "band40-300", "v0",
                                        "beam170"])
    def test_cells_match_one_point_sweeps(self, changes):
        values = {**load_config(None), **changes}
        header = ",".join(CSV_HEADER) + "\n"
        alone = [csv_text(run_sweep(replace(self.SPEC, values=(lam,)), values))
                 for lam in self.SPEC.values]
        assert all(text.startswith(header) for text in alone)
        assert csv_text(run_sweep(self.SPEC, values)) == header + "".join(
            text[len(header):] for text in alone)

    def test_a_failing_density_fails_alone(self, monkeypatch):
        # the group raises, so its densities are evaluated one at a time;
        # the failing one's rows carry the error a one-point sweep gives
        coverage_grid = cli.analytic._coverage_grid

        def failing(nodes, z, params):
            if params.lambda_b == 100e-6:
                raise ParameterError("forced failure")
            return coverage_grid(nodes, z, params)

        spec = replace(self.SPEC, values=(10.0, 100.0, 1000.0))
        values = load_config(None)
        clean = run_sweep(spec, values)
        monkeypatch.setattr(cli.analytic, "_coverage_grid", failing)
        monkeypatch.setattr(cli.analytic, "_policy_metrics", functools.lru_cache(
            cli.analytic._policy_metrics.__wrapped__))
        alone = {row.error for row in run_sweep(replace(spec, values=(100.0,)), values)}
        assert alone == {"analytic: forced failure"}
        rows = run_sweep(spec, values)
        assert len(rows) == len(clean)
        for row, want in zip(rows, clean):
            if row.value == 100.0:
                assert (row.analytic, row.error) == (None, "analytic: forced failure")
            else:
                assert csv_text([row]) == csv_text([want])


class TestFigurePresets:
    def test_fig2a_contains_handover_and_two_bands(self):
        spec, variants = FIGURE_PRESETS["fig2a"]
        assert "handover" in spec.metrics
        bands = {(o["h_lb"], o["h_ub"]) for o in variants.values()}
        assert len(bands) == len(variants) == 2

    def test_fig2b_compares_policies(self):
        spec, variants = FIGURE_PRESETS["fig2b"]
        assert len(variants) == 1
        assert set(spec.policies) == {"strongest_rss", "nearest"}

    def test_fig3a_sweeps_beamwidth_with_omni_reference(self):
        spec, variants = FIGURE_PRESETS["fig3a"]
        assert {o["lambda_b"] for o in variants.values()} == {50.0, 100.0, 500.0}
        assert spec.axis == "beamwidth_deg"
        assert "omni" in spec.antennas

    def test_fig3b_varies_kappa(self):
        _, variants = FIGURE_PRESETS["fig3b"]
        assert {o["kappa"] for o in variants.values()} == {0.1, 0.3, 0.5}

    def test_all_presets_run_both_engines(self):
        assert set(FIGURE_PRESETS) == {"fig2a", "fig2b", "fig3a", "fig3b"}
        assert all(spec.engine == "both" for spec, _ in FIGURE_PRESETS.values())

    def test_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "fig9z"])
        assert exit_info.value.code == 2
        assert "fig9z" in capsys.readouterr().err


class TestValidate:
    def test_symmetric_channel_policy_rows_agree(self):
        values = {**load_config(None), "alpha_l": 3.0, "alpha_n": 3.0,
                  "eta_l": -40.0, "eta_n": -40.0, "m_l": 2, "m_n": 2,
                  "kappa": 0.0}
        report = validate(values, 10_000, seed=23)
        by_name = {r.name: r for r in report.rows}
        assert abs(by_name["coverage_strongest"].analytic
                   - by_name["coverage_nearest"].analytic) < 2e-3

    def test_kappa_zero_report(self):
        report = validate({**load_config(None), "kappa": 0.0}, 10_000, seed=24)
        assert report.passed
        assert "coverage_strongest" in report.render()

    def test_minimum_trials(self):
        with pytest.raises(ParameterError):
            validate(load_config(None), 100, seed=1)


class TestCsvOutput:
    def test_header(self):
        buf = io.StringIO()
        rows_to_csv([], buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_HEADER)

    def test_nine_significant_digits(self):
        spec = SweepSpec(axis="v", values=(20.0,), metrics=("void",),
                         engine="analytic")
        buf = io.StringIO()
        rows_to_csv(run_sweep(spec, load_config(None)), buf)
        value = buf.getvalue().splitlines()[1].split(",")[5]
        assert 7 <= len(value.replace(".", "").replace("-", "").lstrip("0")) <= 10

    def test_sweep_bytes_with_stubbed_engines(self, tmp_path, monkeypatch):
        # every cell kind: a tuple value, an expanded metric, both engines'
        # columns, and an error cell (quoted for its comma) on a point whose
        # analytic engine raises while its Monte Carlo rows stay filled
        def analytic_metrics(points):
            [p] = points
            if p.h_lb == 100.0:
                raise ParameterError("bad, point")
            return [{"coverage": 1 / 3, "association_los": 0.123456789012,
                     "association_nlos": 2e-12}]

        def summary_estimates(p, n, seed, workers=1):
            est = cli.montecarlo.McEstimate(0.25, 0.1234567891, 1.0, 400, 11)
            return dict.fromkeys(cli.montecarlo._SUMMARY_KEYS, est)

        monkeypatch.setattr(cli, "_analytic_metrics", analytic_metrics)
        monkeypatch.setattr(cli.montecarlo, "summary_estimates", summary_estimates)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--axis", "height_band", "--values", "90:150,100:110",
                     "--metrics", "coverage,association", "--engine", "both",
                     "--trials", "400", "--seed", "11", "--output", str(out)]) == 0
        assert out.read_text() == (
            "axis,value,metric,policy,antenna,analytic,mc_mean,mc_ci_low,"
            "mc_ci_high,n,seed,error\n"
            "height_band,90-150,coverage,strongest_rss,directional,"
            "0.333333333,0.25,0.123456789,1,400,11,\n"
            "height_band,90-150,association_los,strongest_rss,directional,"
            "0.123456789,0.25,0.123456789,1,400,11,\n"
            "height_band,90-150,association_nlos,strongest_rss,directional,"
            "2e-12,0.25,0.123456789,1,400,11,\n"
            "height_band,100-110,coverage,strongest_rss,directional,"
            ",0.25,0.123456789,1,400,11,\"analytic: bad, point\"\n"
            "height_band,100-110,association_los,strongest_rss,directional,"
            ",0.25,0.123456789,1,400,11,\"analytic: bad, point\"\n"
            "height_band,100-110,association_nlos,strongest_rss,directional,"
            ",0.25,0.123456789,1,400,11,\"analytic: bad, point\"\n")


class TestMainEntry:
    def test_analytic_command(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("v = 10\n")
        code = main(["analytic", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith(",".join(CSV_HEADER))
        assert "coverage" in out

    def test_sweep_command_writes_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--axis", "lambda_b", "--values", "100",
                     "--metrics", "void", "--engine", "analytic",
                     "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith(",".join(CSV_HEADER))

    def test_sweep_high_order_coverage_is_finite(self, tmp_path):
        # a 24-term Nakagami sum at a 30 dB threshold, whose alternating-sign
        # form overflowed on the far omni rows: the scaled sum is finite and
        # inside the Monte Carlo interval (the indicator tally read 0.00000
        # [0, 0.00019] at these episodes and seed)
        out = tmp_path / "rows.csv"
        config = write_config(tmp_path, "m_l = 24\nt_thresh = 30\n")
        code = main(["sweep", "--config", config,
                     "--axis", "lambda_b", "--values", "10", "--antennas", "omni",
                     "--metrics", "coverage", "--engine", "both",
                     "--trials", "20000", "--seed", "3", "--output", str(out)])
        assert code == 0
        [row] = list(csv.DictReader(io.StringIO(out.read_text())))
        assert row["error"] == ""
        assert (float(row["mc_ci_low"]) <= float(row["analytic"])
                <= float(row["mc_ci_high"]))

    @pytest.mark.parametrize("output,written", [
        ("./results/fig2a", "results/fig2a_{}.csv"),
        ("out.v2/fig", "out.v2/fig_{}.csv"),
        ("out.v2/fig.txt", "out.v2/fig_{}.txt"),
    ])
    def test_figure_command_output_paths(self, tmp_path, monkeypatch, capsys,
                                         output, written):
        # the fig2a variants, cut to one directional point each
        variants = cut_preset(monkeypatch, "fig2a", antennas=("directional",))
        monkeypatch.chdir(tmp_path)
        code = main(["figure", "fig2a", "--trials", "100", "--output", output])
        assert code == 0
        log = capsys.readouterr().err
        for label in variants:
            path = written.format(label)
            assert (tmp_path / path).read_text().startswith(",".join(CSV_HEADER))
            assert f"wrote {path}\n" in log

    def test_figure_command_reads_config(self, tmp_path, monkeypatch):
        # the config sets the scenario; the preset's own keys (here the
        # height band) still override it
        variants = cut_preset(monkeypatch, "fig2a", antennas=("directional",),
                              engine="analytic")

        def csv_bytes(name, config_text):
            argv = ["figure", "fig2a", "--output", str(tmp_path / name / "fig")]
            if config_text is not None:
                argv += ["--config", write_config(tmp_path, config_text)]
            assert main(argv) == 0
            return [(tmp_path / name / f"fig_{label}.csv").read_bytes()
                    for label in variants]

        default = csv_bytes("default", None)
        slow = csv_bytes("slow", "v = 5\n")
        assert all(a != b for a, b in zip(default, slow))
        assert csv_bytes("banded", "v = 5\nh_ub = 200\n") == slow

    def test_figure_command_reads_config_once(self, tmp_path, monkeypatch):
        # every variant's overrides apply to the values the command read
        config = write_config(tmp_path, "v = 5\n")
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        monkeypatch.setattr(cli, "run_sweep", lambda spec, values, threads=1: [])
        assert main(["figure", "fig2b", "--trials", "100", "--config", config,
                     "--output", str(tmp_path / "fig")]) == 0
        assert opened.count(config) == 1

    def test_simulate_threads_reach_the_episodes(self, tmp_path, monkeypatch):
        seen = []
        estimates = cli.montecarlo.summary_estimates

        def recording(params, n, seed, workers=1, **kwargs):
            seen.append(workers)
            return estimates(params, n, seed, workers=workers, **kwargs)

        monkeypatch.setattr(cli.montecarlo, "summary_estimates", recording)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            assert main(["simulate", "--trials", "2000", "--seed", "5",
                         "--threads", threads, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert seen == [1, 2]
        assert outputs[0] == outputs[1]

    def test_validate_command_exit_status(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main(["validate", "--trials", "10000", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        assert "overall: PASS" in out.read_text()


class TestAntennaVariants:
    """beamwidth_deg and r_max apply to the variants of their own antenna
    kind, whichever kind the config's antenna selects."""

    def sweep_bytes(self, tmp_path, config_text, antenna):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", write_config(tmp_path, config_text),
                     "--axis", "lambda_b", "--values", "10,100",
                     "--antennas", antenna, "--metrics", "coverage,handover",
                     "--engine", "analytic", "--output", str(out)]) == 0
        return out.read_bytes()

    def test_omni_variant_reads_r_max(self, tmp_path):
        got = self.sweep_bytes(tmp_path, "r_max = 1000\n", "omni")
        assert got == self.sweep_bytes(tmp_path, "antenna = omni\nr_max = 1000\n",
                                       "omni")
        assert got != self.sweep_bytes(tmp_path, "", "omni")

    def test_directional_variant_reads_beamwidth(self, tmp_path):
        got = self.sweep_bytes(tmp_path, "antenna = omni\nbeamwidth_deg = 60\n",
                               "directional")
        assert got == self.sweep_bytes(tmp_path, "beamwidth_deg = 60\n",
                                       "directional")
        assert got != self.sweep_bytes(tmp_path, "", "directional")

    def test_beamwidth_axis_reaches_directional_variant(self, tmp_path):
        def sweep(config_text):
            out = tmp_path / "beam.csv"
            assert main(["sweep", "--config", write_config(tmp_path, config_text),
                         "--axis", "beamwidth_deg", "--values", "60,150",
                         "--metrics", "handover", "--engine", "analytic",
                         "--output", str(out)]) == 0
            rows = csv.DictReader(io.StringIO(out.read_text()))
            return [r["analytic"] for r in rows]

        got = sweep("antenna = omni\n")
        assert got == sweep("") and got[0] != got[1]

    def test_figure_omni_rows_read_r_max(self, tmp_path, monkeypatch):
        variants = cut_preset(monkeypatch, "fig2a", engine="analytic")
        assert main(["figure", "fig2a", "--output", str(tmp_path / "fig"),
                     "--config", write_config(tmp_path, "r_max = 1000\n")]) == 0
        for label, overrides in variants.items():
            text = (tmp_path / f"fig_{label}.csv").read_text()
            rows = {r["metric"]: float(r["analytic"])
                    for r in csv.DictReader(io.StringIO(text))
                    if r["antenna"] == "omni"}
            for r_max, match in ((1000.0, True), (3000.0, False)):
                want = coverage_probability(default_params(
                    antenna=OmniAntenna(r_max), h_lb=overrides["h_lb"],
                    h_ub=overrides["h_ub"]))
                assert (rows == pytest.approx(
                    {"coverage": want.total, "handover": want.handover_prob},
                    rel=1e-8, abs=0.0)) is match


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no pool is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, list(jobs))


# Both pools under the forkserver start method, whose workers import
# uavcov afresh (and set its heap policy) rather than inherit it: a 4-group
# sweep spreads its points over the group pool, simulate its blocks (3 of
# 1893 baseline episodes) over the block pool. Prints whether each command's
# CSV bytes at 2 threads are those at 1.
FORKSERVER = """
import multiprocessing, pathlib, sys
multiprocessing.set_start_method("forkserver")
from uavcov import cli

out = pathlib.Path(sys.argv[1])
for name, args in [
        ("sweep", ["sweep", "--axis", "lambda_b", "--values", "10,100",
                   "--policies", "strongest_rss,nearest",
                   "--metrics", "coverage,handover", "--trials", "500"]),
        ("simulate", ["simulate", "--trials", "4000"])]:
    for threads in ("1", "2"):
        assert cli.main([*args, "--seed", "3", "--threads", threads,
                         "--output", str(out / f"{name}-{threads}.csv")]) == 0
    print(name, (out / f"{name}-1.csv").read_bytes()
          == (out / f"{name}-2.csv").read_bytes())
"""


class TestWorkerPools:
    @pytest.fixture
    def sizes(self, monkeypatch):
        # the pool paths import the executor when they start a pool
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
        return _SerialPool.sizes

    def test_sweep_pool_holds_at_most_one_worker_per_group(self, sizes):
        spec = SweepSpec(axis="lambda_b", values=(50.0, 100.0),
                         metrics=("void",), engine="analytic")
        rows = run_sweep(spec, load_config(None), threads=5000)
        assert sizes == [2]
        assert rows == run_sweep(spec, load_config(None), threads=1)

    def test_episode_pool_holds_at_most_one_worker_per_job(self, params, sizes):
        # with a worker for every job, each job is one block
        blocks = _block_count(params, 4000)
        assert blocks > 1
        got = cli.montecarlo.summary_estimates(params, 4000, 3, workers=5000)
        assert sizes == [blocks]
        assert got == cli.montecarlo.summary_estimates(params, 4000, 3)

    def test_simulate_threads_are_capped(self, tmp_path, sizes):
        out = tmp_path / "rows.csv"
        assert main(["simulate", "--trials", "4000", "--seed", "3",
                     "--threads", "5000", "--output", str(out)]) == 0
        assert sizes == [_block_count(params_from_boundary(load_config(None)), 4000)]

    def test_fresh_import_workers_give_the_same_bytes(self, run_fresh, tmp_path):
        assert run_fresh(FORKSERVER, str(tmp_path)).split() == [
            "sweep", "True", "simulate", "True"]


def _block_count(params, n):
    """The number of blocks summary_estimates runs n episodes in."""
    mc = cli.montecarlo
    near = mc._near_radius(params.lambda_b, mc.field_radius(params))
    size = mc._block_episodes(params.lambda_b * math.pi * near * near)
    return -(-n // size)


class TestUsageErrors:
    """Bad input ends in one `uavcov: error:` line and exit code 2."""

    @pytest.mark.parametrize("config, argv", [
        ("frequency = 3\n", ["analytic"]),
        ("lambda_b = -5\n", ["analytic"]),
        ("m_l = three\n", ["analytic"]),
        (None, ["sweep", "--axis", "lambda_b", "--values", "100",
                "--metrics", "bogus", "--engine", "analytic"]),
        (None, ["validate", "--trials", "100"]),
        (None, ["sweep", "--axis", "height_band", "--values", "100",
                "--engine", "analytic"]),
        (None, ["sweep", "--axis", "lambda_b", "--values", "1e,2",
                "--engine", "analytic"]),
        (None, ["simulate", "--threads", "0"]),
        (None, ["validate", "--threads", "-2"]),
        (None, ["analytic", "--trials", "10"]),
        (None, ["analytic", "--seed", "1"]),
        # paths that cannot be opened, relative to tmp_path
        (None, ["analytic", "--config", "missing.cfg"]),
        (None, ["analytic", "--output", "missing-dir/x.csv"]),
        ("v = 10\n", ["figure", "fig2b", "--output", "scenario.cfg/fig"]),
        # a bad config value is an error even where the sweep overrides it
        ("antenna = dish\n", ["sweep", "--axis", "lambda_b", "--values", "100",
                              "--antennas", "omni", "--engine", "analytic"]),
        ("lambda_b = -5\n", ["sweep", "--axis", "lambda_b", "--values", "100",
                             "--engine", "analytic"]),
    ], ids=["config-key", "config-range", "config-value", "metric",
            "validate-trials", "height-band-value", "lambda-value",
            "threads-zero", "threads-negative", "analytic-trials", "analytic-seed",
            "config-missing", "output-dir-missing", "figure-dir-is-a-file",
            "config-antenna-overridden", "config-density-overridden"])
    def test_reported_as_usage_error(self, tmp_path, monkeypatch, capsys, config,
                                     argv):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines()
                    if line.startswith("uavcov: error: ")]) == 1
