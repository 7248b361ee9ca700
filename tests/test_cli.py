import io
from dataclasses import replace

import pytest

from uavcov import cli
from uavcov.cli import (
    BOUNDARY_DEFAULTS,
    CSV_HEADER,
    SweepSpec,
    figure_preset,
    load_config,
    main,
    params_from_boundary,
    rows_to_csv,
    run_sweep,
    validate,
)
from uavcov.errors import ParameterError
from uavcov.model import AssociationPolicy, ChannelParams, DirectionalAntenna


def write_config(tmp_path, text):
    path = tmp_path / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = load_config(write_config(tmp_path, "# nothing here\n"))
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
        assert load_config(None) == params_from_boundary(BOUNDARY_DEFAULTS)

    def test_band_ordering_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="h_lb"):
            load_config(write_config(tmp_path, "h_lb = 200\n"))

    def test_unit_conversion(self, tmp_path):
        p = load_config(write_config(tmp_path, "lambda_b = 50\n"))
        assert p.lambda_b == pytest.approx(5e-5)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="frequency"):
            load_config(write_config(tmp_path, "frequency = 2.4\n"))

    def test_omni_selection(self, tmp_path):
        p = load_config(write_config(tmp_path, "antenna = omni\nr_max = 2000\n"))
        assert p.antenna.r_max == 2000.0


class TestRunSweep:
    def test_single_point_both_engines(self, params):
        spec = SweepSpec(axis="lambda_b", values=(100.0,),
                         metrics=("coverage",), engine="both",
                         trials=500, seed=3)
        rows = run_sweep(spec, params)
        assert len(rows) == 1
        row = rows[0]
        assert row.analytic is not None and row.mc_mean is not None
        assert row.mc_ci_low <= row.mc_mean <= row.mc_ci_high
        assert row.error == ""

    def test_cardinality(self, params):
        spec = SweepSpec(axis="lambda_b", values=(10.0, 100.0),
                         metrics=("coverage", "handover"),
                         policies=("strongest_rss", "nearest"),
                         engine="analytic")
        rows = run_sweep(spec, params)
        assert len(rows) == 2 * 2 * 2  # values x metrics x policies

    def test_association_metric_expands(self, params):
        spec = SweepSpec(axis="v", values=(20.0,), metrics=("association",),
                         engine="analytic")
        rows = run_sweep(spec, params)
        assert [r.metric for r in rows] == ["association_los", "association_nlos"]

    def test_reproducible_csv_bytes(self, params):
        spec = SweepSpec(axis="lambda_b", values=(50.0, 100.0),
                         metrics=("coverage",), engine="mc",
                         trials=1000, seed=7)

        def render(threads):
            buf = io.StringIO()
            rows_to_csv(run_sweep(spec, params, threads=threads), buf)
            return buf.getvalue()

        first, second = render(1), render(1)
        assert first == second
        assert render(2) == first

    def test_rows_within_unit_interval(self, params):
        spec = SweepSpec(axis="kappa", values=(0.0, 0.5),
                         metrics=("coverage", "void"), engine="analytic")
        for row in run_sweep(spec, params):
            assert 0.0 <= row.analytic <= 1.0

    def test_height_band_axis(self, params):
        spec = SweepSpec(axis="height_band", values=((90.0, 150.0),),
                         metrics=("void",), engine="analytic")
        rows = run_sweep(spec, params)
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


class TestFigurePresets:
    def test_fig2a_contains_handover_and_two_bands(self):
        variants = figure_preset("fig2a")
        assert len(variants) == 2
        assert all("handover" in v.spec.metrics for v in variants)
        bands = {(v.overrides["h_lb"], v.overrides["h_ub"]) for v in variants}
        assert len(bands) == 2

    def test_fig2b_compares_policies(self):
        (variant,) = figure_preset("fig2b")
        assert set(variant.spec.policies) == {"strongest_rss", "nearest"}

    def test_fig3a_sweeps_beamwidth_with_omni_reference(self):
        variants = figure_preset("fig3a")
        assert {v.overrides["lambda_b"] for v in variants} == {50.0, 100.0, 500.0}
        for v in variants:
            assert v.spec.axis == "beamwidth_deg"
            assert "omni" in v.spec.antennas

    def test_fig3b_varies_kappa(self):
        variants = figure_preset("fig3b")
        assert {v.overrides["kappa"] for v in variants} == {0.1, 0.3, 0.5}

    def test_all_presets_run_both_engines(self):
        for preset in ("fig2a", "fig2b", "fig3a", "fig3b"):
            assert all(v.spec.engine == "both" for v in figure_preset(preset))

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            figure_preset("fig9z")


class TestValidate:
    def test_symmetric_channel_policy_rows_agree(self, params):
        p = params.with_(
            channel=ChannelParams(alpha_l=3.0, alpha_n=3.0, eta_l=1e-4,
                                  eta_n=1e-4, m_l=2, m_n=2),
            kappa=0.0)
        report = validate(p, 10_000, seed=23)
        by_name = {r.name: r for r in report.rows}
        assert abs(by_name["coverage_strongest"].analytic
                   - by_name["coverage_nearest"].analytic) < 2e-3

    def test_kappa_zero_report(self, params):
        report = validate(params.with_(kappa=0.0), 10_000, seed=24)
        assert report.passed
        assert "coverage_strongest" in report.render()

    def test_minimum_trials(self, params):
        with pytest.raises(ParameterError):
            validate(params, 100, seed=1)


class TestCsvOutput:
    def test_header(self):
        buf = io.StringIO()
        rows_to_csv([], buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_HEADER)

    def test_nine_significant_digits(self, params):
        spec = SweepSpec(axis="v", values=(20.0,), metrics=("void",),
                         engine="analytic")
        buf = io.StringIO()
        rows_to_csv(run_sweep(spec, params), buf)
        value = buf.getvalue().splitlines()[1].split(",")[5]
        assert 7 <= len(value.replace(".", "").replace("-", "").lstrip("0")) <= 10


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

    @pytest.mark.parametrize("output,written", [
        ("./results/fig2a", "results/fig2a_{}.csv"),
        ("out.v2/fig", "out.v2/fig_{}.csv"),
        ("out.v2/fig.txt", "out.v2/fig_{}.txt"),
    ])
    def test_figure_command_output_paths(self, tmp_path, monkeypatch, capsys,
                                         output, written):
        # the fig2a variants, cut to one directional point each
        full = cli.figure_preset
        monkeypatch.setattr(cli, "figure_preset", lambda preset_id: [
            replace(v, spec=replace(v.spec, values=(100.0,),
                                    antennas=("directional",)))
            for v in full(preset_id)])
        monkeypatch.chdir(tmp_path)
        code = main(["figure", "fig2a", "--trials", "100", "--output", output])
        assert code == 0
        log = capsys.readouterr().err
        for variant in full("fig2a"):
            path = written.format(variant.label)
            assert (tmp_path / path).read_text().startswith(",".join(CSV_HEADER))
            assert f"wrote {path}\n" in log

    def test_figure_command_reads_config(self, tmp_path, monkeypatch):
        # the config sets the scenario; the preset's own keys (here the
        # height band) still override it
        full = cli.figure_preset
        monkeypatch.setattr(cli, "figure_preset", lambda preset_id: [
            replace(v, spec=replace(v.spec, values=(100.0,),
                                    antennas=("directional",), engine="analytic"))
            for v in full(preset_id)])

        def csv_bytes(name, config_text):
            argv = ["figure", "fig2a", "--output", str(tmp_path / name / "fig")]
            if config_text is not None:
                argv += ["--config", write_config(tmp_path, config_text)]
            assert main(argv) == 0
            return [(tmp_path / name / f"fig_{v.label}.csv").read_bytes()
                    for v in full("fig2a")]

        default = csv_bytes("default", None)
        slow = csv_bytes("slow", "v = 5\n")
        assert all(a != b for a, b in zip(default, slow))
        assert csv_bytes("banded", "v = 5\nh_ub = 200\n") == slow

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
