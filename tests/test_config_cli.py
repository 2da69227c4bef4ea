import configparser
import dataclasses
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chromatic_hbt
from chromatic_hbt import analysis, cli
from chromatic_hbt.cli import main
from chromatic_hbt.config import (
    DEFAULT_CONFIG,
    MAX_STEPS,
    MAX_TAUS,
    ConfigError,
    FREQUENCY_UNITS,
    LENGTH_UNITS,
    TIME_UNITS,
    RunConfig,
    parse_angle,
    parse_bool,
    parse_complex,
    parse_float,
    parse_quantity,
)


def test_package_namespace_holds_only_submodules_and_the_version():
    # the API lives in the submodules; the package re-exports none of it
    public = {name: value for name, value in vars(chromatic_hbt).items() if not name.startswith("__")}
    assert public and all(isinstance(value, types.ModuleType) for value in public.values()), sorted(public)
    assert isinstance(chromatic_hbt.__version__, str)


class TestUnitParsing:
    def test_lengths(self):
        assert parse_quantity("1064.4 nm", LENGTH_UNITS, "x") == pytest.approx(1064.4e-9)
        assert parse_quantity("1.0 mm", LENGTH_UNITS, "x") == pytest.approx(1e-3)

    def test_frequencies(self):
        assert parse_quantity("210.1 GHz", FREQUENCY_UNITS, "x") == pytest.approx(210.1e9)
        assert parse_quantity("0.118 MHz", FREQUENCY_UNITS, "x") == pytest.approx(0.118e6)

    def test_times(self):
        assert parse_quantity("40 ms", TIME_UNITS, "x") == pytest.approx(0.04)
        assert parse_quantity("20 ns", TIME_UNITS, "x") == pytest.approx(20e-9)

    def test_bare_number_rejected(self):
        with pytest.raises(ConfigError, match="x"):
            parse_quantity("42", TIME_UNITS, "x")

    def test_wrong_unit_rejected(self):
        with pytest.raises(ConfigError, match="not recognized"):
            parse_quantity("42 nm", TIME_UNITS, "x")

    def test_angle_radians_and_pi_prefix(self):
        assert parse_angle("-0.16 rad", "x") == pytest.approx(-0.16)
        assert parse_angle("pi:0.5", "x") == pytest.approx(math.pi / 2)
        assert parse_angle("pi:-2", "x") == pytest.approx(-2 * math.pi)

    def test_angle_without_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_angle("0.5", "x")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_rejected(self, token):
        with pytest.raises(ConfigError, match="finite"):
            parse_quantity(f"{token} nm", LENGTH_UNITS, "x")
        with pytest.raises(ConfigError, match="finite"):
            parse_angle(f"{token} rad", "x")
        with pytest.raises(ConfigError, match="finite"):
            parse_angle(f"pi:{token}", "x")
        with pytest.raises(ConfigError, match="finite"):
            parse_float(token, "x")
        with pytest.raises(ConfigError, match="finite"):
            parse_complex(f"{token}+0.5j", "x")

    def test_bool(self):
        assert parse_bool("on", "x") is True
        assert parse_bool("false", "x") is False
        with pytest.raises(ConfigError):
            parse_bool("maybe", "x")


class TestRunConfig:
    def test_defaults_load(self):
        config = RunConfig.load()
        assert config.seed == 12345
        freqs = config.modes.frequencies()
        # the two input colors differ by roughly 212 GHz
        assert freqs.delta_f21 == pytest.approx(212e9, rel=2e-3)
        assert config.conversion.theta_31 == pytest.approx(math.pi / 2)
        assert config.delay_scan.steps == 20
        assert len(config.tau_scan.taus()) == 207

    def test_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 99\n[scenario]\nalpha = 1.0\nbeta = 0.0\n")
        config = RunConfig.load(path)
        assert config.seed == 99
        assert config.scenario.alpha == 1.0
        assert config.scenario.beta == 0.0
        # untouched keys keep their defaults
        assert config.delay_scan.steps == 20

    def test_percent_sign_is_read_as_written(self, tmp_path, capsys):
        # no key interpolates: '%' is read as written, also where --out-dir replaces the value
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nout_dir = a%b\n")
        assert RunConfig.load(path).out_dir == Path("a%b")
        assert main(["--config", str(path), "protocol"]) == 0
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "protocol"]) == 0

    def test_seed_override_argument_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = 99\n")
        assert RunConfig.load(path, seed=7).seed == 7

    def test_bad_unit_names_section_and_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[delay_scan]\nbeat_frequency = 210.1 nm\n")
        with pytest.raises(ConfigError, match="delay_scan.beat_frequency"):
            RunConfig.load(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.load("/nonexistent/path.cfg")

    def test_default_config_lists_exactly_the_declared_fields(self):
        parser = configparser.ConfigParser()
        parser.read_string(DEFAULT_CONFIG)
        config = RunConfig.load()
        declared = {
            (name, key.name)
            for name in ("modes", "scenario", "delay_scan", "tau_scan", "fit")
            for key in dataclasses.fields(getattr(config, name))
        }
        listed = {(name, key) for name in parser.sections() for key in parser[name]}
        read_by_load = {(name, key) for name in ("run", "conversion") for key in parser[name]}
        assert listed - read_by_load == declared

    def test_delay_schedule_spans_requested_periods(self):
        config = RunConfig.load()
        schedule = config.delay_scan.schedule()
        period = 1.0 / config.delay_scan.beat_frequency
        assert len(schedule) == 20
        span = schedule[-1][0] - schedule[0][0]
        assert span == pytest.approx(5.0 * period * 19 / 20)

    @pytest.mark.parametrize("half, accepted", [(MAX_TAUS // 2 - 1, True), (MAX_TAUS // 2, False)])
    def test_tau_grid_cap_is_the_point_count(self, tmp_path, half, accepted):
        # 2 * half + 1 grid points, no far taus: the largest grid under the cap loads
        path = tmp_path / "grid.cfg"
        path.write_text(f"[tau_scan]\ntau_max = {half} ps\ntau_step = 1 ps\nfar_taus =\n")
        if accepted:
            assert RunConfig.load(path).tau_scan.tau_max == pytest.approx(half * 1e-12)
        else:
            with pytest.raises(ConfigError, match="tau_scan.tau_step"):
                RunConfig.load(path)

    @pytest.mark.parametrize("steps, accepted", [(3, False), (4, True)])
    def test_delay_steps_floor_is_one_more_than_the_fit_parameters(self, tmp_path, steps, accepted):
        # the delay fit has three parameters and needs four points
        path = tmp_path / "steps.cfg"
        path.write_text(f"[delay_scan]\nsteps = {steps}\n")
        if accepted:
            assert len(RunConfig.load(path).delay_scan.schedule()) == steps
        else:
            with pytest.raises(ConfigError, match="delay_scan.steps"):
                RunConfig.load(path)

    @pytest.mark.parametrize(
        "grid, count",
        [
            ("tau_max = 2 ps\ntau_step = 1 ps\nfar_taus =\n", 5),
            ("tau_max = 1 ps\ntau_step = 1 ps\nfar_taus =\n", 3),
            ("tau_max = 0 us\nfar_taus = 40 us, 42 us\n", 5),
            ("tau_max = 0 us\nfar_taus = 40 us\n", 3),
        ],
    )
    def test_tau_grid_floor_is_one_more_than_the_fit_parameters(self, tmp_path, grid, count):
        # the tau fit has four parameters and needs five points, far taus included
        path = tmp_path / "grid.cfg"
        path.write_text(f"[tau_scan]\n{grid}")
        if count >= 5:
            assert len(RunConfig.load(path).tau_scan.taus()) == count
        else:
            with pytest.raises(ConfigError, match=f"tau_scan.tau_max.* {count} taus"):
                RunConfig.load(path)


# each command's argv, after the config and the out dir, and every file it
# declares, the one written last at the end; "{inputs}" is small_inputs' directory
OUTPUT_CASES = [
    (["protocol", "--dump-state"], ["protocol_states.json"]),
    (["simulate", "--kind", "tau"], ["tau_stream.txt", "manifest.json"]),
    (["simulate", "--kind", "delay", "--binary"], [f"delay_step_{i:02d}.tdc" for i in range(5)] + ["manifest.json"]),
    (["analyze", "--input", "{inputs}/manifest.json"], ["curve.csv"]),
    (["fit", "--curve", "{inputs}/curve.csv"], ["fit.json"]),
    (["model", "--kind", "tau"], ["model_tau.csv"]),
    (["reproduce", "fig2"], ["fig2_curve.csv", "fig2_fit.json", "fig2_plotdata.csv"]),
    (["reproduce", "fig3"], ["fig3_curve.csv", "fig3_fit.json", "fig3_plotdata.csv"]),
]


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A small config, and a directory holding its tau stream, manifest and curve."""
    inputs = tmp_path_factory.mktemp("inputs")
    cfg = inputs / "small.cfg"
    cfg.write_text("[delay_scan]\nsteps = 5\ndwell = 0.2 ms\n[tau_scan]\nduration = 0.05 s\n")
    base = ["--config", str(cfg), "--out-dir", str(inputs)]
    assert main([*base, "simulate", "--kind", "tau"]) == 0
    assert main([*base, "analyze", "--input", str(inputs / "manifest.json")]) == 0
    return cfg, inputs


def fail_writing(monkeypatch, name):
    """Make every write of a file called `name` leave a partial file and fail."""

    def failing(write):
        def write_or_fail(path, *args, **kwargs):
            if Path(path).name == name:
                Path(path).write_bytes(b"partial")
                raise OSError(28, "No space left on device")
            return write(path, *args, **kwargs)

        return write_or_fail

    monkeypatch.setattr(Path, "write_text", failing(Path.write_text))
    monkeypatch.setattr(analysis, "write_csv_columns", failing(analysis.write_csv_columns))
    monkeypatch.setattr(cli, "write_csv_columns", failing(cli.write_csv_columns))


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


class TestCli:
    def test_protocol_balanced_amplitude(self, capsys):
        code = main(["protocol"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detection amplitude" in out
        assert "+0.707107+0.000000j" in out
        assert "0.500000" in out

    def test_protocol_dump_state(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "protocol", "--dump-state"])
        assert code == 0
        payload = json.loads((tmp_path / "protocol_states.json").read_text())
        assert "after_filter" in payload
        assert "input" in payload

    def test_protocol_detuned_amplitude_differs(self, tmp_path, capsys):
        cfg = tmp_path / "detuned.cfg"
        cfg.write_text("[conversion]\ntheta_32 = pi:1\n")
        code = main(["--config", str(cfg), "protocol"])
        out = capsys.readouterr().out
        assert code == 0
        # cos(pi) = -1 flips the second weight: (alpha - beta)/2 = 0
        assert "+0.000000+0.000000j" in out

    @pytest.mark.parametrize(
        "text, location, message",
        [
            ("[delay_scan]\ndwell = 5 parsec\n", "delay_scan.dwell", "not recognized"),
            ("[delay_scan]\nsteps = 4.5\n", "delay_scan.steps", "'4.5' is not an integer"),
            ("[delay_scan]\nsteps\n", "[config]", "[line  2]: 'steps\\n'"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, location, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "protocol"])
        err = capsys.readouterr().err
        assert code == 2
        assert location in err
        assert message in err

    @pytest.mark.parametrize(
        "text, flags, location",
        [
            ("[tau_scan]\ntau_step = 0 us\n", [], "tau_scan.tau_step"),
            ("[delay_scan]\nbeat_frequency = 0 GHz\n", [], "delay_scan.beat_frequency"),
            ("[delay_scan]\nvisibility = 1.5\n", [], "[delay_scan]"),
            ("[tau_scan]\nrate_a = 10 MHz\n", [], "[tau_scan]"),
            ("[delay_scan]\nbin_width = 0.5 ps\n", [], "[delay_scan]"),
            ("[delay_scan]\ndwell = 1.5 ns\n", [], "[delay_scan]"),
            ("[tau_scan]\nlinewidth = -1 MHz\n", [], "[tau_scan]"),
            ("[delay_scan]\ndwell = 1e300 s\n", [], "[delay_scan]"),
            ("", ["--seed", "-1"], "run.seed"),
            ("[scenario]\nalpha = 1.0\n", [], "scenario.alpha"),
            ("[modes]\nwavelength_2 = 500 nm\nwavelength_3 = 2000 nm\n", [], "[modes]"),
            ("[delay_scan]\nbeat_frequency = 1e300 GHz\n", [], "delay_scan.beat_frequency"),
            ("[delay_scan]\nbeat_frequency = 1e-300 Hz\nscan_periods = 1e300\n", [], "[delay_scan]"),
            ("[tau_scan]\nbin_width = 1e300 s\n", [], "[tau_scan]"),
            ("[tau_scan]\nduration = 1e200 s\n", [], "[tau_scan]"),
            ("[delay_scan]\ndwell = 0 s\n", [], "delay_scan.dwell"),
            ("[tau_scan]\nduration = 0 s\n", [], "tau_scan.duration"),
            ("[tau_scan]\ntau_max = 1e300 s\ntau_step = 1e-300 s\n", [], "tau_scan.tau_step"),
            ("[tau_scan]\ntau_step = 1e-12 s\n", [], "tau_scan.tau_step"),
            ("[tau_scan]\ntau_max = -12 us\n", [], "tau_scan.tau_max"),
            ("[tau_scan]\nduration = 30 us\n", [], "tau_scan.duration"),
            ("[delay_scan]\nscan_periods = 0\n", [], "delay_scan.scan_periods"),
            ("[delay_scan]\nsteps = 3\n", [], "delay_scan.steps"),
            ("[tau_scan]\ntau_max = 0 us\nfar_taus =\n", [], "tau_scan.tau_max"),
            # 0.075 periods of the beat between the first and the last delay
            ("[delay_scan]\nsteps = 4\nscan_periods = 0.1\ndwell = 0.2 ms\n", [], "delay_scan.scan_periods"),
            ("[tau_scan]\nlinewidth = 0 MHz\n", [], "[tau_scan]"),
            # sampler kernels of inf and 2.5e8 bins, refused before any table is built
            ("[tau_scan]\nlinewidth = 1e-300 Hz\nduration = 0.05 s\n", [], "[tau_scan]"),
            ("[tau_scan]\nlinewidth = 1 Hz\n", [], "[tau_scan]"),
            # a channel with no signal and no dark clicks
            ("[delay_scan]\nrate_a = 0 Hz\n", [], "delay_scan.rate_a"),
            ("[tau_scan]\nrate_b = 0 Hz\n", [], "tau_scan.rate_b"),
            # refused before the schedule of that many steps is built
            (f"[delay_scan]\nsteps = {MAX_STEPS + 1}\ndwell = 1 ns\n", [], "delay_scan.steps"),
        ],
    )
    def test_out_of_range_config_exits_2_whatever_the_command(
        self, tmp_path, capsys, text, flags, location
    ):
        # protocol reads neither scan section: load refuses them anyway
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = main(["--config", str(cfg), *flags, "protocol"])
        captured = capsys.readouterr()
        assert code == 2
        assert location in captured.err
        assert "detection amplitude" not in captured.out

    @pytest.mark.parametrize(
        "text",
        ["[tau_scan]\ntau_max = 1e300 s\ntau_step = 1e-300 s\n", "[tau_scan]\ntau_step = 1e-12 s\n"],
    )
    def test_oversized_tau_grid_exits_2_before_the_model_runs(self, tmp_path, capsys, text):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "model", "--kind", "tau"])
        assert code == 2
        assert "tau_scan.tau_step" in capsys.readouterr().err
        assert not (tmp_path / "model_tau.csv").exists()

    @pytest.mark.parametrize(
        "line, key, message",
        [
            ("phi_31 = nan rad", "conversion.phi_31", "'nan' is not a finite number"),
            ("phi_32 = inf rad", "conversion.phi_32", "'inf' is not a finite number"),
            ("theta_31 = -1 rad", "theta_31", "must be finite and >= 0"),
            ("theta_32 = pi:inf", "conversion.theta_32", "'pi:inf' is not a finite pi-multiple"),
            ("theta_31 = 1 deg", "conversion.theta_31", "angles take 'rad' or the pi: prefix, got 'deg'"),
        ],
    )
    def test_bad_conversion_value_exits_2(self, tmp_path, capsys, line, key, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[conversion]\n{line}\n")
        code = main(["--config", str(cfg), "protocol"])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert message in captured.err
        assert "detection amplitude" not in captured.out

    @pytest.mark.parametrize(
        "text, location",
        [
            ("[tau_scan]\ndurration = 0.01 s\n", "tau_scan.durration"),
            ("[bogus]\n", "[bogus]"),
            ("[fit]\nband_low = 0.5\n", "fit.band_low"),
            ("[DEFAULT]\nseed = 3\n", "DEFAULT.seed"),
            ("[scenario]\nerasure = off\n", "scenario.erasure"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, text, location):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "reproduce", "fig3"])
        captured = capsys.readouterr()
        assert code == 2
        assert location in captured.err
        assert not list(tmp_path.glob("fig3_*"))

    @pytest.mark.parametrize(
        "argv", [["analyze"], ["fit", "--curve", "curve.csv", "--model", "delay"], ["--dump-state", "protocol"]]
    )
    def test_analyze_without_input_and_fit_model_are_usage_errors(self, tmp_path, capsys, argv):
        # analyze reads only --input; fit takes its model from the curve's
        # x_kind; --dump-state is an option of protocol, after the command
        with pytest.raises(SystemExit) as exc:
            main(["--out-dir", str(tmp_path), *argv])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [[], ["--binary"]])
    def test_bare_tau_stream_gives_the_manifest_curve(self, tmp_path, capsys, small_inputs, flags):
        # a bare stream file takes the config's taus, which the manifest lists too
        cfg, _ = small_inputs
        base = ["--config", str(cfg), "--out-dir"]
        assert main([*base, str(tmp_path), "simulate", "--kind", "tau", *flags]) == 0
        assert main([*base, str(tmp_path), "analyze", "--input", str(tmp_path / "manifest.json")]) == 0
        (stream,) = tmp_path.glob("tau_stream.*")
        bare = tmp_path / "bare"
        assert main([*base, str(bare), "analyze", "--input", str(stream)]) == 0
        assert (bare / "curve.csv").read_bytes() == (tmp_path / "curve.csv").read_bytes()

    def test_fit_that_does_not_converge_exits_4_and_keeps_its_result(
        self, tmp_path, capsys, monkeypatch, small_inputs
    ):
        from chromatic_hbt import fitting

        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        _, inputs = small_inputs
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(inputs / "curve.csv")])
        assert code == 4
        assert "fit did not converge" in capsys.readouterr().err
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["model"] == "tau" and result["converged"] is False

    def test_analyze_of_a_crlf_stream_exits_3_at_line_1(self, tmp_path, capsys, small_inputs):
        cfg, inputs = small_inputs
        stream = tmp_path / "crlf.txt"
        stream.write_bytes((inputs / "tau_stream.txt").read_bytes().replace(b"\n", b"\r\n"))
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg), "--out-dir", str(out_dir), "analyze", "--input", str(stream)])
        assert code == 3
        assert f"{stream}: line 1: bad header" in capsys.readouterr().err
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_refused_run_removes_only_the_directories_it_made(self, tmp_path, small_inputs):
        cfg, inputs = small_inputs
        stream = tmp_path / "crlf.txt"
        stream.write_bytes((inputs / "tau_stream.txt").read_bytes().replace(b"\n", b"\r\n"))
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("an earlier file")
        for out_dir in (tmp_path / "runs" / "a" / "out", kept / "out", kept):
            argv = ["--config", str(cfg), "--out-dir", str(out_dir), "analyze", "--input", str(stream)]
            assert main(argv) == 3
        # runs/a/out, runs/a and runs were made by the run and are gone; kept and its file stay
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crlf.txt", "kept"]
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

    def test_analyze_empty_stream_exits_3(self, tmp_path, capsys):
        stream = tmp_path / "empty.txt"
        stream.write_text("#binwidth_ps=1000\n#duration_ps=0\n#seed=1\n")
        code = main(["--out-dir", str(tmp_path), "analyze", "--input", str(stream)])
        err = capsys.readouterr().err
        assert code == 3
        assert "no click records" in err

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ([1, 2], "manifest is not a JSON object"),
            ({"kind": "tau", "streams": [{"name": "x"}]}, "needs a 'file' and a numeric 't_delay'"),
            ({"kind": "delay", "streams": [{"file": "step.txt"}]}, "needs a 'file' and a numeric 't_delay'"),
            ({"kind": "delay", "streams": [{"file": "step.txt", "t_delay": [1]}]}, "needs a 'file' and a numeric 't_delay'"),
            ({"kind": "tau", "streams": [{"file": "step.txt", "t_delay": 0.0}], "taus": 5}, "'taus' must be a list"),
            # a second stream, here a missing one, that a tau scan would not read
            ({"kind": "tau", "streams": [{"file": "step.txt", "t_delay": 0.0}, {"file": "gone.txt", "t_delay": 0.0}]},
             "a tau manifest names one stream, not 2"),
            # written as is, not through json.dumps
            ('{"kind": "delay", "streams": [', "not valid manifest JSON"),
            ({"kind": "delay", "streams": []}, "manifest lists no streams"),
            ({"kind": "shift", "streams": [{"file": "step.txt", "t_delay": 0.0}]}, "unknown manifest kind 'shift'"),
        ],
        ids=["not-an-object", "entry-without-file", "entry-without-t_delay", "list-t_delay", "number-taus",
             "tau-with-two-streams", "not-json", "no-streams", "unknown-kind"],
    )
    def test_analyze_malformed_manifest_exits_3(self, tmp_path, capsys, manifest, message):
        (tmp_path / "step.txt").write_text("#binwidth_ps=1000\n#duration_ps=0\n#seed=1\n")
        path = tmp_path / "manifest.json"
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        code = main(["--out-dir", str(tmp_path), "analyze", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert str(path) in err and message in err

    def test_analyze_missing_input_exits_3(self, tmp_path, capsys):
        code = main(["--out-dir", str(tmp_path), "analyze", "--input", str(tmp_path / "nope.txt")])
        assert code == 3

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ({"kind": "tau", "taus": [1e300]}, "reaches beyond the stream's 100 whole bins"),
            ({"kind": "tau", "taus": [0.0, math.inf]}, "tau inf is not finite"),
            ({"kind": "tau", "taus": [math.nan]}, "tau nan is not finite"),
            ({"kind": "delay", "t_delays": [0.0, 1e-12, math.nan]}, "finite x"),
            ({"kind": "tau", "taus": []}, "tau list is empty"),
        ],
        ids=["tau-1e300", "tau-inf", "tau-nan", "t_delay-nan", "tau-empty"],
    )
    def test_analyze_non_finite_manifest_number_exits_3(self, tmp_path, capsys, manifest, message):
        # taus are checked as floats before any is rounded to whole ps; an
        # empty list is refused, not read as "use the config's taus"
        (tmp_path / "step.txt").write_text("#binwidth_ps=1000\n#duration_ps=100000\n#seed=1\nA 0\nB 0\n")
        t_delays = manifest.pop("t_delays", [0.0])
        manifest["streams"] = [{"file": "step.txt", "t_delay": t} for t in t_delays]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = main(["--out-dir", str(tmp_path), "analyze", "--input", str(path)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "curve.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", ["x", "g2", "sigma"])
    def test_fit_non_finite_point_exits_3(self, tmp_path, capsys, column, value):
        from chromatic_hbt.analysis import G2Curve
        from chromatic_hbt.fitting import delay_fringe

        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.linspace(0.0, 5.0 / truth[2], 24)
        curve_path = tmp_path / "curve.csv"
        G2Curve(x, delay_fringe(truth, x), np.full(x.size, 0.01), "t_delay").to_csv(curve_path)
        lines = curve_path.read_text().splitlines()
        row = lines[7].split(",")
        row[["x", "g2", "sigma"].index(column)] = value
        lines[7] = ",".join(row)
        curve_path.write_text("\n".join(lines) + "\n")
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(curve_path)])
        assert code == 3
        assert f"{curve_path}: line 8: every curve point needs a finite {column}" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "curve file not found"),
            ("# x_kind=t_delay x_unit=s\nx,g2,sigma\n0.0,1.0\n", "line 3: expected 3 columns, got '0.0,1.0'"),
            ("# x_kind=t_delay x_unit=s\nx,g2,sigma\n", "no curve points found"),
        ],
        ids=["missing", "two-columns", "no-rows"],
    )
    def test_unreadable_curve_exits_3(self, tmp_path, capsys, text, message):
        curve_path = tmp_path / "curve.csv"
        if text is not None:
            curve_path.write_text(text)
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(curve_path)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (lambda lines: lines[1:], 1),
            (lambda lines: [lines[0].replace("x_unit=s", "x_unit=us"), *lines[1:]], 1),
            (lambda lines: [*lines[:5], "# a note\n", *lines[5:]], 6),
            (lambda lines: [*lines[:5], "\n", *lines[5:]], 6),
            (lambda lines: [line.replace("\n", "\r\n") for line in lines], 1),
            (lambda lines: lines[:2] + [line.replace("\n", ",1.0\n") for line in lines[2:]], 3),
            (lambda lines: [*lines[:-1], lines[-1].rstrip("\n")], 26),
            (lambda lines: [*lines[:4], lines[4].replace(",", ", "), *lines[5:]], 5),
            (lambda lines: [*lines[:6], lines[6].replace("0", "\u00e9", 1), *lines[7:]], 7),
        ],
        ids=[
            "no-header",
            "x_unit-us",
            "comment",
            "blank",
            "crlf",
            "fourth-column",
            "no-last-newline",
            "spaces",
            "non-ascii",
        ],
    )
    def test_curve_form_the_writer_never_makes_exits_3(self, tmp_path, capsys, edit, lineno):
        # only the form G2Curve.to_csv writes is read, so a shift scan without
        # its x_kind line cannot fall back to the delay model
        from chromatic_hbt.analysis import G2Curve
        from chromatic_hbt.fitting import tau_fringe

        x = np.linspace(-12e-6, 12e-6, 24)
        y = tau_fringe(np.array([0.576, 0.118e6, -0.434, 1.32e6]), x)
        curve_path = tmp_path / "curve.csv"
        G2Curve(x, y, np.full(x.size, 0.01), "tau").to_csv(curve_path)
        lines = curve_path.read_text().splitlines(keepends=True)
        assert len(lines) == 26
        curve_path.write_bytes("".join(edit(lines)).encode("utf-8"))
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(curve_path)])
        assert code == 3
        assert f"{curve_path}: line {lineno}: expected" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("x_kind", ["path_length", "bogus"])
    def test_fit_of_an_unknown_x_kind_exits_3(self, tmp_path, capsys, x_kind):
        from chromatic_hbt.analysis import G2Curve
        from chromatic_hbt.fitting import delay_fringe

        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.linspace(0.0, 5.0 / truth[2], 24)
        curve_path = tmp_path / "curve.csv"
        G2Curve(x, delay_fringe(truth, x), np.full(x.size, 0.01), "t_delay").to_csv(curve_path)
        text = curve_path.read_text().replace("x_kind=t_delay", f"x_kind={x_kind}")
        curve_path.write_text(text)
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(curve_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{curve_path}: line 1: x_kind must be one of" in err
        assert f"got {x_kind!r}" in err
        assert not (tmp_path / "fit.json").exists()

    def test_fit_on_synthetic_curve(self, tmp_path, capsys):
        from chromatic_hbt.analysis import G2Curve
        from chromatic_hbt.fitting import delay_fringe

        truth = np.array([0.59, -0.16, 210.1e9])
        x = np.linspace(0.0, 5.0 / truth[2], 24)
        curve = G2Curve(x, delay_fringe(truth, x), np.full(x.size, 0.01), "t_delay")
        curve_path = tmp_path / "curve.csv"
        curve.to_csv(curve_path)
        code = main(["--out-dir", str(tmp_path), "fit", "--curve", str(curve_path)])
        out = capsys.readouterr().out
        assert code == 0
        result = json.loads((tmp_path / "fit.json").read_text())
        assert result["model"] == "delay"
        assert result["params"]["visibility"]["value"] == pytest.approx(0.59, rel=1e-6)
        assert "visibility" in out

    def test_simulate_then_analyze_then_fit_small(self, tmp_path, capsys):
        # a scaled-down full pipeline through the file interfaces
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[delay_scan]\n"
            "steps = 8\n"
            "dwell = 4 ms\n"
            "rate_a = 20 MHz\n"
            "rate_b = 20 MHz\n"
            "scan_periods = 2.0\n"
        )
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "simulate", "--kind", "delay", "--binary"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["streams"]) == 8
        assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "analyze", "--input", str(out_dir / "manifest.json")]) == 0
        assert (out_dir / "curve.csv").exists()
        code = main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "fit", "--curve", str(out_dir / "curve.csv")])
        assert code == 0
        result = json.loads((out_dir / "fit.json").read_text())
        assert result["converged"] is True
        # visibility recovered within a loose statistical window
        assert result["params"]["visibility"]["value"] == pytest.approx(0.59, abs=0.15)

    @pytest.mark.parametrize("flags", [[], ["--binary"]])
    def test_failed_simulate_removes_its_files(self, tmp_path, capsys, monkeypatch, flags):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[delay_scan]\nsteps = 5\ndwell = 0.2 ms\n")
        write_stream, calls = cli.write_stream, []

        def full_disk_on_the_third(stream, path, binary=False):
            calls.append(path)
            if len(calls) == 3:
                path.write_bytes(b"A 1")  # the file is half written
                raise OSError(28, "No space left on device")
            write_stream(stream, path, binary=binary)

        monkeypatch.setattr(cli, "write_stream", full_disk_on_the_third)
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "simulate", "--kind", "delay", *flags])
        assert code == 3
        assert "No space left on device" in capsys.readouterr().err
        assert len(calls) == 3
        assert not list(out_dir.glob("delay_step_*")) and not (out_dir / "manifest.json").exists()

    def test_failed_simulate_over_an_earlier_run_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[delay_scan]\nsteps = 5\ndwell = 0.2 ms\n")
        argv = ["--config", str(cfg), "--out-dir", str(tmp_path / "out"), "simulate", "--kind", "delay"]
        assert main(argv) == 0

        def full_disk(stream, path, binary=False):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_stream", full_disk)
        assert main(argv) == 3
        # the earlier manifest named step files this run removed
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--binary"]])
    def test_failed_simulate_over_an_earlier_run_leaves_no_step_files(self, tmp_path, monkeypatch, flags):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[delay_scan]\nsteps = 5\ndwell = 0.2 ms\n")
        out_dir = tmp_path / "out"
        argv = ["--config", str(cfg), "--out-dir", str(out_dir), "simulate", "--kind", "delay", *flags]
        assert main(argv) == 0
        assert len(list(out_dir.glob("delay_step_*"))) == 5
        write_stream, calls = cli.write_stream, []

        def full_disk_on_the_third(stream, path, binary=False):
            calls.append(path)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            write_stream(stream, path, binary=binary)

        monkeypatch.setattr(cli, "write_stream", full_disk_on_the_third)
        assert main(argv) == 3
        assert len(calls) == 3
        # the earlier run's steps 03 and 04 were never rewritten
        assert not list(out_dir.glob("delay_step_*")) and not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("argv, outputs", OUTPUT_CASES, ids=[" ".join(c[0]) for c in OUTPUT_CASES])
    def test_failed_last_write_leaves_none_of_the_outputs(
        self, tmp_path, capsys, monkeypatch, small_inputs, argv, outputs
    ):
        # a rerun into the same directory fails at its last write: neither
        # its own files nor the earlier run's are left
        cfg, inputs = small_inputs
        out_dir = tmp_path / "out"
        argv = ["--config", str(cfg), "--out-dir", str(out_dir), *(a.format(inputs=inputs) for a in argv)]
        assert main(argv) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(outputs)
        fail_writing(monkeypatch, outputs[-1])
        assert main(argv) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, output",
        [(["fit", "--curve"], "fit.json"), (["analyze", "--input"], "curve.csv")],
    )
    def test_input_that_is_also_an_output_exits_3_and_is_kept(self, tmp_path, capsys, argv, output):
        from chromatic_hbt.analysis import G2Curve

        path = tmp_path / output
        G2Curve(np.arange(6.0), np.ones(6), np.full(6, 0.1), "tau").to_csv(path)
        before = path.read_bytes()
        # the same file through another spelling of the directory
        code = main(["--out-dir", str(tmp_path), *argv, str(tmp_path / "." / output)])
        assert code == 3
        assert "is also an output" in capsys.readouterr().err
        assert path.read_bytes() == before

    def test_deterministic_outputs(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[delay_scan]\nsteps = 4\ndwell = 1 ms\nrate_a = 20 MHz\nrate_b = 20 MHz\n"
        )
        outs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                         "simulate", "--kind", "delay", "--binary"]) == 0
            outs.append(b"".join(
                sorted(p.read_bytes() for p in out_dir.iterdir() if p.suffix == ".tdc")
            ))
        assert outs[0] == outs[1]

    def test_reproduce_fig2_small(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[delay_scan]\n"
            "steps = 10\n"
            "dwell = 5 ms\n"
            "rate_a = 20 MHz\n"
            "rate_b = 20 MHz\n"
            "scan_periods = 3.0\n"
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg), "--out-dir", str(out_dir), "reproduce", "fig2"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("fig2_curve.csv", "fig2_fit.json", "fig2_plotdata.csv"):
            assert (out_dir / name).exists()
        assert "path length" in out
        plot = (out_dir / "fig2_plotdata.csv").read_text().splitlines()
        assert plot[1] == "x,g2_data,sigma,g2_model"
        assert len(plot) == 12  # comment + header + 10 points

    def test_reproduce_fig3_with_a_tiny_dark_rate(self, tmp_path, capsys):
        # 1e-12 Hz in 20 ns bins is a click probability of 2e-20, past the
        # range of the geometric gaps between clicks
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("[tau_scan]\ndark_rate_a = 1e-12 Hz\nduration = 0.5 s\n")
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "reproduce", "fig3"])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "fig3_fit.json").exists()

    def test_reproduce_fig3_small(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[tau_scan]\n"
            "duration = 2 s\n"
            "rate_a = 400 kHz\n"
            "rate_b = 400 kHz\n"
            "tau_max = 8 us\n"
            "tau_step = 0.16 us\n"
            "far_taus = 40 us\n"
        )
        out_dir = tmp_path / "out"
        code = main(["--config", str(cfg), "--out-dir", str(out_dir), "reproduce", "fig3"])
        assert code == 0
        for name in ("fig3_curve.csv", "fig3_fit.json", "fig3_plotdata.csv"):
            assert (out_dir / name).exists()
        result = json.loads((out_dir / "fig3_fit.json").read_text())
        assert result["model"] == "tau"
        assert result["converged"] is True
        assert result["params"]["frequency"]["value"] == pytest.approx(1.32e6, rel=0.05)

    def test_simulate_then_analyze_tau_via_manifest(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[tau_scan]\n"
            "duration = 1 s\n"
            "rate_a = 400 kHz\n"
            "rate_b = 400 kHz\n"
            "tau_max = 6 us\n"
            "tau_step = 0.2 us\n"
            "far_taus =\n"
        )
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "simulate", "--kind", "tau", "--binary"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kind"] == "tau"
        assert len(manifest["taus"]) == 61
        assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "analyze", "--input", str(out_dir / "manifest.json")]) == 0
        code = main(["--config", str(cfg), "--out-dir", str(out_dir),
                     "fit", "--curve", str(out_dir / "curve.csv")])
        assert code == 0
        result = json.loads((out_dir / "fit.json").read_text())
        assert result["model"] == "tau"  # inferred from the curve's x_kind
        assert result["params"]["frequency"]["value"] == pytest.approx(1.32e6, rel=0.05)

    def test_reproduce_outputs_are_byte_identical_across_runs(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "[delay_scan]\nsteps = 6\ndwell = 2 ms\nrate_a = 20 MHz\nrate_b = 20 MHz\n"
            "scan_periods = 2.0\n"
        )
        blobs = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert main(["--config", str(cfg), "--out-dir", str(out_dir),
                         "reproduce", "fig2"]) == 0
            blobs.append(b"".join(
                (out_dir / f).read_bytes()
                for f in ("fig2_curve.csv", "fig2_fit.json", "fig2_plotdata.csv")
            ))
        assert blobs[0] == blobs[1]

    def test_model_subcommand_emits_fringe_csv(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["--out-dir", str(out_dir), "model", "--kind", "delay"]) == 0
        lines = (out_dir / "model_delay.csv").read_text().splitlines()
        assert lines[1] == "x,g2"
        assert len(lines) == 22  # comment + header + 20 scheduled delays
        first = float(lines[2].split(",")[1])
        # at zero delay the fringe is 1 + (0.59/2) cos(-0.16)
        assert first == pytest.approx(1.0 + 0.295 * math.cos(-0.16))

        assert main(["--out-dir", str(out_dir), "model", "--kind", "tau"]) == 0
        tau_lines = (out_dir / "model_tau.csv").read_text().splitlines()
        assert len(tau_lines) > 200


def _fuzz_value(default: str):
    """Values for a key in the form of its default text: unit, pi:, list or bare."""
    numbers = st.sampled_from(["0", "-0", "-1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf", "5%"])
    numbers |= st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if default in ("on", "off"):
        return st.sampled_from(["on", "off", "maybe"])
    if default.isdigit():  # keep load cheap: it is O(steps)
        return st.sampled_from(["-1", "0", "1", "2", "3", "7", "20", "1000"])
    if default.startswith("pi:"):
        return numbers.map(lambda x: f"pi:{x}")
    unit = default.split(",")[0].split()[1:]
    return numbers.map(lambda x: " ".join([x, *unit]))


def _fuzzed_keys():
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG)
    return {
        (name, key): _fuzz_value(parser[name][key])
        for name in parser.sections()
        for key in parser[name]
        if (name, key) != ("run", "out_dir")
    }


FUZZED_KEYS = _fuzzed_keys()


@st.composite
def config_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(FUZZED_KEYS)), min_size=1, max_size=3, unique=True))
    return {key: draw(FUZZED_KEYS[key]) for key in keys}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overrides=config_overrides())
def test_fuzzed_config_loads_or_refuses(tmp_path, capsys, overrides):
    # every accepted config gives a finite protocol answer; any other is a
    # ConfigError (exit 2), never a data error or a traceback
    cfg = tmp_path / "fuzz.cfg"
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict({name: {} for name, _ in overrides})
    for (name, key), value in overrides.items():
        parser[name][key] = value
    with open(cfg, "w") as fh:
        parser.write(fh)
    try:
        RunConfig.load(cfg)
    except ConfigError:
        pass
    code = main(["--config", str(cfg), "--out-dir", str(tmp_path), "protocol"])
    out = capsys.readouterr().out
    assert code in (0, 2)
    if code == 0:
        assert "nan" not in out and "inf" not in out
