"""Command-line pipeline: protocol check, stream synthesis, analysis, fitting.

Subcommands
-----------
protocol    exact single-stage simulation of the configured input state
simulate    write synthetic click streams plus a manifest into the out dir
analyze     turn a manifest or stream file into a g2 curve CSV
fit         fit a curve CSV with the model of its x_kind, to JSON
reproduce   chain simulate/analyze/fit in memory for the fig2 or fig3 study
model       evaluate the configured analytic fringe on its grid, to CSV

Exit codes: 0 success, 2 configuration error, 3 I/O or data error,
4 fit did not converge.  Every command declares its output files once, in
`_outputs`; a run that fails leaves none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import G2Curve, scan_delay, scan_tau, write_csv_columns
from .config import ConfigError, RunConfig
from .fitting import FitResult, fit_delay_model, fit_tau_model
from .fock import SPEED_OF_LIGHT
from .protocol import ErasureDetectorConfig, run_two_color_erasure
from .streams import (
    StreamFormatError,
    read_stream,
    simulate_segments,
    simulate_stream,
    write_stream,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4


class DataError(RuntimeError):
    """I/O or data-content failure distinct from configuration mistakes."""


@contextlib.contextmanager
def _outputs(out_dir: Path, names, inputs=()):
    """Yield out_dir / name for each name, in order; remove them all if the block raises.

    An earlier run's file of one of these names goes too, so a failed or
    interrupted run leaves none of its outputs, and the directories that
    this call made go if they are still empty.  An input that is one of
    them is refused before anything is written or removed.
    """
    paths = [out_dir / name for name in names]
    targets = {path.resolve() for path in paths}
    for source in inputs:
        if source.resolve() in targets:
            raise DataError(f"input {source} is also an output of this command")
    made = [folder for folder in (out_dir, *out_dir.parents) if not folder.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield paths
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        for folder in made:  # the deepest first
            with contextlib.suppress(OSError):  # not empty
                folder.rmdir()
        raise


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def cmd_protocol(config: RunConfig, args: argparse.Namespace) -> int:
    freqs = config.modes.frequencies()
    print("modes:")
    print(f"  f1 = {freqs.f1 / 1e12:.6f} THz   (wavelength_1)")
    print(f"  f2 = {freqs.f2 / 1e12:.6f} THz   (wavelength_2)")
    print(f"  f3 = {freqs.f3 / 1e12:.6f} THz   (wavelength_3)")
    print(f"  input color difference f2 - f1 = {freqs.delta_f21 / 1e9:.3f} GHz")
    s = config.conversion
    print("conversion angles:")
    print(f"  theta_31 = {s.theta_31:.6f} rad   theta_32 = {s.theta_32:.6f} rad")
    print(f"  theta_2p2 = {s.theta_2p2:.6f} rad  theta_1p1 = {s.theta_1p1:.6f} rad")
    print(f"  phi_31 = {s.phi_31:.6f} rad   phi_32 = {s.phi_32:.6f} rad")

    alpha, beta = config.scenario.alpha, config.scenario.beta
    detector = ErasureDetectorConfig(settings=s, label="A")
    run, arms = run_two_color_erasure(freqs, alpha, beta, detector)
    pre_filter = run.stages["after_second_beamsplitter"]
    print("input weights:")
    print(f"  alpha = {_fmt_complex(alpha)}   beta = {_fmt_complex(beta)}")
    print("pre-filter amplitudes on detection arm:")
    for color in ("f1", "f2", "f3", "f1_shift", "f2_shift"):
        amp = pre_filter.amplitude_of({getattr(arms.arm_a, color): 1})
        print(f"  {color:9s} {_fmt_complex(amp)}")
    print(f"detection amplitude (arm a, f3): {_fmt_complex(run.detection_amplitude)}")
    print(f"post-selection probability: {run.detection_probability:.6f}")
    print(f"filter discarded probability: {run.discarded_probability:.6f}")
    if detector.is_ideal_tuning():
        print("tuning: ideal (detection amplitude equals (alpha + beta) / 2)")
    if args.dump_state:
        with _outputs(config.out_dir, ["protocol_states.json"]) as (path,):
            payload = {name: st.to_json_dict() for name, st in run.stages.items()}
            path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {path}")
    return EXIT_OK


def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    suffix = ".tdc" if args.binary else ".txt"
    manifest: dict = {"kind": args.kind, "streams": []}
    if args.kind == "delay":
        steps = range(len(config.delay_stream.delay_schedule))
        names = [f"delay_step_{index:02d}{suffix}" for index in steps]
        # each segment is written as soon as it is drawn, so one is held at a time
        segments = simulate_segments(config.delay_stream)
    else:
        names = [f"tau_stream{suffix}"]
        # drawn lazily too, so that a failed draw also goes through _outputs
        segments = ((0.0, simulate_stream(config.tau_stream)) for _ in names)
        manifest["taus"] = list(config.tau_scan.taus())
    with _outputs(config.out_dir, [*names, "manifest.json"]) as (*stream_paths, manifest_path):
        for path, (t_delay, stream) in zip(stream_paths, segments):
            write_stream(stream, path, binary=args.binary)
            manifest["streams"].append({"file": path.name, "t_delay": t_delay})
        manifest_path.write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(stream_paths)} stream file(s) and {manifest_path}")
    return EXIT_OK


def _is_number(value) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _analyze_manifest(config: RunConfig, manifest_path: Path) -> G2Curve:
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: not valid manifest JSON ({exc})") from None
    base = manifest_path.parent
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    kind = manifest.get("kind")
    entries = manifest.get("streams")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{manifest_path}: manifest lists no streams")
    for entry in entries:
        named = isinstance(entry, dict) and isinstance(entry.get("file"), str)
        if not named or not _is_number(entry.get("t_delay")):
            raise DataError(f"{manifest_path}: stream entry {entry!r} needs a 'file' and a numeric 't_delay'")
    taus = manifest.get("taus")
    if taus is not None and not (isinstance(taus, list) and all(map(_is_number, taus))):
        raise DataError(f"{manifest_path}: 'taus' must be a list of numbers, got {taus!r}")
    if kind == "delay":
        # one stream file read and counted at a time
        return scan_delay((float(entry["t_delay"]), read_stream(base / entry["file"])) for entry in entries)
    if kind == "tau":
        if len(entries) != 1:
            raise DataError(f"{manifest_path}: a tau manifest names one stream, not {len(entries)}")
        stream = read_stream(base / entries[0]["file"])
        # only a missing list takes the config's taus; scan_tau refuses an empty one
        return scan_tau(stream, config.tau_scan.taus() if taus is None else [float(t) for t in taus])
    raise DataError(f"{manifest_path}: unknown manifest kind {kind!r}")


def cmd_analyze(config: RunConfig, args: argparse.Namespace) -> int:
    with _outputs(config.out_dir, ["curve.csv"], inputs=[args.input]) as (curve_path,):
        if not args.input.exists():
            raise DataError(f"input not found: {args.input}")
        if args.input.suffix == ".json":
            curve = _analyze_manifest(config, args.input)
        else:
            stream = read_stream(args.input)
            if len(stream) == 0:
                raise DataError(f"{args.input}: stream holds no click records")
            curve = scan_tau(stream, config.tau_scan.taus())
        curve.to_csv(curve_path)
    print(f"wrote {curve_path} ({len(curve)} points, x_kind={curve.x_kind})")
    return EXIT_OK


def _fit_curve(config: RunConfig, curve: G2Curve) -> FitResult:
    """The tau model for a shift scan, the delay model for a delay scan."""
    fit_fn = fit_tau_model if curve.x_kind == "tau" else fit_delay_model
    return fit_fn(curve, weighted=config.fit.weighted)


def _fit_exit(result: FitResult, paths: list[Path]) -> int:
    """Name the written files; a fit that did not converge exits 4."""
    for path in paths:
        print(f"wrote {path}")
    if not result.converged:
        print("fit did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_fit(config: RunConfig, args: argparse.Namespace) -> int:
    with _outputs(config.out_dir, ["fit.json"], inputs=[args.curve]) as (fit_path,):
        if not args.curve.exists():
            raise DataError(f"curve file not found: {args.curve}")
        try:
            curve = G2Curve.from_csv(args.curve)
        except ValueError as exc:
            raise DataError(str(exc)) from None
        result = _fit_curve(config, curve)
        fit_path.write_text(result.to_json())
    for line in result.summary_lines():
        print(line)
    return _fit_exit(result, [fit_path])


def cmd_model(config: RunConfig, args: argparse.Namespace) -> int:
    """Evaluate the configured analytic fringe on its scan grid, to CSV."""
    from .protocol import g2_tau_model, g2_zero_model

    with _outputs(config.out_dir, [f"model_{args.kind}.csv"]) as (path,):
        if args.kind == "delay":
            xs = [t for t, _ in config.delay_stream.delay_schedule]
            values = [g2_zero_model(config.delay_stream.model, x) for x in xs]
            x_kind = "t_delay"
        else:
            xs = config.tau_scan.taus()
            values = [g2_tau_model(config.tau_stream.model, x) for x in xs]
            x_kind = "tau"
        write_csv_columns(path, x_kind, {"x": xs, "g2": values})
    print(f"wrote {path} ({len(xs)} points)")
    return EXIT_OK


def _write_plot_data(path: Path, curve: G2Curve, result: FitResult) -> None:
    from .fitting import PARAM_NAMES, tau_fringe

    # a parameter the model does not fit (the delay model's linewidth) is 0
    params = np.array([result.params.get(name, (0.0, None))[0] for name in PARAM_NAMES])
    model = tau_fringe(params, curve.x)
    columns = {"x": curve.x, "g2_data": curve.g2, "sigma": curve.sigma, "g2_model": model}
    write_csv_columns(path, curve.x_kind, columns)


def cmd_reproduce(config: RunConfig, args: argparse.Namespace) -> int:
    figure = args.figure
    names = [f"{figure}_curve.csv", f"{figure}_fit.json", f"{figure}_plotdata.csv"]
    with _outputs(config.out_dir, names) as paths:
        if figure == "fig2":
            truth = config.delay_stream.model
            print(
                f"injected fringe: visibility {truth.visibility}, phase {truth.phase} rad, "
                f"beat {truth.frequency / 1e9:.4g} GHz"
            )
            curve = scan_delay(simulate_segments(config.delay_stream))
            result = _fit_curve(config, curve)
        else:
            truth = config.tau_stream.model
            print(
                f"injected fringe: visibility {truth.visibility}, linewidth "
                f"{truth.linewidth / 1e6:.4g} MHz, phase {truth.phase} rad, "
                f"beat {truth.frequency / 1e6:.4g} MHz"
            )
            stream = simulate_stream(config.tau_stream)
            curve = scan_tau(stream, config.tau_scan.taus())
            result = _fit_curve(config, curve)
        curve_path, fit_path, plot_path = paths
        curve.to_csv(curve_path)
        fit_path.write_text(result.to_json())
        _write_plot_data(plot_path, curve, result)
    for line in result.summary_lines():
        print(line)
    if figure == "fig2":
        freq, freq_err = result.params["frequency"]
        length = SPEED_OF_LIGHT / freq
        err = SPEED_OF_LIGHT * (freq_err / freq**2) if freq_err else float("nan")
        print(f"fringe period as path length: {length * 1e3:.4f} +/- {err * 1e3:.4f} mm")
    return _fit_exit(result, paths)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chbt",
        description="Two-color intensity interferometry simulation pipeline",
    )
    parser.add_argument("--config", type=Path, default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out-dir", type=Path, default=None, help="override [run] out_dir")
    # each command runs as args.run(config, args)
    sub = parser.add_subparsers(dest="command", required=True)

    p_proto = sub.add_parser("protocol", help="run the single-stage erasure pipeline exactly")
    p_proto.set_defaults(run=cmd_protocol)
    p_proto.add_argument("--dump-state", action="store_true", help="write stage state vectors as JSON")

    p_sim = sub.add_parser("simulate", help="generate click streams and a manifest")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--kind", choices=("delay", "tau"), default="delay")
    p_sim.add_argument("--binary", action="store_true", help="write compact binary streams")

    p_ana = sub.add_parser("analyze", help="estimate a g2 curve from streams")
    p_ana.set_defaults(run=cmd_analyze)
    p_ana.add_argument("--input", type=Path, required=True, help="manifest.json or stream file")

    p_fit = sub.add_parser("fit", help="fit a fringe model to a curve CSV")
    p_fit.set_defaults(run=cmd_fit)
    p_fit.add_argument("--curve", type=Path, required=True)

    p_rep = sub.add_parser("reproduce", help="simulate, analyze and fit one study")
    p_rep.set_defaults(run=cmd_reproduce)
    p_rep.add_argument("figure", choices=("fig2", "fig3"))

    p_model = sub.add_parser("model", help="evaluate the configured analytic fringe to CSV")
    p_model.set_defaults(run=cmd_model)
    p_model.add_argument("--kind", choices=("delay", "tau"), default="delay")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config, seed=args.seed, out_dir=args.out_dir)
        return args.run(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, StreamFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
