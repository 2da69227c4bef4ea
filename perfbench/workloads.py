"""The four benchmark workloads: one operation each, with its output checks.

Every operation of a run uses the run's seed, so every repetition must
reproduce the first operation's outputs byte for byte (the determinism
check).  The fringe workloads go through ``chromatic_hbt.cli.main``, the
``chbt`` entry point, so config parsing and the CLI are measured too; the
protocol workload calls the public ``protocol`` functions directly.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

# A fitted parameter further than this many standard errors from the
# injected truth fails the operation.  At 3 sigma a correct program fails
# about 1% of fits by chance (3-4 parameters at 0.27% each), which over the
# hundreds of seeded runs a comparison takes would reject correct code; at 5
# sigma the false-alarm rate is below 1e-5 per fit, so a failure is a defect.
PULL_LIMIT = 5.0
IDEAL_TOL = 1e-12
GENERAL_TOL = 1e-10
CURVE_TOL = 1e-10


class Workload:
    """One kind of operation; subclasses define the op and its checks."""

    name = ""
    why = ""
    ini = ""

    def __init__(self, package, work_dir: Path, seed: int, ini: str | None = None):
        self.pkg = package
        self.seed = seed
        self.out = work_dir / "out"
        self.ini_text = self.ini if ini is None else ini
        self.ini_path = work_dir / "workload.ini"
        work_dir.mkdir(parents=True, exist_ok=True)
        self.ini_path.write_text(self.ini_text)
        self.config = package.config.RunConfig.load(self.ini_path, seed=seed)
        self.reference: str | None = None
        self.latencies: list[float] = []

    def reset(self) -> None:
        """Untimed: clear the previous operation's outputs and garbage."""
        gc.collect()
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def op(self):
        raise NotImplementedError

    def check(self, outcome) -> list[str]:
        """Failure reasons for one operation, including the determinism check."""
        problems = self.check_outputs(outcome)
        digest = self.digest(outcome)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append("outputs differ from the first operation with the same seed")
        return problems

    def check_outputs(self, outcome) -> list[str]:
        raise NotImplementedError

    def digest(self, outcome) -> str:
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose operation is a sequence of ``chbt`` invocations."""

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def op(self) -> list[int]:
        base = ["--config", str(self.ini_path), "--seed", str(self.seed)]
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.commands():
                codes.append(self.pkg.cli.main(base + argv))
        return codes

    def check_outputs(self, codes: list[int]) -> list[str]:
        problems = [f"command {i} exited with {rc}" for i, rc in enumerate(codes) if rc != 0]
        return problems or self.check_files()

    def check_files(self) -> list[str]:
        raise NotImplementedError

    def digest(self, codes) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in self.out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.out)).encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def fit_problems(self, fit_path: Path, truth: dict[str, float]) -> list[str]:
        label = fit_path.relative_to(self.out)
        if not fit_path.exists():
            return [f"{label} missing"]
        fit = json.loads(fit_path.read_text())
        problems = [] if fit["converged"] else [f"{label}: fit did not converge"]
        for name, true_value in truth.items():
            value, stderr = fit["params"][name]["value"], fit["params"][name]["stderr"]
            if stderr is None or not stderr > 0:
                problems.append(f"{label}: {name} has no standard error")
                continue
            offset = value - true_value
            if name == "phase":
                offset = math.remainder(offset, 2.0 * math.pi)
            if abs(offset) > PULL_LIMIT * stderr:
                problems.append(
                    f"{label}: {name} = {value:.6g} is {abs(offset) / stderr:.1f} "
                    f"sigma from the injected {true_value:.6g}"
                )
        return problems

    def delay_truth(self) -> dict[str, float]:
        scan = self.config.delay_scan
        return {"visibility": scan.visibility, "phase": scan.phase, "frequency": scan.beat_frequency}

    def tau_truth(self) -> dict[str, float]:
        scan = self.config.tau_scan
        return {
            "visibility": scan.visibility,
            "linewidth": scan.linewidth,
            "phase": scan.phase,
            "frequency": scan.beat_frequency,
        }


class ReproduceWorkload(CliWorkload):
    figure = ""

    def commands(self):
        return [["--out-dir", str(self.out), "reproduce", self.figure]]

    def check_files(self):
        names = [f"{self.figure}_{part}" for part in ("curve.csv", "fit.json", "plotdata.csv")]
        missing = [f"{name} missing" for name in names if not (self.out / name).exists()]
        truth = self.delay_truth() if self.figure == "fig2" else self.tau_truth()
        return missing or self.fit_problems(self.out / f"{self.figure}_fit.json", truth)


class Fig2Delay(ReproduceWorkload):
    name = "fig2-delay"
    why = "delay-scan study: same-bin sampler, segment split and zero-shift counts dominate; fit negligible"
    figure = "fig2"
    # 20 steps of 1 ms at 10 MHz per channel: about 0.4M click records
    ini = "[delay_scan]\ndwell = 1 ms\n"


class Fig3Shift(ReproduceWorkload):
    name = "fig3-shift"
    why = "shift-scan study: damped-kernel sampler, all-shifts histogram and 4-parameter fit; no fig2 path runs"
    figure = "fig3"
    # 0.5 s at 150 kHz per channel: about 0.15M click records, 207 whole-bin taus
    ini = "[tau_scan]\nduration = 0.5 s\n"


class FilesOffgrid(CliWorkload):
    name = "files-offgrid"
    why = "simulate/analyze/fit through text and binary stream files; off-grid taus force the per-tau counter"
    # tau_step is 6.5 stream bins, so 191 taus miss the all-shifts fast path
    ini = "[tau_scan]\nduration = 0.15 s\ntau_step = 0.13 us\n"

    def commands(self):
        argv = []
        for fmt in ("text", "binary"):
            out = self.out / fmt
            flag = ["--binary"] if fmt == "binary" else []
            argv += [
                ["--out-dir", str(out), "simulate", "--kind", "tau", *flag],
                ["--out-dir", str(out), "analyze", "--input", str(out / "manifest.json")],
                ["--out-dir", str(out), "fit", "--curve", str(out / "curve.csv")],
            ]
        return argv

    def check_files(self):
        text, binary = self.out / "text" / "curve.csv", self.out / "binary" / "curve.csv"
        if not (text.exists() and binary.exists()):
            return ["curve.csv missing"]
        problems = []
        if text.read_bytes() != binary.read_bytes():
            problems.append("text and binary chains wrote different curve.csv bytes")
        for fmt in ("text", "binary"):
            problems += self.fit_problems(self.out / fmt / "fit.json", self.tau_truth())
        return problems


class ProtocolExact(Workload):
    name = "protocol-exact"
    why = "exact Fock-space erasure pipelines and the HBT fringe; no stream layer runs"
    # a general tuning: every angle and phase away from the ideal tuning
    ini = (
        "[conversion]\n"
        "theta_31 = pi:0.33\ntheta_32 = pi:1.7\ntheta_2p2 = pi:0.4\ntheta_1p1 = pi:0.6\n"
        "phi_31 = 0.3 rad\nphi_32 = -1.1 rad\nphi_2p2 = 0.7 rad\nphi_1p1 = 2.0 rad\n"
    )
    delays = 50

    def __init__(self, package, work_dir, seed, ini=None, inputs: int = 200):
        super().__init__(package, work_dir, seed, ini)
        protocol = package.protocol
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(inputs, 2)) + 1j * rng.normal(size=(inputs, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        self.pairs = [(complex(a), complex(b)) for a, b in z]
        self.registry, self.arms = protocol.build_erasure_registry(self.config.modes.frequencies())
        self.general = protocol.ErasureDetectorConfig(settings=self.config.conversion)
        self.ideal = protocol.ErasureDetectorConfig.ideal()
        if self.general.is_ideal_tuning():
            raise ValueError("protocol-exact needs a general tuning in its INI")
        self.scenario = protocol.HbtScenario.balanced()
        self.t_delays = np.linspace(0.0, 20e-12, self.delays)

    def op(self):
        fock, protocol = self.pkg.fock, self.pkg.protocol
        clock = time.perf_counter
        registry, arms = self.registry, self.arms
        vacuum = fock.StateVector.vacuum(registry)
        amplitudes = np.empty((2, len(self.pairs)), dtype=complex)
        for k, (alpha, beta) in enumerate(self.pairs):
            state = fock.apply_creation(vacuum, arms.arm_a.f1).scaled(alpha).plus(
                fock.apply_creation(vacuum, arms.arm_a.f2).scaled(beta)
            )
            for row, detector in enumerate((self.general, self.ideal)):
                start = clock()
                run = protocol.run_erasure_pipeline(state, registry, arms, detector)
                self.latencies.append(clock() - start)
                amplitudes[row, k] = run.detection_amplitude
        curve = protocol.predicted_g2_curve(self.scenario, self.t_delays)
        return amplitudes, curve

    def check_outputs(self, outcome) -> list[str]:
        protocol = self.pkg.protocol
        amplitudes, curve = outcome
        alpha = np.array([a for a, _ in self.pairs])
        beta = np.array([b for _, b in self.pairs])
        closed = np.array([
            protocol.erasure_amplitude_closed_form(a, b, self.general.settings)
            for a, b in self.pairs
        ])
        problems = []
        worst_general = float(np.abs(amplitudes[0] - closed).max())
        if not worst_general < GENERAL_TOL:
            problems.append(f"general tuning off the closed form by {worst_general:.3g}")
        worst_ideal = float(np.abs(amplitudes[1] - (alpha + beta) / 2.0).max())
        if not worst_ideal < IDEAL_TOL:
            problems.append(f"ideal tuning off (alpha+beta)/2 by {worst_ideal:.3g}")
        weights = [self.scenario.with_delay(t).delayed_weights() for t in self.t_delays]
        probs = np.array([abs(a + b) ** 2 for a, b in weights])
        worst_curve = float(np.abs(curve - probs / probs.mean()).max())
        if not worst_curve < CURVE_TOL:
            problems.append(f"predicted g2 curve off |alpha'+beta'|^2 by {worst_curve:.3g}")
        return problems

    def digest(self, outcome) -> str:
        amplitudes, curve = outcome
        return hashlib.sha256(amplitudes.tobytes() + curve.tobytes()).hexdigest()


WORKLOADS = {w.name: w for w in (Fig2Delay, Fig3Shift, FilesOffgrid, ProtocolExact)}
