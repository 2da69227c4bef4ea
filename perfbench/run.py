"""Benchmark of the chromatic_hbt color-erasure chain.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig2-delay --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.

One closed-loop client in this process runs one operation after another
for ``--seconds`` and checks every operation's outputs.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it spends half the
time untraced and half with every layer boundary traced, and reports the
per-layer metrics.  End-to-end times are normalized by a fixed reference
computation timed around each sample (see ``reference``).  The last line of
standard output is one JSON object; a full result file with provenance goes
to ``.perfbench_work/results/``.  The exit code is 0 only when every
operation passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 11
# the CPUs this process may use, read before ``pin_to_one_cpu`` narrows them
AVAILABLE_CPUS = sorted(os.sched_getaffinity(0))
# The host's CPU speed drifts: a fixed Python loop ran up to 1.5 times
# slower in some milliseconds than in others, and its fastest time drifted by
# 17% over minutes.  Over five seeds the median operation of a 25 s run spread
# by 0.27 (IQR/median) on fig3-shift and protocol-exact.  So each sample is
# divided by the time of ``reference``, a fixed computation run right before
# and right after it, and reported as seconds at REFERENCE_S per reference
# (about the reference's time on an unloaded 2.0 GHz Xeon vCPU).  The ratio
# moves with the program, not with the host: over ten seeds its spread was
# 0.025 to 0.083, against 0.09 to 0.38 for the raw median times.
REFERENCE_S = 0.015
REFERENCE_SMALL = np.random.default_rng(0).random(20_000)
REFERENCE_LARGE = np.random.default_rng(1).random(150_000)
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "peak_mem_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "streams.simulate_s": "s",
    "streams.records": "count",
    "streams.split_s": "s",
    "streams.write_text_s": "s",
    "streams.read_text_s": "s",
    "streams.write_binary_s": "s",
    "streams.read_binary_s": "s",
    "streams.bytes": "B",
    "analysis.scan_delay_s": "s",
    "analysis.scan_tau_s": "s",
    "analysis.count_calls": "count",
    "analysis.count_s": "s",
    "analysis.csv_s": "s",
    "fitting.fit_s": "s",
    "fitting.guess_s": "s",
    "fitting.lm_iterations": "count",
    "fitting.points": "count",
    "protocol.pipeline_s": "s",
    "protocol.hbt_s": "s",
    "protocol.curve_s": "s",
    "protocol.calls": "count",
    "elements.self_s": "s",
    "fock.self_s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "host.reference_s": "s",
    "host.raw_wall_s": "s",
    "records_per_s": "1/s",
    "pipelines_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_p99": "ms",
    "call_samples": "count",
    "fail_frac": "ratio",
}

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import chromatic_hbt.cli as cli; cli.RunConfig.load(sys.argv[2])"
)


def load_package():
    """Import chromatic_hbt from this checkout's src/, never from elsewhere."""
    if not (SRC / "chromatic_hbt" / "__init__.py").is_file():
        raise ImportError(f"no chromatic_hbt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chromatic_hbt.cli  # noqa: F401  (imports every layer)

    package = sys.modules["chromatic_hbt"]
    if Path(package.__file__).resolve().parent != SRC / "chromatic_hbt":
        raise ImportError(f"chromatic_hbt resolved to {package.__file__}, not {SRC}")
    return package


def measure_setup(ini_path: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the INI."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(ini_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    # a blocking wait: Popen.wait with a timeout polls in steps of up to
    # 50 ms, which would quantize the sample
    code = child.wait()
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up interpreter exited with {code}")
    return wall


def reference() -> float:
    """Wall time of a fixed mix of the kinds of work the program does.

    An integer loop, dict updates keyed by tuples with complex values, an
    in-cache numpy sort and an out-of-cache numpy cumulative sum.  Each kind
    slows down by its own factor when the host is busy; the mix follows the
    workloads more closely than any one of them.
    """
    start = time.perf_counter()
    for _ in range(10):
        total = 0
        for i in range(5000):
            total += i * i % 7
        amplitudes: dict[tuple[int, int, int], complex] = {}
        for i in range(700):
            key = (i % 7, i % 11, i % 13)
            amplitudes[key] = amplitudes.get(key, 0j) + complex(i, 1.0) * 0.5
        np.sort(REFERENCE_SMALL)
        np.cumsum(REFERENCE_LARGE)
    return time.perf_counter() - start


def normalized(samples: list[tuple[float, float]]) -> float:
    """Mean wall over mean reference of (wall, reference) samples, in seconds.

    A ratio of sums, not a median of ratios: the host's slow spells last
    milliseconds, so they even out over a run's sums but not over a sample.
    """
    return sum(wall for wall, _ in samples) / sum(ref for _, ref in samples) * REFERENCE_S


def provenance(package, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "chromatic_hbt": getattr(package, "__version__", None),
        "cores": len(AVAILABLE_CPUS),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "workload_ini": {name: cls.ini for name, cls in WORKLOADS.items()},
    }


class Runner:
    """Runs operations of one workload and keeps their timings and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_bytes = 0

    def one(self, tracer: Tracer | None = None, op_id: int = 0, memory: bool = False) -> float:
        """Run and check one operation; with memory, record its peak allocation."""
        self.workload.reset()
        problems: list[str]
        if memory:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            with tracer.operation(op_id) if tracer else contextlib.nullcontext():
                outcome = self.workload.op()
            wall = time.perf_counter() - start
            if memory:
                self.peak_bytes = tracemalloc.get_traced_memory()[1]
            problems = self.workload.check(outcome)
        except Exception:  # a program error fails the operation, the run goes on
            wall = time.perf_counter() - start
            problems = [traceback.format_exc()]
        finally:
            if memory:
                tracemalloc.stop()
        self.attempted += 1
        if problems:
            self.failures.append(f"op {self.attempted}: " + "; ".join(problems))
        return wall

    def window(
        self, seconds: float, tracer: Tracer | None = None, setup: list | None = None
    ) -> list[tuple[float, float]]:
        """(wall, reference) of each operation run for ``seconds``.

        With a ``setup`` list, set-up samples spread over the window are
        appended to it, as (wall, reference) too.  A sample's reference is
        the mean of the reference runs right before and right after it.
        """
        before = reference()

        def timed(wall: float) -> tuple[float, float]:
            nonlocal before
            after = reference()
            sample, before = (wall, (before + after) / 2), after
            return sample

        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(timed(self.one(tracer, len(samples))))
            due = SETUP_SAMPLES * (time.perf_counter() - start) / seconds
            if setup is not None and len(setup) < due:
                setup.append(timed(measure_setup(self.workload.ini_path)))
        while setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(timed(measure_setup(self.workload.ini_path)))
        return samples


def layer_metrics(
    runner: Runner, untraced: list[tuple[float, float]], latencies: list[float], tracer: Tracer
) -> dict[str, float]:
    ops = sorted(tracer.op_walls())
    selfs, counts = tracer.self_times(), tracer.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    for op in ops:
        for source in (selfs[op], counts.get(op, {})):
            for name, value in source.items():
                metrics[name] += value
    # divide once, so that a count repeated on every operation stays exact
    metrics = {name: value / len(ops) for name, value in metrics.items()}
    metrics["trace.wall_s"] = statistics.fmean(tracer.op_walls().values())
    walls = [wall for wall, _ in untraced]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(walls)
    metrics["host.reference_s"] = statistics.median(ref for _, ref in untraced)
    metrics["host.raw_wall_s"] = statistics.median(walls)
    wall = normalized(untraced)
    metrics["records_per_s"] = metrics["streams.records"] / wall
    metrics["pipelines_per_s"] = metrics["protocol.calls"] / wall
    if latencies:
        metrics["call_ms_p50"] = float(np.percentile(latencies, 50)) * 1e3
        metrics["call_ms_p99"] = float(np.percentile(latencies, 99)) * 1e3
    metrics["call_samples"] = len(latencies)
    metrics["fail_frac"] = len(runner.failures) / runner.attempted
    return metrics


def pin_to_one_cpu() -> None:
    """Keep this process and its set-up children on one CPU, next to their references."""
    os.sched_setaffinity(0, {AVAILABLE_CPUS[-1]})


def run(name: str, seed: int, seconds: float, trace: bool, **overrides) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full result record)."""
    package = load_package()
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    workload = WORKLOADS[name](package, work, seed, **overrides)
    runner = Runner(workload)
    # warm-up: fills caches, fixes the determinism reference and, traced by
    # tracemalloc (slower, so untimed), gives the operation's peak memory
    runner.one(memory=True)
    workload.latencies = []
    record: dict = {"workload": name, "why": workload.why, "ini": workload.ini_text,
                    "seconds": seconds, "trace": trace}
    if trace:
        untraced = runner.window(seconds / 2)
        latencies, workload.latencies = workload.latencies, []
        with Tracer() as tracer:
            traced = runner.window(seconds / 2, tracer)
        metrics = layer_metrics(runner, untraced, latencies, tracer)
        record["traced_samples"] = traced
        record["spans"] = tracer.spans
        units = PER_LAYER
    else:
        setup: list[tuple[float, float]] = []
        untraced = runner.window(seconds, setup=setup)
        record["setup_samples"] = setup
        metrics = {
            "wall_s": normalized(untraced),
            "peak_mem_mb": runner.peak_bytes / 2**20,
            "setup_s": normalized(setup),
        }
        record["raw"] = {
            "wall_s": statistics.median(wall for wall, _ in untraced),
            "setup_s": statistics.median(wall for wall, _ in setup),
            "reference_s": statistics.median(ref for _, ref in untraced + setup),
        }
        units = END_TO_END
    record["untraced_samples"] = untraced
    record["failures"] = runner.failures
    line = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    record["provenance"] = provenance(package, seed)
    record["result"] = line
    return line, record


def main(argv: list[str] | None = None, **overrides) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            line, record = run(name, args.seed, args.seconds, bool(args.trace), **overrides)
        except ImportError as exc:
            print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
            return 2
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record))
        for failure in record["failures"]:
            print(f"FAILED {name} {failure}", file=sys.stderr)
        for key, metric in line["metrics"].items():
            print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
        for key, value in record.get("raw", {}).items():
            print(f"{name} raw {key} = {value:.6g} s")
        lines[name] = line
    if len(lines) > 1:
        # all workloads: one line, metric names prefixed with the workload
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{n}/{k}": m for n, v in lines.items() for k, m in v["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
