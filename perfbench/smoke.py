"""Smoke check of the benchmark itself, kept outside the test suite.

Usage, from the repository root:

    python3 perfbench/smoke.py

Runs each workload at a tiny size for one second in both trace modes and
asserts that every metric named in BENCHMARK.json is printed with its unit,
that traced self times add up to the traced operation time, and that the
count of per-tau counter calls shows which scan path ran.
Then it breaks the program's output on purpose and asserts that the run
reports failed operations, a nonzero fail_frac and a nonzero exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import run

TINY = {
    "fig2-delay": {"ini": "[delay_scan]\ndwell = 0.5 ms\n"},
    "fig3-shift": {"ini": "[tau_scan]\nduration = 0.3 s\n"},
    "files-offgrid": {"ini": "[tau_scan]\nduration = 0.2 s\ntau_step = 0.13 us\n"},
    "protocol-exact": {"inputs": 20},
}


def bench(workload: str, trace: int) -> tuple[int, dict]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(argv, **TINY[workload])
    return code, json.loads(captured.getvalue().splitlines()[-1])


# count_coincidences calls per operation: which scan path ran
COUNT_CALLS = {"fig2-delay": 20, "fig3-shift": 0, "files-offgrid": 2 * 191, "protocol-exact": 0}


def check_accounting(workload: str, metrics: dict[str, float]) -> None:
    """Self times of all layers sum to the traced op time; the path counts hold."""
    self_times = [
        value for name, value in metrics.items()
        if run.PER_LAYER[name] == "s" and not name.startswith(("trace.", "host."))
    ]
    assert abs(sum(self_times) - metrics["trace.wall_s"]) < 1e-9 * metrics["trace.wall_s"] + 1e-9
    assert metrics["analysis.count_calls"] == COUNT_CALLS[workload], (workload, metrics)


@contextlib.contextmanager
def broken_outputs(package):
    """Double every fitted frequency and nudge every detection amplitude."""
    fitting, protocol = package.fitting, package.protocol
    canonicalize, pipeline = fitting.canonicalize, protocol.run_erasure_pipeline

    def bad_canonicalize(model, params):
        p = canonicalize(model, params)
        p[-1] *= 2.0  # the frequency is the last parameter of both models
        return p

    def bad_pipeline(*args, **kwargs):
        result = pipeline(*args, **kwargs)
        result.detection_amplitude += 1e-9
        return result

    fitting.canonicalize, protocol.run_erasure_pipeline = bad_canonicalize, bad_pipeline
    try:
        yield
    finally:
        fitting.canonicalize, protocol.run_erasure_pipeline = canonicalize, pipeline


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, line = bench(workload, trace)
            assert code == 0 and line["correct"] and line["failed"] == 0, (workload, trace, line)
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            assert printed == expected[trace], (workload, trace, printed)
            values = [m["value"] for m in line["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values), (workload, trace)
            if trace == 0:
                assert all(v > 0 for v in values), (workload, line)
            else:
                check_accounting(workload, {k: m["value"] for k, m in line["metrics"].items()})
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics with units")
    package = run.load_package()
    with broken_outputs(package):
        for workload in run.WORKLOADS:
            code, line = bench(workload, 1)
            fail_frac = line["metrics"]["fail_frac"]["value"]
            assert code != 0 and not line["correct"] and fail_frac > 0, (workload, line)
            print(f"ok   {workload} broken output: fail_frac = {fail_frac:g}, exit code {code}")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
