"""Recorded outputs of a fixed set of ``chbt`` runs, and the runs that make them.

Each run is one ``chbt`` command at seeds 1-3 on a small config: the
simulate/analyze chains of a tau stream and of a delay scan, each as text
and as binary stream files, plus ``reproduce fig2`` and ``reproduce fig3``,
and ``protocol --dump-state`` at the default (ideal) tuning and at a general
one.  Every stream file, manifest, curve file and state file is recorded as
its SHA-256 digest, and every fit as its values, since fit sums may move in
their last bits with the BLAS thread count.  numpy does not promise the same
Generator streams across versions (NEP 19), so the record of the stream runs
is kept per numpy major.minor version.  The protocol's states are Python
``math``/``cmath`` floats (a unitary's entries are written and read back as
Python numbers, never computed by numpy), so their record is kept once, under
``NUMPY_FREE``, and checked on every numpy version.

Running this file records the installed numpy version's outputs, and the
numpy-free ones, into output_digests.json, next to it, keeping the other
versions' records:

    PYTHONPATH=src python tests/output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from chromatic_hbt.cli import main

RECORD_PATH = Path(__file__).with_name("output_digests.json")
SEEDS = (1, 2, 3)
CONFIGS = {
    # off-grid taus: 6.5 stream bins a step
    "tau": "[tau_scan]\nduration = 0.15 s\ntau_step = 0.13 us\n",
    "delay": "[delay_scan]\ndwell = 0.2 ms\n",
    "fig2": "[delay_scan]\ndwell = 1 ms\n",
    "fig3": "[tau_scan]\nduration = 0.5 s\n",
    "ideal": "",
    # every angle and phase off the ideal tuning, as in CI's general protocol run
    "general": (
        "[conversion]\n"
        "theta_31 = pi:0.33\ntheta_32 = pi:1.7\ntheta_2p2 = pi:0.4\ntheta_1p1 = pi:0.6\n"
        "phi_31 = 0.3 rad\nphi_32 = -1.1 rad\nphi_2p2 = 0.7 rad\nphi_1p1 = 2.0 rad\n"
    ),
}
# (run directory, config, chbt arguments); {out} is the run directory
RUNS = (
    *(
        step
        for kind in ("tau", "delay")
        for fmt, flag in (("text", []), ("binary", ["--binary"]))
        for step in (
            (f"{kind}-{fmt}", kind, ["simulate", "--kind", kind, *flag]),
            (f"{kind}-{fmt}", kind, ["analyze", "--input", "{out}/manifest.json"]),
        )
    ),
    ("tau-text", "tau", ["fit", "--curve", "{out}/curve.csv"]),
    ("tau-binary", "tau", ["fit", "--curve", "{out}/curve.csv"]),
    ("fig2", "fig2", ["reproduce", "fig2"]),
    ("fig3", "fig3", ["reproduce", "fig3"]),
    ("protocol-ideal", "ideal", ["protocol", "--dump-state"]),
    ("protocol-general", "general", ["protocol", "--dump-state"]),
)
# the record key of the runs whose bytes no numpy arithmetic reaches
NUMPY_FREE = "numpy-free"


def numpy_key() -> str:
    """The numpy major.minor version that a record is kept under."""
    return ".".join(np.__version__.split(".")[:2])


def record_key(command: str) -> str:
    """The key that the record of a run of `chbt command` is kept under."""
    return NUMPY_FREE if command == "protocol" else numpy_key()


def _is_fit(path: Path) -> bool:
    return path.name.endswith("fit.json")


def _fit_values(path: Path) -> dict:
    """A fit's values by name: chi2, dof, converged, and each parameter's value and stderr."""
    fit = json.loads(path.read_text())
    values = {"chi2": fit["chi2"], "dof": fit["dof"], "converged": fit["converged"]}
    for name, param in fit["params"].items():
        values[f"{name}.value"] = param["value"]
        values[f"{name}.stderr"] = param["stderr"]
    return values


def produce(root: Path) -> dict:
    """Run every command at every seed under root; by record key, the exit
    codes, digests and fits of its runs."""
    keys = {run: record_key(args[0]) for run, _, args in RUNS}
    produced = {key: {"codes": {}, "digests": {}, "fits": {}} for key in keys.values()}
    for seed in SEEDS:
        base = root / f"seed{seed}"
        base.mkdir(parents=True)
        for name, text in CONFIGS.items():
            (base / f"{name}.ini").write_text(text)
        for run, config, args in RUNS:
            out = base / run
            argv = ["--config", str(base / f"{config}.ini"), "--seed", str(seed), "--out-dir", str(out)]
            argv += [arg.format(out=out) for arg in args]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                produced[keys[run]]["codes"][f"seed{seed}/{run} {args[0]}"] = main(argv)
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix != ".ini"):
        name = path.relative_to(root).as_posix()
        record = produced[keys[name.split("/")[1]]]
        if _is_fit(path):
            record["fits"][name] = _fit_values(path)
        elif not path.name.endswith("_plotdata.csv"):  # its model column is the fit's
            record["digests"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return produced


def load_records() -> dict:
    return json.loads(RECORD_PATH.read_text()) if RECORD_PATH.exists() else {}


def record() -> None:
    records = load_records()
    with tempfile.TemporaryDirectory() as tmp:
        produced = produce(Path(tmp))
    records.update(produced)
    RECORD_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    for key, got in produced.items():
        print(f"recorded {len(got['digests'])} digests and {len(got['fits'])} fits "
              f"under {key!r} in {RECORD_PATH}")


if __name__ == "__main__":
    record()
