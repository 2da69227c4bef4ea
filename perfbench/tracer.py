"""Span tracer that times chromatic_hbt layers from outside the package.

The package modules import each other's functions by name
(``from .streams import simulate_stream``), so a layer boundary is patched
on every module namespace that holds the function, not only where it is
defined.  Each call records ``[name, start, end, parent, op]``; spans stay
in memory until the run ends.  ``Tracer.remove`` restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function and the layer metric its
# self time is charged to.  Methods are given as "Class.method".
LAYERS = {
    ("cli", "main"): "cli.self_s",
    ("config", "RunConfig.load"): "config.load_s",
    ("streams", "simulate_stream"): "streams.simulate_s",
    ("streams", "TdcStream.split_segments"): "streams.split_s",
    ("streams", "write_stream"): "streams.write_{fmt}_s",
    ("streams", "read_stream"): "streams.read_{fmt}_s",
    ("analysis", "scan_delay"): "analysis.scan_delay_s",
    ("analysis", "scan_tau"): "analysis.scan_tau_s",
    ("analysis", "count_coincidences"): "analysis.count_s",
    ("analysis", "G2Curve.to_csv"): "analysis.csv_s",
    ("analysis", "G2Curve.from_csv"): "analysis.csv_s",
    ("fitting", "fit_delay_model"): "fitting.fit_s",
    ("fitting", "fit_tau_model"): "fitting.fit_s",
    ("fitting", "initial_guess"): "fitting.guess_s",
    ("protocol", "run_erasure_pipeline"): "protocol.pipeline_s",
    ("protocol", "hbt_coincidence_amplitude"): "protocol.hbt_s",
    ("protocol", "predicted_g2_curve"): "protocol.curve_s",
    ("elements", "beamsplitter"): "elements.self_s",
    ("elements", "evolve"): "elements.self_s",
    ("elements", "sfg_unitary"): "elements.self_s",
    ("elements", "spectral_filter"): "elements.self_s",
    ("elements", "phase_delay"): "elements.self_s",
    ("fock", "apply_creation"): "fock.self_s",
    ("fock", "StateVector.vacuum"): "fock.self_s",
}
PACKAGE = "chromatic_hbt"
ROOT = "bench.self_s"


def _stream_format_written(args, kwargs) -> str:
    binary = kwargs.get("binary", args[2] if len(args) > 2 else False)
    return "binary" if binary else "text"


def _stream_format_read(args, kwargs) -> str:
    magic = sys.modules[f"{PACKAGE}.streams"].BINARY_MAGIC
    with open(args[0] if args else kwargs["path"], "rb") as fh:
        return "binary" if fh.read(len(magic)) == magic else "text"


class Tracer:
    """Collects spans and per-operation counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.op][key] += amount

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """One benchmark operation: the root span of everything it calls."""
        self.op = op_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)

    # -- patching -------------------------------------------------------
    def _wrap(self, metric: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = metric
            if "{fmt}" in metric:
                reader = _stream_format_written if "write" in metric else _stream_format_read
                name = metric.format(fmt=reader(args, kwargs))
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._after(name, args, kwargs, result)
            return result

        return traced

    def _after(self, name: str, args, kwargs, result) -> None:
        """Exact counts taken at the boundary, outside the span's time."""
        if name == "streams.simulate_s":
            self.count("streams.records", len(result))
        elif name.startswith("streams.write_"):
            self.count("streams.bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))
        elif name == "analysis.count_s":
            self.count("analysis.count_calls")
        elif name == "fitting.fit_s":
            self.count("fitting.lm_iterations", result.iterations)
            self.count("fitting.points", len(args[0] if args else kwargs["curve"]))
        elif name == "protocol.pipeline_s":
            self.count("protocol.calls")

    def install(self) -> "Tracer":
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        for (module, attr), metric in LAYERS.items():
            owner = modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(metric, raw.__func__))
                else:
                    patched = self._wrap(metric, raw)
                self._patch(cls, method, raw, patched)
                continue
            original = getattr(owner, attr)
            patched = self._wrap(metric, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, patched)
        return self

    def _patch(self, owner, key: str, original, patched) -> None:
        setattr(owner, key, patched)
        self._restore.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False

    # -- reduction ------------------------------------------------------
    def self_times(self) -> dict[int, dict[str, float]]:
        """Per operation: each metric's span time minus its children's spans."""
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, op in self.spans:
            duration = end - start
            per_op[op][name] += duration
            if parent >= 0:
                per_op[op][self.spans[parent][0]] -= duration
        return per_op

    def op_walls(self) -> dict[int, float]:
        return {op: end - start for name, start, end, _, op in self.spans if name == ROOT}
