"""Span recorder for the traced pass.

The tracer wraps the public functions of each mixnorm module where the
calling modules bind them (``mixnorm.inequalities.fourier``,
``mixnorm.sweeps.mixed_norm``, ...), plus a few class methods
(``SeparableSum.evaluate_grid``, ``SampledFunction.__post_init__``). Each
call records a span: name, layer, start, end and parent span. Spans stay in
memory and are written out when the benchmark ends.

A layer's self time is the sum of its spans' durations minus the time their
child spans cover. Time inside the pass that no span covers is reported as
``bench.other``; bookkeeping that costs real time (input fingerprints) runs
inside its own ``bench.trace`` spans, so it is not charged to a layer. The
self times of all layers plus ``bench.other`` add up to the traced wall time.

Computed figures (FFT operation counts and bytes) come from array shapes,
not from hardware counters, and are labelled as computed.
"""

from __future__ import annotations

import inspect
import json
import math
import time
import zlib
from collections import Counter, defaultdict

import numpy as np

import mixnorm
from mixnorm import (
    cli,
    exponents,
    gaussians,
    grids,
    inequalities,
    mixed_norms,
    sampling,
    sweeps,
    transform,
)

#: Modules whose ``__all__`` functions are wrapped, keyed by layer name.
LAYER_MODULES = {
    "exponents": exponents,
    "gaussians": gaussians,
    "sampling": sampling,
    "transform": transform,
    "mixed_norms": mixed_norms,
    "inequalities": inequalities,
    "sweeps": sweeps,
    "cli": cli,
}

#: Class methods wrapped on the class itself, so every caller sees them.
LAYER_METHODS = {
    "gaussians": [
        (gaussians.SeparableSum, "evaluate_grid"),
        (gaussians.SeparableSum, "fourier"),
        (gaussians.GaussianMix, "evaluate"),
        (gaussians.GaussianMix, "fourier"),
        (gaussians.GaussianMix, "dilate"),
    ],
    "grids": [(grids.SampledFunction, "__post_init__")],
}

#: Modules whose bindings are patched: every mixnorm module plus the package.
BINDING_MODULES = [mixnorm, *LAYER_MODULES.values(), grids]

#: The three top-level modules whose self time is report assembly, sweep
#: orchestration and CLI work; together they make the ``harness`` layer.
HARNESS = ("inequalities", "sweeps", "cli")

#: First call of each sweep point, keyed by the sweep function that makes it.
#: A point runs from its anchor call to the next anchor or the sweep's end.
POINT_ANCHORS = {
    "blowup_sweep": "GaussianMix.dilate",
    "delta_divergence_demo": "near_delta_family",
    "necessity_sweep": "SeparableSum.evaluate_grid",
}

CHECK_NAMES = {
    "check_restriction",
    "check_bilinear",
    "check_variant",
    "check_same_order",
    "check_hausdorff_young",
}


def _fingerprint(values: np.ndarray) -> tuple:
    buffer = np.ascontiguousarray(values)
    return values.shape, zlib.crc32(buffer), zlib.adler32(buffer)


def _transform_axes(F, axes) -> tuple[int, ...]:
    grid = F.grid
    if axes in (None, "all"):
        return grid.first_axes + grid.second_axes
    return grid.first_axes if axes == "first" else grid.second_axes


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.counts: Counter = Counter()
        self.transform_inputs: set = set()
        self.norm_inputs: set = set()
        self.point_marks: dict[int, list[float]] = defaultdict(list)

    # ------------------------------------------------------------ recording

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        if parent >= 0 and POINT_ANCHORS.get(self.spans[parent][0]) == name:
            self.point_marks[parent].append(self.spans[index][2])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _bookkeep(self, work, *args) -> None:
        """Run costly tracer work inside a ``bench.trace`` span."""
        index = self._open("fingerprint", "bench.trace")
        try:
            work(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer._before(name, args, kwargs)
            index = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            tracer._after(name, layer, index, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --------------------------------------------------------------- counts

    def _before(self, name: str, args, kwargs) -> None:
        c = self.counts
        if name in ("fourier", "inverse_fourier"):
            F = args[0]
            axes = args[1] if len(args) > 1 else kwargs.get("axes", "all")
            size = F.values.size
            c["transform.calls"] += 1
            c["transform.points"] += size
            for axis in _transform_axes(F, axes):
                n = F.values.shape[axis]
                c["transform.fft_flop"] += 5 * size * math.log2(n)
                # one complex128 read and one write of the array per axis pass
                c["transform.bytes"] += 32 * size
            if name == "fourier":
                self._bookkeep(self._note_transform, F, axes)
        elif name == "slice_second_zero":
            c["transform.slice_calls"] += 1
            c["transform.slice_in_points"] += args[0].values.size
        elif name == "marginal_second":
            c["transform.marginal_calls"] += 1
        elif name in ("mixed_norm", "plain_norm"):
            F = args[0]
            spec = args[1] if len(args) > 1 else next(iter(kwargs.values()))
            c["mixed_norms.calls"] += 1
            c["mixed_norms.points"] += F.values.size
            self._bookkeep(self._note_norm, F, spec)
        elif name == "SampledFunction.__post_init__":
            c["grids.calls"] += 1

    def _after(self, name: str, layer: str, index: int, result) -> None:
        c = self.counts
        if name == "slice_second_zero":
            c["transform.slice_out_points"] += result.values.size
        elif layer == "sampling":
            parent = self.spans[index][4]
            if parent < 0 or self.spans[parent][1] != "sampling":
                c["sampling.calls"] += 1
                if isinstance(result, grids.SampledFunction):
                    c["sampling.points"] += result.values.size

    def _note_transform(self, F, axes) -> None:
        self.transform_inputs.add((_fingerprint(F.values), F.side, str(axes)))

    def _note_norm(self, F, spec) -> None:
        self.norm_inputs.add((_fingerprint(F.values), F.side, repr(spec)))

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        wrappers = {}
        for layer, module in LAYER_MODULES.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self._wrap(fn, name, layer)
        for module in BINDING_MODULES:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[value])
        for layer, methods in LAYER_METHODS.items():
            for cls, name in methods:
                fn = cls.__dict__[name]
                self._patches.append((cls, name, fn))
                setattr(cls, name, self._wrap(fn, f"{cls.__name__}.{name}", layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---------------------------------------------------------- aggregation

    def self_times(self) -> dict[str, float]:
        """Self time per layer: duration minus the time child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (_, layer, start, end, _), covered in zip(self.spans, child):
            totals[layer] += (end - start) - covered
        return dict(totals)

    def top_level_time(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent < 0)

    def check_latencies_ms(self) -> list[float]:
        """One latency per ratio evaluation: a check_* span or a sweep point."""
        latencies = [1e3 * (end - start) for name, _, start, end, _ in self.spans
                     if name in CHECK_NAMES]
        for sweep_index, marks in self.point_marks.items():
            bounds = marks + [self.spans[sweep_index][3]]
            latencies += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]
        return latencies

    def sweep_point_count(self) -> int:
        return sum(len(marks) for marks in self.point_marks.values())

    def write(self, path: str) -> None:
        names = sorted({(s[0], s[1]) for s in self.spans})
        index = {key: i for i, key in enumerate(names)}
        payload = {
            "fields": ["name_index", "start_s", "end_s", "parent"],
            "names": [list(key) for key in names],
            "spans": [[index[(s[0], s[1])], s[2], s[3], s[4]] for s in self.spans],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
