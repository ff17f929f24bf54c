"""Span tracing of vqround's layers from outside the package.

``Tracer.install`` wraps every public function of the traced modules
and rebinds the wrapper in every ``vqround.*`` namespace that holds the
original, so a call made through ``from .optim import adam_step`` in
another module is caught as well as one made through ``optim.adam_step``.
Each call becomes a span kept in a list in memory; ``uninstall``
restores the originals. Allocation peaks come from ``tracemalloc`` and
are taken only while the tracer is installed.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

# Layers whose public functions are wrapped. The ``cli`` layer is traced
# by the harness, one span per ``vqround.cli.main`` call.
LIBRARY_LAYERS = ("tensor_io", "quantize", "hessian", "reparam", "optim", "distill", "analysis")

# Span record slots. PEAK_BEFORE is the traced-memory peak just before
# the span reset it, which the enclosing span still needs; CHILD_PEAK is
# the highest absolute peak seen inside any child; ALLOC is the span's
# peak allocation above the memory in use when it started.
NAME, START, END, PARENT, PEAK_BEFORE, BASE, CHILD_PEAK, ALLOC = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.kept: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Observers run after a call returns: name -> fn(args, kwargs, result).
        self._observers = {
            "tensor_io.load_tensor": self._count_read,
            "tensor_io.load_indices_u32": self._count_read,
            "tensor_io.save_tensor": self._count_written,
            "tensor_io.save_indices_u32": self._count_written,
            "tensor_io.write_csv": self._count_written,
            "hessian.accumulate_hessian": self._count_hessian_flops,
            "reparam.kmeans_fit": self._count_dist_matrix,
            "distill.build_student": self._keep_codebooks,
        }

    # -- observers ---------------------------------------------------
    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_read(self, name, args, kwargs, result):
        self._add("tensor_io.bytes_read", os.path.getsize(kwargs.get("path", args[0] if args else None)))

    def _count_written(self, name, args, kwargs, result):
        self._add("tensor_io.bytes_written", os.path.getsize(kwargs.get("path", args[-1] if args else None)))

    def _count_hessian_flops(self, name, args, kwargs, result):
        n, N = args[0].shape
        self._add("hessian.accumulate_gflop", 2.0 * n * n * N / 1e9)

    def _count_dist_matrix(self, name, args, kwargs, result):
        L = args[0].shape[0]
        k = kwargs.get("k", args[1] if len(args) > 1 else 0)
        mb = L * k * 8 / 1e6
        self.counters["reparam.dist_matrix_mb"] = max(self.counters.get("reparam.dist_matrix_mb", 0.0), mb)

    def _keep_codebooks(self, name, args, kwargs, result):
        # Training rebinds the student's centroids, so keep them as built.
        self.kept[name] = [replace(layer.codebook, centroids=layer.codebook.centroids.copy())
                           for layer in result.layers]

    # -- spans -------------------------------------------------------
    def _enter(self, name) -> list:
        _, peak_before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, peak_before, base, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _exit(self, rec) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        _, peak = tracemalloc.get_traced_memory()
        top = max(peak, rec[CHILD_PEAK])
        rec[ALLOC] = top - rec[BASE]
        if rec[PARENT] >= 0:
            parent = self.spans[rec[PARENT]]
            parent[CHILD_PEAK] = max(parent[CHILD_PEAK], rec[PEAK_BEFORE], top)

    @contextmanager
    def span(self, name):
        """A span opened by the harness itself, around a call into a layer."""
        rec = self._enter(name)
        try:
            yield
        finally:
            self._exit(rec)

    def _wrap(self, name, fn):
        enter, exit_ = self._enter, self._exit
        observer = self._observers.get(name)

        def traced(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(rec)
            if observer is not None:
                observer(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall -----------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every traced layer and start tracemalloc."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LIBRARY_LAYERS:
            mod = sys.modules[f"vqround.{layer}"]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and not attr.startswith("_") and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in sorted(sys.modules.items()):
            if modname != "vqround" and not modname.startswith("vqround."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans, self.counters, self.kept, self._stack = [], {}, {}, []


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values) -> tuple[str, float]:
    """The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(values) * (1.0 - q) >= 10:
            return label, percentile(values, q)
    return "p50", percentile(values, 0.5)


def step_intervals(spans, loop: str) -> list[float]:
    """Milliseconds between successive optimizer steps inside ``loop`` spans.

    A step starts at the first ``optim.adam_step`` call after any other
    call under the same loop span (one call per layer follows), so the
    interval survives a fused loss-and-gradient call.
    """
    last_child: dict[int, str] = {}
    marks: dict[int, list[float]] = {}
    loops = {i for i, rec in enumerate(spans) if rec[NAME] == loop}
    for rec in spans:
        parent = rec[PARENT]
        if parent not in loops:
            continue
        if rec[NAME] == "optim.adam_step" and last_child.get(parent) != "optim.adam_step":
            marks.setdefault(parent, []).append(rec[START])
        last_child[parent] = rec[NAME]
    out = []
    for starts in marks.values():
        out.extend(1e3 * (b - a) for a, b in zip(starts, starts[1:]))
    return out


def layer_times(spans, wall_s: float) -> dict[str, float]:
    """Per-layer self times, per-function totals and call counts of one traced repetition.

    A span's self time is its duration minus its children's. The layers'
    self times plus ``trace.glue_s`` (time outside every root span) add
    up to ``wall_s``.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, float] = {}
    roots = 0.0
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        layer = rec[NAME].split(".", 1)[0]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + dur - child[i]
        out[f"{rec[NAME]}:s"] = out.get(f"{rec[NAME]}:s", 0.0) + dur
        out[f"{rec[NAME]}:calls"] = out.get(f"{rec[NAME]}:calls", 0) + 1
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out[f"{layer}.peak_alloc_mb"] = max(out.get(f"{layer}.peak_alloc_mb", 0.0), rec[ALLOC] / 1e6)
        if rec[PARENT] < 0:
            roots += dur
    out["trace.glue_s"] = wall_s - roots
    out["trace.wall_s"] = wall_s
    return out
