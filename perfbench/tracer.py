"""Span tracer that measures the package's layers from outside.

``Tracer.installed()`` rebinds selected public names in the modules that look
them up (for example ``stiefelmean.averaging.lift``) to timing wrappers, and
restores the originals on exit. Nothing in the package changes. Each wrapper
records one span: name, start, end, parent span id and the id of the
benchmark operation that caused it. Aggregates (calls, inclusive and self
time, averaging phase time, counters) cover every span; the span rows
themselves are kept in memory up to ``MAX_SPANS`` and written out by
``dump_spans`` when the run ends.
"""

from __future__ import annotations

import copy
import os
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("kernels", "manifold", "maps", "averaging", "fileio", "experiments", "cli")
# Calls per traced name replayed under tracemalloc; tracing every call's
# allocations would slow it several-fold.
ALLOC_SAMPLES = 8
# Span rows kept in memory; aggregates still cover every span beyond this.
MAX_SPANS = 100_000
SPAN_COLUMNS = ("span_id", "name_id", "start_ns", "end_ns", "parent", "op")


def _pair_of(args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[1]
    return config.pair.label


def _path_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.cols = tuple(array("q") for _ in SPAN_COLUMNS)
        self.spans_dropped = 0
        self._next_span = 0
        self._stack: list = []
        self.active = True
        self.op = 0  # id of the benchmark operation in progress
        self.ctx = ""  # map pair of the enclosing fixed_point_mean call
        # (ctx, name) -> [calls, inclusive ns, self ns]
        self.agg = defaultdict(lambda: [0, 0, 0])
        # (ctx, averaging phase) -> self ns; phase None is "other"
        self.phase_ns = defaultdict(int)
        self.counters = defaultdict(float)
        self.fpm_ms = defaultdict(list)  # pair -> per-call ms
        self.cloud_keys: set = set()
        self.alloc_calls = defaultdict(list)  # name -> [(fn, (args, kwargs))]
        self.alloc_peaks = defaultdict(list)  # name -> tracemalloc peaks, bytes

    # -- recording ---------------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, name, phase):
        stack = self._stack
        parent = stack[-1] if stack else None
        # frame: span id, name, phase, parent frame, child ns, start ns
        frame = [self._next_span, name, phase or (parent[2] if parent else None),
                 parent, 0, 0]
        self._next_span += 1
        stack.append(frame)
        frame[5] = time.perf_counter_ns()
        return frame

    def _exit(self, frame) -> int:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        sid, name, phase, parent, child_ns, t0 = frame
        dur = t1 - t0
        if parent is not None:
            parent[4] += dur
        a = self.agg[(self.ctx, name)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child_ns
        self.phase_ns[(self.ctx, phase)] += dur - child_ns
        if len(self.cols[0]) < MAX_SPANS:
            row = (sid, self._name_id(name), t0, t1, parent[0] if parent else -1, self.op)
            for col, v in zip(self.cols, row):
                col.append(v)
        else:
            self.spans_dropped += 1
        return dur

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, e.g. one CLI command.
        Yields the frame, whose slot 0 is the span id and slot 4 the time
        already covered by child spans."""
        frame = self._enter(name, None)
        try:
            yield frame
        finally:
            self._exit(frame)

    @contextmanager
    def paused(self):
        """Let installed wrappers call through without recording."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, name, fn, phase=None, before=None, after=None, alloc=False,
             ctx_of=None):
        """Timing wrapper around ``fn``.

        ``phase`` labels the averaging phase (lift, retract, validate) of
        this span and its children; ``before(args, kwargs)`` and
        ``after(args, kwargs, result, ns)`` feed counters; ``alloc`` keeps
        copies of the first calls' arguments for ``alloc_kib``; ``ctx_of(args, kwargs)`` names
        the context that spans inside the call are aggregated under.
        """

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            saved_ctx = self.ctx
            if ctx_of is not None:
                self.ctx = ctx_of(args, kwargs)
            if before is not None:
                before(args, kwargs)
            if alloc and len(self.alloc_calls[name]) < ALLOC_SAMPLES:
                self.alloc_calls[name].append((fn, copy.deepcopy((args, kwargs))))
            frame = self._enter(name, phase)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = self._exit(frame)
                if not ok:
                    self.counters[name + ".errors"] += 1
                elif after is not None:
                    after(args, kwargs, result, dur)
                self.ctx = saved_ctx

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------
    def _bindings(self):
        """(module, attribute, wrap options) for every traced name."""
        import stiefelmean.averaging as averaging
        import stiefelmean.cli as cli
        import stiefelmean.experiments as experiments
        import stiefelmean.fileio as fileio
        import stiefelmean.manifold as manifold
        import stiefelmean.maps as maps

        c = self.counters

        def mean_done(args, kwargs, report, ns):
            pair = self.ctx
            c[f"averaging.{pair}.iters"] += report.iterations_used
            # lifts made inside iterations; the final residual pass adds N more
            samples = kwargs["samples"] if "samples" in kwargs else args[0]
            c[f"averaging.{pair}.useful_lifts"] += report.iterations_used * len(samples)
            self.fpm_ms[pair].append(ns / 1e6)

        def samples_made(args, kwargs, result, ns):
            c["manifold.generate_samples.samples"] += len(result)

        def cloud_key(args, kwargs):
            c["experiments.clouds_generated"] += 1
            center = kwargs["center"] if "center" in kwargs else args[0]
            seed = kwargs["seed"] if "seed" in kwargs else args[3]
            self.cloud_keys.add((center.dims.p, center.dims.n, int(seed)))

        def experiment_samples_made(args, kwargs, result, ns):
            samples_made(args, kwargs, result, ns)
            c["experiments.generate_ns"] += ns

        def file_bytes(name):
            def after(args, kwargs, result, ns):
                c[name + ".bytes"] += _path_bytes(args[0])
            return after

        fpm = dict(name="averaging.fixed_point_mean", ctx_of=_pair_of, after=mean_done)
        gen = dict(name="manifold.generate_samples", after=samples_made)
        validate = dict(name="manifold.validate", phase="validate")
        return [
            (averaging, "fixed_point_mean", fpm),
            (experiments, "fixed_point_mean", fpm),
            (cli, "fixed_point_mean", fpm),
            (averaging, "lift", dict(name="averaging.lift", phase="lift")),
            (averaging, "retract", dict(name="averaging.retract", phase="retract")),
            (maps, "polar_lifting", dict(name="maps.lift.polar")),
            (maps, "orthographic_lifting", dict(name="maps.lift.orthographic")),
            (maps, "polar_retraction", dict(name="maps.retract.polar")),
            (maps, "orthographic_retraction", dict(name="maps.retract.orthographic")),
            (maps, "solve_lyapunov_sym", dict(name="kernels.solve_lyapunov_sym", alloc=True)),
            (maps, "solve_ortho_retraction_eq", dict(name="kernels.solve_ortho_retraction_eq")),
            (maps, "spd_inv_sqrt", dict(name="kernels.spd_inv_sqrt")),
            (manifold, "skew_expm", dict(name="kernels.skew_expm")),
            (manifold, "orthonormality_defect", validate),
            (cli, "orthonormality_defect", validate),
            (manifold, "generate_samples", gen),
            (cli, "generate_samples", gen),
            (experiments, "generate_samples",
             dict(gen, before=cloud_key, after=experiment_samples_made)),
            (fileio, "read_sample_set",
             dict(name="fileio.read_sample_set", after=file_bytes("fileio.read_sample_set"))),
            (fileio, "write_sample_set",
             dict(name="fileio.write_sample_set", after=file_bytes("fileio.write_sample_set"))),
            (experiments, "run_experiment", dict(name="experiments.run_experiment")),
        ]

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        saved = []
        try:
            for module, attr, opts in self._bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                opts = dict(opts)
                setattr(module, attr, self.wrap(opts.pop("name"), original, **opts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- merging and export --------------------------------------------------
    def state(self) -> dict:
        """Aggregates and span rows as plain JSON data."""
        return {
            "agg": [[ctx, name, v] for (ctx, name), v in self.agg.items()],
            "phase_ns": [[ctx, ph, v] for (ctx, ph), v in self.phase_ns.items()],
            "counters": dict(self.counters),
            "fpm_ms": dict(self.fpm_ms),
            "alloc_peaks": dict(self.alloc_peaks),
            "cloud_keys": [list(k) for k in self.cloud_keys],
            "span_names": self.names,
            "span_rows": [col.tolist() for col in self.cols],
            "spans_dropped": self.spans_dropped,
        }

    def span_count(self) -> int:
        return self._next_span

    def merge(self, state: dict, parent_span: int = -1) -> None:
        """Add the aggregates and span rows of a traced child process; its
        top-level spans become children of ``parent_span``."""
        for ctx, name, v in state["agg"]:
            a = self.agg[(ctx, name)]
            for i in range(3):
                a[i] += v[i]
        for ctx, ph, v in state["phase_ns"]:
            self.phase_ns[(ctx, ph)] += v
        for k, v in state["counters"].items():
            self.counters[k] += v
        for k, v in state["fpm_ms"].items():
            self.fpm_ms[k].extend(v)
        for k, v in state["alloc_peaks"].items():
            self.alloc_peaks[k].extend(v)
        self.cloud_keys.update(tuple(k) for k in state["cloud_keys"])
        base = self._next_span
        rows = state["span_rows"]
        for sid, nid, t0, t1, parent, op in zip(*rows):
            if len(self.cols[0]) >= MAX_SPANS:
                self.spans_dropped += 1
                continue
            row = (base + sid, self._name_id(state["span_names"][nid]), t0, t1,
                   base + parent if parent >= 0 else parent_span, op)
            for col, v in zip(self.cols, row):
                col.append(v)
        self.spans_dropped += state["spans_dropped"]
        self._next_span += max(rows[0], default=-1) + 1 + state["spans_dropped"]

    def dump_spans(self, path) -> None:
        """Write the span rows and the name table as a NumPy ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            dropped=np.array(self.spans_dropped),
            **{k: np.array(col, dtype=np.int64) for k, col in zip(SPAN_COLUMNS, self.cols)},
        )

    # -- derived numbers -------------------------------------------------------
    def total(self, name, ctx=None, field=1):
        """Sum over contexts of ``field`` (0 calls, 1 inclusive ns, 2 self ns)."""
        return sum(v[field] for (c, n), v in self.agg.items()
                   if n == name and (ctx is None or c == ctx))

    def measure_allocs(self) -> None:
        """Replay the kept calls under tracemalloc and record their peaks."""
        for name, calls in self.alloc_calls.items():
            for fn, (args, kwargs) in calls:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    self.alloc_peaks[name].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        self.alloc_calls.clear()

    def alloc_kib(self, name) -> float:
        """Mean allocation peak of the measured calls of ``name``, in KiB."""
        peaks = self.alloc_peaks.get(name)
        return sum(peaks) / len(peaks) / 1024 if peaks else 0.0

    def layer_self_ns(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for (_, name), v in self.agg.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += v[2]
        return out
