"""Spans around the calls into ddread's layers, installed from outside.

``Tracer.installed()`` replaces each traced function, in the namespace of
every module that holds a reference to it, with a wrapper that records a
span; leaving the block puts the originals back.  No ddread source changes.
Spans are kept in memory as (name, start, end, parent, op) tuples and written
out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer -> traced functions.  Private names are the kernels behind the public
# scans and the fit's forward model, and the two paths of simulate_point:
# the aggregate sampler of a projective channel and the per-cycle trajectory.
TRACED = {
    "config": ["load_config"],
    "spincore": ["conditional_propagator_exact", "conditional_propagator_magnus",
                 "_propagators_exact_batch"],
    "coherence": ["scan_tau", "scan_n", "scan_2d", "coherence_single",
                  "coherence_bath", "_bath_curve_tau"],
    "measurement": ["measurement_channel", "entanglement_vs_n", "simulate_trace",
                    "simulate_point", "_simulate_point_aggregate",
                    "_simulate_point_cycles", "trace_to_csv"],
    "analysis": ["conditional_histograms", "fidelity_vs_threshold", "detect_jumps",
                 "estimate_t1n", "fit_hyperfine"],
    "cli": ["main"],
}
LAYERS = list(TRACED) + ["bench"]

# Work counted at a span boundary: span name -> (counter, f(args, result)).
COUNTERS = {
    "coherence.scan_tau": ("coherence.cells", lambda a, r: r.values.size),
    "coherence.scan_n": ("coherence.cells", lambda a, r: r.values.size),
    "coherence.scan_2d": ("coherence.cells", lambda a, r: r.values.size),
    "measurement._simulate_point_cycles": ("measurement.cycles",
                                   lambda a, r: a[2].cycles_per_point),
}

ROOT = "bench.op"


class Tracer:
    def __init__(self, workload: str, extra_modules=()):
        import ddread

        self.workload = workload
        self.modules = [ddread] + [sys.modules[f"ddread.{m}"] for m in TRACED]
        self.modules += list(extra_modules)
        self.originals = {
            f"{layer}.{fn}": getattr(sys.modules[f"ddread.{layer}"], fn)
            for layer, fns in TRACED.items() for fn in fns
        }
        self.spans = []
        self.stack = [-1]
        self.op = -1
        self.counts = defaultdict(float)
        self.t0 = perf_counter()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace one operation: patch every reference, open the root span."""
        by_id = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        patched = []
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                wrapper = by_id.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, val))
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[sid] = (ROOT, start, end, -1, op)
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    def summary(self, n_ops: int) -> dict:
        """Calls, busy and self seconds per span name and self seconds per
        layer, each as a mean per traced operation."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names = [ROOT] + list(self.originals)
        calls = dict.fromkeys(names, 0)
        busy = dict.fromkeys(names, 0.0)
        own = dict.fromkeys(names, 0.0)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[sid]
        out = {}
        for name in names:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.s"] = busy[name] / n_ops
            out[f"{name}.self_s"] = own[name] / n_ops
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                own[n] for n in names if n.split(".", 1)[0] == layer) / n_ops
        for key, value in self.counts.items():
            out[key] = value / n_ops
        return out

    def dump(self, path, extra: dict) -> None:
        """Write every span as a row; a span's id is its row index and
        times are seconds from the tracer's creation."""
        rows = [[name, start - self.t0, end - self.t0, parent, self.workload, op]
                for name, start, end, parent, op in self.spans]
        fields = ["name", "start", "end", "parent", "workload", "op"]
        path.write_text(json.dumps(dict(extra, fields=fields, spans=rows)))
