"""Span tracing of sigflow's layers from outside the package.

`Tracer.install()` replaces each public function listed in `LAYER_FUNCS`
with a wrapper that records one span (name, start, end, parent, op) per
call, in every `sigflow` module that binds that function, so calls made
through `from .x import f` names are traced too.  `uninstall()` restores
the originals.  Spans stay in memory until `save()`; per-layer metrics are
derived from them by `layer_metrics()`.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np


def _arg(position: int, name: str):
    """Read one argument of a call, given positionally or by keyword."""

    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]

    return get


_viscous_v = _arg(0, "v")
_hyp_state = _arg(0, "state")

# (span name, module, function, work counted per call).  A missing function
# is skipped; metrics that need it come out as 0 (or None for lapack_us).
LAYER_FUNCS = [
    ("parabolic.solve", "sigflow.parabolic", "solve_parabolic", None),
    ("parabolic.step", "sigflow.parabolic", "step_viscous",
     lambda a, k: len(_viscous_v(a, k))),
    ("parabolic.lapack", "sigflow.parabolic", "solve_banded", None),
    ("hyperbolic.solve", "sigflow.hyperbolic", "solve_hyperbolic", None),
    ("hyperbolic.step", "sigflow.hyperbolic", "step",
     lambda a, k: _hyp_state(a, k).m.size),
    ("lagrangian.advance", "sigflow.lagrangian", "advance_characteristics",
     _arg(4, "n_steps")),
    ("orchestrator.run", "sigflow.orchestrator", "run", None),
    ("orchestrator.handoff", "sigflow.orchestrator", "split_at", None),
    ("orchestrator.handoff", "sigflow.orchestrator", "merge", None),
    ("output.write", "sigflow.output", "write_snapshot", None),
    ("output.write", "sigflow.output", "write_report", None),
    ("output.write", "sigflow.output", "emit_plot", None),
    ("scenario_io.parse", "sigflow.scenario_io", "parse_scenario", None),
]

ROOT_SPAN = "op"


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN]
        self.name_id = {ROOT_SPAN: 0}
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.missing = []
        self._patched = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _open(self, nid: int, work: float) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(work)
        self.stack.append(idx)
        return idx

    def _wrap(self, nid: int, fn, count):
        open_span, stack, start, end = self._open, self.stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = open_span(nid, count(args, kwargs) if count else 0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "sigflow" or n.startswith("sigflow.")) and m is not None]
        for span, modname, attr, count in LAYER_FUNCS:
            self._id(span)
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(self.name_id[span], original, count)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def run_op(self, op_index: int, fn, *args):
        """Call fn(*args) under a root span tagged with op_index."""
        self.current_op = op_index
        idx = self._open(0, 0.0)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.current_op = -1

    def arrays(self) -> dict:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def layer_metrics(tracer: Tracer, traced_walls: dict) -> tuple[dict, dict]:
    """Per-op averages of each layer's time and work over the traced ops.

    traced_walls maps op index to the wall time measured around that op.
    Returns (metrics, accounting); accounting checks that the spans of each
    op nest properly and that their self times add up to its wall time.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = self_times(spans)
    n_ops = len(traced_walls)
    in_ops = np.isin(spans["op"], list(traced_walls))

    def select(name):
        nid = tracer.name_id.get(name)
        return in_ops & (spans["kind"] == nid)

    def total(name):
        return float(dur[select(name)].sum()) / n_ops

    def self_total(name):
        return float(own[select(name)].sum()) / n_ops

    def calls(name):
        return float(select(name).sum()) / n_ops

    def work(name):
        return float(spans["work"][select(name)].sum()) / n_ops

    def per(numerator, denominator, scale):
        return numerator / denominator * scale if denominator else 0.0

    lapack_missing = "sigflow.parabolic.solve_banded" in tracer.missing
    m = {
        "parabolic.solve_s": total("parabolic.solve"),
        "parabolic.steps": calls("parabolic.step"),
        "parabolic.step_us": per(total("parabolic.step"), calls("parabolic.step"), 1e6),
        "parabolic.node_steps": work("parabolic.step"),
        "parabolic.ns_per_node_step": per(total("parabolic.step"), work("parabolic.step"), 1e9),
        "parabolic.lapack_us": None if lapack_missing else per(
            total("parabolic.lapack"), calls("parabolic.lapack"), 1e6),
        "parabolic.loop_self_s": self_total("parabolic.solve"),
        "hyperbolic.solve_s": total("hyperbolic.solve"),
        "hyperbolic.steps": calls("hyperbolic.step"),
        "hyperbolic.step_us": per(total("hyperbolic.step"), calls("hyperbolic.step"), 1e6),
        "hyperbolic.cell_steps": work("hyperbolic.step"),
        "hyperbolic.loop_self_s": self_total("hyperbolic.solve"),
        "lagrangian.advance_s": total("lagrangian.advance"),
        "lagrangian.rk4_steps": work("lagrangian.advance"),
        "lagrangian.rk4_step_us": per(total("lagrangian.advance"), work("lagrangian.advance"), 1e6),
        "orchestrator.run_s": total("orchestrator.run"),
        "orchestrator.handoff_s": total("orchestrator.handoff"),
        "orchestrator.self_s": self_total("orchestrator.run"),
        "output.write_s": total("output.write"),
        "scenario_io.parse_s": total("scenario_io.parse"),
    }

    op_self = np.bincount(spans["op"][in_ops], weights=own[in_ops])
    wall_sum = sum(traced_walls.values())
    accounted = float(sum(op_self[i] for i in traced_walls))
    accounting = {
        "traced_ops": n_ops,
        "spans": int(in_ops.sum()),
        "min_self_s": float(own[in_ops].min()) if in_ops.any() else 0.0,
        "self_sum_s": accounted / n_ops,
        "wall_s": wall_sum / n_ops,
        "unattributed_s": self_total(ROOT_SPAN),
        "layer_share": {
            name: float(own[select(name)].sum()) / accounted
            for name in tracer.names if name != ROOT_SPAN
        },
        "missing": list(tracer.missing),
    }
    accounting["ok"] = bool(
        accounting["min_self_s"] >= -1e-9
        and abs(accounted - wall_sum) <= 0.01 * wall_sum
    )
    return m, accounting
