"""Spans around splitcert's public entry points, recorded from outside.

Nothing in the package is edited: ``install`` replaces each traced
function by a timing wrapper under every name a caller looks it up by --
the defining module, every ``splitcert`` module that imported it by name
(``lerman.flow_jet``, ``implicit.newton_verify``, ...), and any extra
namespace the caller passes.  A traced name that no longer exists raises
at install time, so a rename breaks the trace instead of reporting zeros.

A span is (name, start, end, parent span, operation id).  Spans are kept
in flat arrays in memory and written out once, after the run.  A span's
self time is its duration minus the durations of its direct children;
spans nest strictly on one thread, so every second is counted once
(``isum`` inside ``idot``, kernels inside ``Interval.__add__``, ...).
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter

# (module, attribute) -> span name.  Kernels are discovered: every public
# function of splitcert.kernels is a span "kernels.<name>".
FUNCTIONS = {
    ("splitcert.flow", "flow_jet"): "flow.transport",
    ("splitcert.flow", "rough_enclosure"): "flow.rough",
    ("splitcert.flow", "point_flow"): "flow.float",
    ("splitcert.flow", "point_flow_jet"): "flow.float",
    ("splitcert.newton", "newton_verify"): "newton.verify",
    ("splitcert.implicit", "implicit_enclose"): "implicit.enclose",
    ("splitcert.implicit", "implicit_first"): "implicit.derivs",
    ("splitcert.implicit", "implicit_mixed_second"): "implicit.derivs",
    ("splitcert.matrices", "ilinsolve"): "matrices.solve",
    ("splitcert.matrices", "imatsolve"): "matrices.solve",
    ("splitcert.matrices", "iinverse"): "matrices.solve",
    ("splitcert.matrices", "spectral_norm_ub"): "matrices.norm",
    ("splitcert.matrices", "sigma_min_lb"): "matrices.norm",
    ("splitcert.matrices", "ivec_norm_ub"): "matrices.norm",
    ("splitcert.jets", "jet2_compose"): "jets.compose",
    ("splitcert.distance", "distance_fixed_point"): "distance.build",
    ("splitcert.distance", "distance_nhim_section"): "distance.build",
    ("splitcert.distance", "distance_unequal"): "distance.build",
    ("splitcert.degree", "assemble_lemma_data"): "degree.assemble",
    ("splitcert.degree", "verify_practical"): "degree.verify",
    ("splitcert.degree", "verify_transversal"): "degree.verify",
    ("splitcert.degree", "verify_boundary_exclusion"): "degree.boundary",
    ("splitcert.lerman", "build_distance_oracle"): "lerman.build_oracle",
}

# (module, class, method) -> span name
METHODS = {
    **{("splitcert.intervals", "Interval", op): "intervals.op"
       for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__neg__", "__pow__", "sqr", "sqrt")},
    ("splitcert.polys", "PolyMap", "eval_box"): "polys.eval_box",
    ("splitcert.polys", "PolyMap", "jet"): "polys.jet",
}


class Recorder:
    """In-memory span store; ``op`` tags new spans with the operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.op_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed = array.array("i")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_args=None, on_result=None):
        nid = self.name_id(name)
        names, parents, ops = self.name, self.parent, self.op_id
        starts, ends, failed, stack = self.start, self.end, self.failed, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(_clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed.append(i)
                raise
            finally:
                ends[i] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 op=np.frombuffer(self.op_id, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 failed=np.frombuffer(self.failed, np.int32))


# -- hooks that read results the spans alone cannot see ----------------------

def _newton_result(rec: Recorder, cert):
    rec.counts["newton.iterations"] += cert.iterations
    rec.counts["newton.verified"] += int(cert.verified)


def _boundary_result(rec: Recorder, cert):
    rec.counts["degree.boundary.cells"] += cert.cells_checked


def _manifold_args(rec: Recorder, args, kwargs):
    """Trace each manifold oracle's jet: distance's own cache calls it only
    on a miss, so its call count is the number of cache misses."""
    from splitcert.distance import ManifoldOracle

    def sub(a):
        if isinstance(a, ManifoldOracle):
            return dataclasses.replace(a, jet=rec.wrap(a.jet, "distance.manifold_jet"))
        return a

    return tuple(sub(a) for a in args), {k: sub(v) for k, v in kwargs.items()}


def _oracle_result(rec: Recorder, oracle):
    oracle.jet = rec.wrap(oracle.jet, "distance.query")


_HOOKS = {
    "newton.verify": {"on_result": _newton_result},
    "degree.boundary": {"on_result": _boundary_result},
    "distance.build": {"on_args": _manifold_args, "on_result": _oracle_result},
}


def install(rec: Recorder, extra_namespaces=()):
    """Wrap every traced function; returns a callable that undoes it."""
    kernels = importlib.import_module("splitcert.kernels")
    targets = dict(FUNCTIONS)
    for attr, obj in vars(kernels).items():
        if callable(obj) and not attr.startswith("_") and \
                getattr(obj, "__module__", None) == kernels.__name__:
            targets[(kernels.__name__, attr)] = f"kernels.{attr}"
    spaces = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "splitcert" or n.startswith("splitcert."))]
    spaces += list(extra_namespaces)
    undo = []
    for (modname, attr), span in targets.items():
        orig = getattr(importlib.import_module(modname), attr)
        wrapped = rec.wrap(orig, span, **_HOOKS.get(span, {}))
        for ns in spaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapped)
                    undo.append((ns, key, orig))
    for (modname, clsname, attr), span in METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        orig = cls.__dict__[attr]
        setattr(cls, attr, rec.wrap(orig, span))
        undo.append((cls, attr, orig))

    def uninstall():
        for ns, key, orig in reversed(undo):
            setattr(ns, key, orig)

    return uninstall


# -- per-layer metrics -------------------------------------------------------

# metric name -> unit; the order is the report order
UNITS = {
    "kernels.calls": "count", "kernels.self_s": "s", "kernels.us_per_call": "us",
    "kernels.vadd.calls": "count", "kernels.vmul.calls": "count",
    "kernels.isum.calls": "count", "kernels.idot.calls": "count",
    "flow.transport.calls": "count", "flow.transport.self_s": "s", "flow.transport.p50_s": "s",
    "flow.rough.calls": "count", "flow.rough.failed": "count", "flow.rough.self_s": "s",
    "flow.float.calls": "count", "flow.float.self_s": "s",
    "newton.verify.calls": "count", "newton.verify.self_s": "s",
    "newton.iterations": "count", "newton.verified_ratio": "ratio",
    "implicit.enclose.calls": "count", "implicit.enclose.failed": "count",
    "implicit.enclose.self_s": "s", "implicit.derivs.self_s": "s",
    "distance.manifold_jet.calls": "count",
    "distance.query.calls": "count", "distance.query.self_s": "s",
    "intervals.scalar_ops": "count", "intervals.self_s": "s",
    "polys.eval_box.calls": "count", "polys.eval_box.self_s": "s",
    "polys.jet.calls": "count", "polys.jet.self_s": "s",
    "matrices.solve.calls": "count", "matrices.solve.self_s": "s",
    "matrices.norm.calls": "count", "matrices.norm.self_s": "s",
    "jets.compose.calls": "count", "jets.compose.self_s": "s",
    "degree.assemble.self_s": "s", "degree.verify.self_s": "s",
    "degree.boundary.self_s": "s", "degree.boundary.cells": "count",
    "lerman.build_oracle.s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, float]:
    """Aggregate the spans into the per-layer metrics named in ``UNITS``."""
    name = np.frombuffer(rec.name, np.int32)
    parent = np.frombuffer(rec.parent, np.int32)
    dur = np.frombuffer(rec.end) - np.frombuffer(rec.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    failed = np.zeros(len(dur), bool)
    failed[np.frombuffer(rec.failed, np.int32)] = True

    def mask(span, outer=False):
        if span not in rec._ids:
            return np.zeros(len(dur), bool)
        m = name == rec._ids[span]
        if outer:  # a recursive call (backward flow) is not another call
            m &= parent_name != rec._ids[span]
        return m

    kern = np.zeros(len(dur), bool)
    for span, i in rec._ids.items():
        if span.startswith("kernels."):
            kern |= name == i

    out: dict[str, float] = {}

    def calls(metric, span, outer=False):
        out[metric] = int(mask(span, outer).sum())

    def self_time(metric, span):
        out[metric] = float(self_s[mask(span)].sum())

    out["kernels.calls"] = int(kern.sum())
    out["kernels.self_s"] = float(self_s[kern].sum())
    out["kernels.us_per_call"] = 1e6 * out["kernels.self_s"] / max(out["kernels.calls"], 1)
    for k in ("vadd", "vmul", "isum", "idot"):
        calls(f"kernels.{k}.calls", f"kernels.{k}")
    calls("flow.transport.calls", "flow.transport", outer=True)
    self_time("flow.transport.self_s", "flow.transport")
    outer_dur = dur[mask("flow.transport", outer=True)]
    out["flow.transport.p50_s"] = float(np.median(outer_dur)) if len(outer_dur) else 0.0
    calls("flow.rough.calls", "flow.rough")
    out["flow.rough.failed"] = int((mask("flow.rough") & failed).sum())
    self_time("flow.rough.self_s", "flow.rough")
    calls("flow.float.calls", "flow.float", outer=True)
    self_time("flow.float.self_s", "flow.float")
    calls("newton.verify.calls", "newton.verify")
    self_time("newton.verify.self_s", "newton.verify")
    out["newton.iterations"] = rec.counts["newton.iterations"]
    out["newton.verified_ratio"] = rec.counts["newton.verified"] / max(out["newton.verify.calls"], 1)
    calls("implicit.enclose.calls", "implicit.enclose")
    out["implicit.enclose.failed"] = int((mask("implicit.enclose") & failed).sum())
    self_time("implicit.enclose.self_s", "implicit.enclose")
    self_time("implicit.derivs.self_s", "implicit.derivs")
    calls("distance.manifold_jet.calls", "distance.manifold_jet")
    calls("distance.query.calls", "distance.query")
    self_time("distance.query.self_s", "distance.query")
    calls("intervals.scalar_ops", "intervals.op")
    self_time("intervals.self_s", "intervals.op")
    for span in ("polys.eval_box", "polys.jet", "matrices.solve", "matrices.norm", "jets.compose"):
        calls(f"{span}.calls", span)
        self_time(f"{span}.self_s", span)
    for span in ("degree.assemble", "degree.verify", "degree.boundary"):
        self_time(f"{span}.self_s", span)
    out["degree.boundary.cells"] = rec.counts["degree.boundary.cells"]
    out["lerman.build_oracle.s"] = float(dur[mask("lerman.build_oracle")].sum())
    out["trace.overhead_ratio"] = overhead_ratio
    return {k: out[k] for k in UNITS}
