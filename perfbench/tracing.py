"""Span tracing of the six qg4 modules, from outside the program.

`Tracer.patch` replaces each traced function with a wrapper that records a
span: name, start, end, parent span and op id.  A function is replaced in
every qg4 module namespace that binds it (cli and decompose import some by
name), and `Quasigroup` methods are replaced on the class.  Spans are kept in
flat arrays and written out when the run ends.  Recording is on during
set-up and inside timed ops only, so the between-op input generation and
theorem checks leave no spans.

A span's self time is its duration minus the durations of its direct
children.  Every op has a root span, so the self times of one op's spans sum
to the root's duration; `span_check` compares that sum with the op latency
the loop measured.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute); "Quasigroup.x" names a method.
TRACED = {
    "autotopy.autotopy_group": ("qg4.autotopy", "autotopy_group"),
    "autotopy.greedy_generators": ("qg4.autotopy", "greedy_generators"),
    "autotopy.is_transitive": ("qg4.autotopy", "is_transitive"),
    "autotopy.stabilizer": ("qg4.autotopy", "stabilizer"),
    "autotopy.are_isotopic": ("qg4.autotopy", "are_isotopic"),
    "core.parse_table": ("qg4.core", "parse_table"),
    "core.isotope": ("qg4.core", "Quasigroup.isotope"),
    "core.compose_at": ("qg4.core", "Quasigroup.compose_at"),
    "core.section": ("qg4.core", "Quasigroup.section"),
    "semilinear.semilinear_profile": ("qg4.semilinear", "semilinear_profile"),
    "decompose.find_split": ("qg4.decompose", "find_split"),
    "decompose.proper_decomposition": ("qg4.decompose", "proper_decomposition"),
    "decompose.reduce_decomposition": ("qg4.decompose", "reduce_decomposition"),
    "decompose.tree_stats": ("qg4.decompose", "tree_stats"),
    "decompose.structural_autotopies": ("qg4.decompose", "structural_autotopies"),
    "decompose.minimality_conditions": ("qg4.decompose", "minimality_conditions"),
    "construct.random_semilinear_composition": ("qg4.construct", "random_semilinear_composition"),
    "construct.construction_t": ("qg4.construct", "construction_t"),
    "construct.linear": ("qg4.construct", "linear"),
    "construct.shifted_linear": ("qg4.construct", "shifted_linear"),
    "construct.all_binary_quasigroups": ("qg4.construct", "all_binary_quasigroups"),
    "construct.random_isotopy": ("qg4.construct", "random_isotopy"),
    "cli.run": ("qg4.cli", "run"),
}

OP_SPAN = "op"
SPAN_TOL_ABS = 1e-4       # span self times must add up to the op latency within this
SPAN_TOL_REL = 0.01       # plus this share of the latency
SETUP, IDLE = -1, -2      # op ids outside timed ops


def _work(name: str, args, result) -> tuple[int, int]:
    """Counts measured at the span boundary: (cells or candidates, hits)."""
    if name == "autotopy.autotopy_group":
        return 6 * 4 ** args[0].arity, result.order
    if name in ("core.parse_table", "core.isotope", "core.compose_at"):
        return result.table.size, 0
    return 0, 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.work = array("q")
        self.hits = array("q")
        self.stack = [-1]
        self.op_id = SETUP

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        # The clock is read first, so that the bookkeeping below (an array
        # append may reallocate) falls inside the new span, not in a gap.
        self.start.append(time.perf_counter())
        i = len(self.start) - 1
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.work.append(0)
        self.hits.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counted = name in ("autotopy.autotopy_group", "core.parse_table",
                           "core.isotope", "core.compose_at")
        eager = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if self.op_id == IDLE:
                return fn(*args, **kwargs)
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if eager:   # a generator runs when consumed: consume it inside the span
                    result = iter(list(result))
            finally:
                self._close(i)
            if counted:
                self.work[i], self.hits[i] = _work(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self) -> None:
        """Replace every traced callable in every loaded qg4 namespace."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "qg4" or k.startswith("qg4."))]
        for name, (modname, attr) in TRACED.items():
            module = sys.modules[modname]
            if attr.startswith("Quasigroup."):
                cls = module.Quasigroup
                meth = attr.split(".", 1)[1]
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            bound = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{modname}.{attr} is bound nowhere")

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._root = self._open(0)

    def end_op(self) -> None:
        self._close(self._root)
        self.op_id = IDLE

    def idle(self) -> None:
        self.op_id = IDLE

    # -- analysis -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
            "hits": np.frombuffer(self.hits, dtype=np.int64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def span_check(a: dict[str, np.ndarray], latencies: list[float]) -> dict:
    """Per op: |sum of span self times - measured op latency|."""
    self_t = self_times(a)
    in_op = a["op"] >= 0
    sums = np.bincount(a["op"][in_op], weights=self_t[in_op], minlength=len(latencies))
    lat = np.asarray(latencies)
    dev = np.abs(sums[: len(lat)] - lat)
    tol = SPAN_TOL_ABS + SPAN_TOL_REL * lat
    return {
        "ops": int(len(lat)),
        "max_abs_dev_s": float(dev.max()) if len(dev) else 0.0,
        "max_rel_dev": float((dev / lat).max()) if len(dev) else 0.0,
        "tolerance": f"{SPAN_TOL_ABS} s + {SPAN_TOL_REL:.0%} of the op latency",
        "ok": bool((dev <= tol).all()),
    }


def layer_metrics(names: list[str], a: dict[str, np.ndarray], n_ops: int) -> dict[str, float]:
    """Per-layer metrics; times and counts are per timed op of the traced run."""
    nid = {n: i for i, n in enumerate(names)}
    dur = a["end"] - a["start"]
    self_t = self_times(a)
    in_op = a["op"] >= 0

    def sel(name: str) -> np.ndarray:
        return in_op & (a["name"] == nid[name])

    def total(name: str, own: bool = False) -> float:
        return float((self_t if own else dur)[sel(name)].sum())

    def calls(name: str) -> int:
        return int(sel(name).sum())

    def work(*span_names: str) -> int:
        return int(sum(a["work"][sel(n)].sum() for n in span_names))

    per = 1.0 / n_ops
    sweep = total("autotopy.autotopy_group", own=True)
    cand = work("autotopy.autotopy_group")
    hits = int(a["hits"][sel("autotopy.autotopy_group")].sum())

    # construct.gen_s: outermost construct spans during set-up.
    is_construct = np.array([n.startswith("construct.") for n in names])[a["name"]]
    parent_construct = np.zeros_like(is_construct)
    hp = a["parent"] >= 0
    parent_construct[hp] = is_construct[a["parent"][hp]]
    gen = float(dur[(a["op"] == SETUP) & is_construct & ~parent_construct].sum())

    return with_ratios({
        "autotopy.sweep_s": sweep * per,
        "autotopy.candidates": cand * per,
        "autotopy.hits": hits * per,
        "autotopy.greedy_s": total("autotopy.greedy_generators") * per,
        "autotopy.transitive_s": total("autotopy.is_transitive") * per,
        "autotopy.stabilizer_s": total("autotopy.stabilizer") * per,
        "autotopy.isotopic_calls": calls("autotopy.are_isotopic") * per,
        "autotopy.isotopic_s": total("autotopy.are_isotopic") * per,
        "core.parse_s": total("core.parse_table") * per,
        "core.parse_cells": work("core.parse_table") * per,
        "core.isotope_s": total("core.isotope") * per,
        "core.compose_at_s": total("core.compose_at") * per,
        "core.cells_gathered": work("core.isotope", "core.compose_at") * per,
        "core.section_calls": calls("core.section") * per,
        "core.section_s": total("core.section") * per,
        "semilinear.profile_calls": calls("semilinear.semilinear_profile") * per,
        "semilinear.profile_s": total("semilinear.semilinear_profile") * per,
        "decompose.find_split_calls": calls("decompose.find_split") * per,
        "decompose.find_split_s": total("decompose.find_split") * per,
        "decompose.proper_s": total("decompose.proper_decomposition", own=True) * per,
        "decompose.reduce_s": total("decompose.reduce_decomposition") * per,
        "decompose.tree_stats_s": total("decompose.tree_stats") * per,
        "decompose.structural_s": total("decompose.structural_autotopies") * per,
        "decompose.minimality_s": total("decompose.minimality_conditions") * per,
        "construct.gen_s": gen,
        "cli.self_s": total("cli.run", own=True) * per,
    })


def with_ratios(m: dict[str, float]) -> dict[str, float]:
    """Add the sweep's ratios, computed from the per-op totals."""
    cand, hits, sweep = m["autotopy.candidates"], m["autotopy.hits"], m["autotopy.sweep_s"]
    m["autotopy.hit_ratio"] = hits / cand if cand else 0.0
    m["autotopy.candidates_per_s"] = cand / sweep if sweep > 0 else 0.0
    return m


UNITS = {
    "autotopy.sweep_s": "s/op", "autotopy.candidates": "count/op", "autotopy.hits": "count/op",
    "autotopy.hit_ratio": "ratio", "autotopy.candidates_per_s": "1/s",
    "autotopy.greedy_s": "s/op", "autotopy.transitive_s": "s/op", "autotopy.stabilizer_s": "s/op",
    "autotopy.isotopic_calls": "count/op", "autotopy.isotopic_s": "s/op",
    "core.parse_s": "s/op", "core.parse_cells": "count/op", "core.isotope_s": "s/op",
    "core.compose_at_s": "s/op", "core.cells_gathered": "B/op", "core.section_calls": "count/op",
    "core.section_s": "s/op", "semilinear.profile_calls": "count/op",
    "semilinear.profile_s": "s/op", "decompose.find_split_calls": "count/op",
    "decompose.find_split_s": "s/op", "decompose.proper_s": "s/op", "decompose.reduce_s": "s/op",
    "decompose.tree_stats_s": "s/op", "decompose.structural_s": "s/op",
    "decompose.minimality_s": "s/op", "construct.gen_s": "s", "cli.self_s": "s/op",
    "trace_overhead": "ratio",
}

# Ratios with a zero base are reported as 0 and listed as not applicable.
RATIOS = {"autotopy.hit_ratio": "autotopy.candidates",
          "autotopy.candidates_per_s": "autotopy.sweep_s"}

# What the self-check expects of each workload: metrics that must be non-zero
# and metrics that must be exactly zero.  Metrics in neither list may be
# either (for example negligible table parsing on the small workloads).
_ALWAYS = ["cli.self_s", "core.parse_s", "core.parse_cells", "construct.gen_s"]
_SWEEP = ["autotopy.sweep_s", "autotopy.candidates", "autotopy.hits", "autotopy.hit_ratio",
          "autotopy.candidates_per_s", "autotopy.greedy_s", "core.section_calls",
          "core.section_s"]
PREDICTIONS = {
    "analyze-compose": {
        "nonzero": _ALWAYS + _SWEEP + [
            "autotopy.transitive_s", "semilinear.profile_calls", "semilinear.profile_s",
            "decompose.find_split_calls", "decompose.find_split_s", "decompose.proper_s",
            "decompose.reduce_s", "decompose.tree_stats_s"],
        "zero": ["autotopy.stabilizer_s", "decompose.structural_s",
                 "decompose.minimality_s"],
    },
    "transitive": {
        "nonzero": _SWEEP + [
            "autotopy.transitive_s", "autotopy.stabilizer_s", "construct.gen_s"],
        "zero": ["cli.self_s", "core.parse_s", "core.parse_cells", "autotopy.isotopic_calls",
                 "semilinear.profile_calls", "decompose.find_split_calls",
                 "decompose.proper_s", "decompose.structural_s"],
    },
    "small-arity": {
        "nonzero": _ALWAYS + _SWEEP + ["autotopy.isotopic_calls", "autotopy.isotopic_s"],
        "zero": ["autotopy.stabilizer_s", "autotopy.transitive_s",
                 "semilinear.profile_calls", "decompose.find_split_calls",
                 "decompose.proper_s", "decompose.structural_s"],
    },
    "trees": {
        "nonzero": _ALWAYS + [
            "core.isotope_s", "core.compose_at_s", "core.cells_gathered",
            "semilinear.profile_calls", "semilinear.profile_s",
            "decompose.find_split_calls", "decompose.find_split_s", "decompose.proper_s",
            "decompose.reduce_s", "decompose.tree_stats_s", "decompose.structural_s",
            "decompose.minimality_s"],
        "zero": ["autotopy.sweep_s", "autotopy.candidates", "autotopy.hits",
                 "autotopy.hit_ratio", "autotopy.candidates_per_s", "autotopy.greedy_s",
                 "autotopy.transitive_s", "autotopy.stabilizer_s"],
    },
}


def prediction_check(workload: str, metrics: dict[str, float]) -> list[str]:
    want = PREDICTIONS[workload]
    bad = [f"{m} predicted non-zero, measured 0" for m in want["nonzero"] if metrics[m] == 0]
    bad += [f"{m} predicted 0, measured {metrics[m]}" for m in want["zero"] if metrics[m] != 0]
    return bad
