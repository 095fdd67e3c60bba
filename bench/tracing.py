"""Spans around calls into the public functions of ``phcover``.

The tracer replaces a function in every module namespace that binds it
(``sample_triangle`` lives in ``graphs`` and is imported into
``construction``; ``kernel`` lives in ``linalg`` and is imported into
``graphs``), so a call through any binding records one span: name, start,
end and parent.  Spans stay in memory until the run ends.  Only the
functions below are wrapped; hot leaf helpers such as ``evaluate`` or
``sym_mul`` cost about as much per call as a span does, so their time is
left in the self time of their callers.
"""

from __future__ import annotations

import gzip
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("field", "linalg", "multilinear", "graphs", "voltage", "construction", "cli")

# "module.function" or "module.Class.method", named after the defining module
TRACED = (
    "linalg.kernel",
    "linalg.solve_affine_f2",
    "multilinear.action",
    "multilinear.in_w2_plus_u",
    "graphs.build_projective_graph",
    "graphs.build_affine_graph",
    "graphs.diameter",
    "graphs.random_affine_vertex",
    "graphs.sample_common_neighbor",
    "graphs.sample_triangle",
    "graphs.sample_quadrangle",
    "graphs.sample_pentagon",
    "graphs.sample_closed_walk",
    "voltage.path_voltage",
    "voltage.DartTable.dart",
    "voltage.DartTable.from_scalar",
    "voltage.spanning_tree_potentials",
    "voltage.fundamental_cycle_span",
    "voltage.component_of",
    "voltage.verify_local_isomorphism",
    "voltage.check_reductive",
    "voltage.check_equivariance",
    "construction.dart_voltage",
    "construction.bulk_dart_voltage",
    "construction.voltage_table",
    "construction.verify_triangles",
    "construction.verify_quadrangles",
    "construction.verify_pentagons",
    "construction.verify_long_cycles",
    "construction.cycle_span_report",
    "construction.reductivity_report",
    "construction.equivariance_report",
    "construction.fiber_coset_report",
    "construction.build_cover",
    "construction.cover_report",
    "construction.export_cover",
    "construction.load_cover",
    "construction.nonsplit_check",
    "construction.brute_force_splitting_gf4",
    "construction.order2_report",
    "construction.cocycle_report",
    "construction.phi_table_report",
)


def _export_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


# work counters read from a traced call's arguments or result
COUNTERS = {
    "construction.bulk_dart_voltage": lambda a, kw, r: {"darts": len(a[1])},
    "construction.export_cover": _export_bytes,
    "voltage.fundamental_cycle_span": lambda a, kw, r: {"distinct_voltages": r["distinct_voltages"]},
    "voltage.component_of": lambda a, kw, r: {"lift_vertices": len(r["vertices"])},
    "graphs.sample_common_neighbor": lambda a, kw, r: {"accepted": r is not None},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        open_, close = self._open, self._close
        counters = self.counters[name]

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED in every phcover namespace binding it."""
        mods = [importlib.import_module(f"phcover.{m}") for m in MODULES]
        for name in TRACED:
            home, *path = name.split(".")
            owner = importlib.import_module(f"phcover.{home}")
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, path[1], raw))
                setattr(cls, path[1], new)
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrap(name, original)
            bound = 0
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name} is bound nowhere")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds, self seconds, calls by parent
        name, and the work counters."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i in range(n):
            name = self.names[i]
            rec = out.get(name)
            if rec is None:
                rec = out[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "by_parent": Counter()}
            dur = self.ends[i] - self.starts[i]
            rec["calls"] += 1
            rec["incl_s"] += dur
            rec["self_s"] += dur - child[i]
            p = self.parents[i]
            rec["by_parent"][self.names[p] if p >= 0 else ""] += 1
        for name, counts in self.counters.items():
            if name in out:
                out[name].update(counts)
        for rec in out.values():
            rec["by_parent"] = dict(rec["by_parent"])
        return out

    def write(self, path: str) -> None:
        """Gzipped text, one line per span: index, name, start, end, parent index."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.names)):
                fh.write(f"{i}\t{self.names[i]}\t{self.starts[i]:.9f}\t"
                         f"{self.ends[i]:.9f}\t{self.parents[i]}\n")
