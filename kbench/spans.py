"""Opt-in spans around the public functions of kdilate's five layers.

`Tracer.install()` replaces each traced function, in every kdilate module
namespace that binds it, with a wrapper that records a span (request id,
name, start, end, parent span).  Spans stay in memory until `write()`.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute, span name).  Dotted attributes are methods; the
# dataclass __init__ calls PosetDiagram.__post_init__, its validation.
# abelian.cokernel wraps _cokernel_with_maps, which both cokernel() and
# ker_coker_one_minus use.
TARGETS = [
    ("abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("abelian", "unimodular_inverse", "abelian.unimodular_inverse"),
    ("abelian", "lattice_contains", "abelian.lattice_contains"),
    ("abelian", "integer_kernel_basis", "abelian.integer_kernel_basis"),
    ("abelian", "solve_integer_system", "abelian.solve_integer_system"),
    ("abelian", "kernel", "abelian.kernel"),
    ("abelian", "_cokernel_with_maps", "abelian.cokernel"),
    ("colimit", "classify_colimit", "colimit.classify_colimit"),
    ("colimit", "ker_coker_one_minus", "colimit.ker_coker_one_minus"),
    ("colimit", "ColimitDescription.localized_diagonal", "colimit.localized_diagonal"),
    ("kcrossed", "pv_crossed_product", "kcrossed.pv_crossed_product"),
    ("graphalg", "enumerate_hereditary_saturated", "graphalg.enumerate_hereditary_saturated"),
    ("graphalg", "ideal_lattice_hasse", "graphalg.ideal_lattice_hasse"),
    ("graphalg", "PosetDiagram.__post_init__", "graphalg.PosetDiagram"),
    ("graphalg", "prim_poset", "graphalg.prim_poset"),
    ("graphalg", "subquotient_k", "graphalg.subquotient_k"),
    ("cli", "main", "cli.main"),
    ("cli", "render_json", "cli.render_json"),
]


def _max_bits(snf) -> int:
    return max((abs(x).bit_length() for m in (snf.U, snf.S, snf.V)
                for row in m.entries for x in row), default=0)


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans: list[tuple] = []      # (request, span, parent, name, start, end)
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.snf_max_bits = 0
        self.towers: set = set()
        self.eigen_calls = 0
        self.eigen_hits = 0
        self._stack: list[list] = []      # [name, child seconds, span id]
        self._next_id = 0
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        # The parent is charged the whole of a wrapped call, the wrapper's own
        # bookkeeping and _observe included, as child time, so that time
        # lands in no layer's self time; trace.overhead_s still shows it.
        def traced(*args, **kwargs):
            enter = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][2] if self._stack else None
            frame = [name, 0.0, span_id]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                entry = self.stats.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start - frame[1]
                self.spans.append((self.request, span_id, parent, name, start, end))
                if self._stack:
                    self._stack[-1][1] += perf_counter() - enter
            observe_start = perf_counter()
            self._observe(name, args, result)
            if self._stack:
                self._stack[-1][1] += perf_counter() - observe_start
            return result
        return traced

    def _observe(self, name, args, result):
        if name == "abelian.smith_normal_form":
            self.snf_max_bits = max(self.snf_max_bits, _max_bits(result))
        elif name == "colimit.localized_diagonal" and args[0].loc_matrix is not None:
            self.towers.add(args[0].loc_matrix)
        elif name == "abelian.integer_kernel_basis" and any(
                f[0] == "colimit.localized_diagonal" for f in self._stack):
            self.eigen_calls += 1
            self.eigen_hits += bool(result)

    def install(self):
        modules = {name: sys.modules[f"kdilate.{name}"]
                   for name in ("abelian", "colimit", "kcrossed", "graphalg", "cli")}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "kdilate" or key.startswith("kdilate.")]
        for module, attr, name in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[module], cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(modules[module], attr)
            wrapped = self._wrap(name, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._restore.append((ns, key, orig))
                        setattr(ns, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def write(self, path):
        rows = [{"request": r, "span": s, "parent": p, "name": n, "start": a, "end": b}
                for r, s, p, n, a, b in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
