"""Per-layer tracing from outside the package.

``install`` replaces each public function below with a wrapper at every
place it is bound: its module attribute, every ``from .x import y`` alias
in the other kgraphs modules and in the package itself, and the methods of
``KGraph``, ``LazyKGraph``, ``FreeElement``, ``TElement`` and
``BooleanReach``.  Span wrappers record (name, start, end, parent) in
memory; the hottest calls only count.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

# (layer metric prefix, module, attribute); a dotted attribute is a method.
SPANS = [
    ("kgraph.is_leaf", "kgraphs.kgraph", "is_leaf"),
    ("kgraph.sample_vertices", "kgraphs.kgraph", "LazyKGraph.sample_vertices"),
    ("kgraph.coord_matrix", "kgraphs.kgraph", "KGraph.coord_matrix"),
    ("kgraph.skew_product", "kgraphs.kgraph", "skew_product"),
    ("kgraph.validate", "kgraphs.kgraph", "validate"),
    ("rewrite.congruent", "kgraphs.rewrite", "congruent"),
    ("monoid.t_equal", "kgraphs.monoid", "t_equal"),
    ("monoid.push_to_level", "kgraphs.monoid", "push_to_level"),
    ("monoid.is_exact", "kgraphs.monoid", "is_exact"),
    ("monoid.find_periodic_element", "kgraphs.monoid", "find_periodic_element"),
    ("monoid.acts_freely", "kgraphs.monoid", "acts_freely"),
    ("monoid.atoms", "kgraphs.monoid", "atoms"),
    ("lattice.all_hs_subsets", "kgraphs.lattice", "all_hs_subsets"),
    ("lattice.BooleanReach", "kgraphs.lattice", "BooleanReach.__init__"),
    ("lattice.saturated_hereditary_closure", "kgraphs.lattice",
     "saturated_hereditary_closure"),
    ("lattice.ideal_membership", "kgraphs.lattice", "ideal_membership"),
    ("intlinalg.lattice_member", "kgraphs.intlinalg", "lattice_member"),
    ("intlinalg.exponent_rank", "kgraphs.intlinalg", "exponent_rank"),
    ("classify.is_cofinal", "kgraphs.classify", "is_cofinal"),
    ("classify.is_aperiodic", "kgraphs.classify", "is_aperiodic"),
    ("classify.is_strongly_aperiodic", "kgraphs.classify", "is_strongly_aperiodic"),
    ("classify.is_semisimple", "kgraphs.classify", "is_semisimple"),
    ("classify.line_points", "kgraphs.classify", "line_points"),
    ("classify.socle_essential", "kgraphs.classify", "socle_essential"),
    ("classify.kp_report", "kgraphs.classify", "kp_report"),
    ("tri.replay", "kgraphs.tri", "replay"),
]
COUNTS = [
    ("kgraph.out_edges", "kgraphs.kgraph", "KGraph.out_edges"),
    ("kgraph.out_edges", "kgraphs.kgraph", "LazyKGraph.out_edges"),
    ("rewrite.from_pairs", "kgraphs.rewrite", "FreeElement.from_pairs"),
    ("rewrite.expansion", "kgraphs.rewrite", "expansion"),
    ("monoid.from_pairs", "kgraphs.monoid", "TElement.from_pairs"),
]

# The per-layer metrics every traced run reports, in order.
METRICS: List[Tuple[str, str]] = [
    ("kgraph.is_leaf.calls", "count"), ("kgraph.is_leaf.self_s", "s"),
    ("kgraph.out_edges.calls", "count"),
    ("kgraph.sample_vertices.calls", "count"), ("kgraph.sample_vertices.self_s", "s"),
    ("kgraph.coord_matrix.calls", "count"), ("kgraph.coord_matrix.self_s", "s"),
    ("kgraph.skew_product.calls", "count"), ("kgraph.validate.self_s", "s"),
    ("rewrite.congruent.calls", "count"), ("rewrite.congruent.self_s", "s"),
    ("rewrite.congruent.decided_ratio", "ratio"),
    ("rewrite.from_pairs.calls", "count"), ("rewrite.expansion.calls", "count"),
    ("monoid.t_equal.calls", "count"), ("monoid.t_equal.self_s", "s"),
    ("monoid.t_equal.level.calls", "count"), ("monoid.t_equal.rewrite.calls", "count"),
    ("monoid.t_equal.graded.calls", "count"),
    ("monoid.push_to_level.calls", "count"), ("monoid.push_to_level.self_s", "s"),
    ("monoid.is_exact.calls", "count"), ("monoid.is_exact.self_s", "s"),
    ("monoid.find_periodic_element.calls", "count"),
    ("monoid.find_periodic_element.self_s", "s"),
    ("monoid.acts_freely.calls", "count"), ("monoid.atoms.calls", "count"),
    ("monoid.from_pairs.calls", "count"),
    ("lattice.all_hs_subsets.calls", "count"), ("lattice.all_hs_subsets.self_s", "s"),
    ("lattice.BooleanReach.calls", "count"), ("lattice.BooleanReach.self_s", "s"),
    ("lattice.saturated_hereditary_closure.calls", "count"),
    ("lattice.saturated_hereditary_closure.self_s", "s"),
    ("lattice.ideal_membership.calls", "count"), ("lattice.ideal_membership.self_s", "s"),
    ("intlinalg.lattice_member.calls", "count"), ("intlinalg.lattice_member.self_s", "s"),
    ("intlinalg.exponent_rank.calls", "count"), ("intlinalg.exponent_rank.self_s", "s"),
    ("classify.is_cofinal.self_s", "s"), ("classify.is_aperiodic.self_s", "s"),
    ("classify.is_strongly_aperiodic.self_s", "s"), ("classify.is_semisimple.self_s", "s"),
    ("classify.line_points.self_s", "s"), ("classify.socle_essential.self_s", "s"),
    ("classify.kp_report.calls", "count"),
    ("tri.replay.calls", "count"), ("tri.replay.self_s", "s"),
    ("cli.import_s", "s"), ("cli.import_deps_s", "s"),
]

_LEVEL_KINDS = {"exact_level", "equalizer", "kernel_stable"}


def t_equal_engine(tri) -> str:
    """The engine that decided a t_equal call, read from its certificate."""
    cert = tri.certificate
    if cert is None or cert.kind == "skew_rewrite":
        return "rewrite"  # an unknown comes only from the rewrite search
    if cert.kind == "graded_keys":
        return "graded"
    if cert.kind in _LEVEL_KINDS or (cert.kind == "level_equal"
                                     and cert.data.get("level") is not None):
        return "level"
    return "trivial"      # identical elements or exactly one of them zero


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Tuple[int, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn: Callable, post=None) -> Callable:
        code = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (code, t0, clock(), parent)
                stack.pop()
            if post is not None:
                post(result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _post(self, name: str):
        counts = self.counts
        if name == "monoid.t_equal":
            def post(tri):
                counts[f"monoid.t_equal.{t_equal_engine(tri)}"] += 1
            return post
        if name == "rewrite.congruent":
            def post(tri):
                counts["rewrite.congruent.decided"] += tri.value != "unknown"
            return post
        return None

    def install(self) -> None:
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, name=name: self._span(name, fn, self._post(name)))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))

    @staticmethod
    def _patch(module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "kgraphs" or name.startswith("kgraphs.")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

    # -- results -------------------------------------------------------

    def layer_metrics(self, clock) -> Dict[str, float]:
        """calls per span name, self time in reference seconds, and the
        counters.  A span's self time is its duration minus its children's
        and minus the clock samples taken inside it, rescaled by the speed
        factor around the outermost span containing it."""
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        child_cost = [0.0] * n
        root = [0] * n
        for i, (_, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
                child_cost[parent] += clock.sampling_cost(t0, t1)
                root[i] = root[parent]
            else:
                root[i] = i
        factors: Dict[int, float] = {}
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (code, t0, t1, _) in enumerate(spans):
            r = root[i]
            if r not in factors:
                factors[r] = clock.factor(spans[r][1], spans[r][2])
            own = (t1 - t0) - child[i] - (clock.sampling_cost(t0, t1) - child_cost[i])
            name = self.names[code]
            calls[name] += 1
            self_s[name] += max(own, 0.0) * factors[r]
        out: Dict[str, float] = {}
        for name in set(self.names):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name, value in self.counts.items():
            out[f"{name}.calls"] = value
        congruent = calls["rewrite.congruent"]
        out["rewrite.congruent.decided_ratio"] = (
            self.counts["rewrite.congruent.decided"] / congruent if congruent else 0.0)
        return out

    def dump(self) -> Dict[str, object]:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}
