"""One-step rewriting on the free commutative monoid over vertices.

A free element is a finite multiset of generators (vertices of the graph at
hand; for skew products the generators are (vertex, offset) pairs).  A step
in color i replaces one occurrence of a generator v by the multiset of
sources of its color-i out-edges, and is only enabled when that edge set is
nonempty.  The congruence generated by these steps (with the zero class kept
trivial) is exactly connectivity in the symmetric step graph, which is what
:func:`congruent` searches.

Certified negative answers come from two sound routes: exhausting a finite
connected component, or an integer-lattice invariant (each step changes the
coefficient vector by a relation vector, so elements whose difference lies
outside the relation lattice are never congruent).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .intlinalg import lattice_member
from .kgraph import GraphLike, bfs
from .tri import NO, YES, Certificate, Tri, no, register_replayer, unknown, yes

Gen = Hashable
StepLabel = Tuple[int, Gen, int]  # (direction +1/-1, generator, color)

DEFAULT_NODE_CAP = 20000


@dataclass(frozen=True)
class FreeElement:
    """A multiset of generators with positive integer coefficients."""

    items: Tuple[Tuple[Gen, int], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Gen, int]]) -> "FreeElement":
        c: Counter = Counter()
        for g, n in pairs:
            if n < 0:
                raise ValueError("coefficients must be nonnegative")
            if n:
                c[g] += n
        return FreeElement(tuple(sorted(c.items(), key=lambda kv: repr(kv[0]))))

    @staticmethod
    def single(gen: Gen, count: int = 1) -> "FreeElement":
        return FreeElement.from_pairs([(gen, count)])

    @staticmethod
    def zero() -> "FreeElement":
        return FreeElement(())

    def counter(self) -> Counter:
        return Counter(dict(self.items))

    def is_zero(self) -> bool:
        return not self.items

    def total(self) -> int:
        return sum(n for _, n in self.items)

    def __add__(self, other: "FreeElement") -> "FreeElement":
        c = self.counter()
        c.update(other.counter())
        return FreeElement.from_pairs(c.items())

    def subtract(self, other: "FreeElement") -> Optional["FreeElement"]:
        """self - other, or None when other is not dominated by self."""
        c = self.counter()
        for g, n in other.items:
            if c.get(g, 0) < n:
                return None
            c[g] -= n
        return FreeElement.from_pairs(c.items())

    def support(self) -> Tuple[Gen, ...]:
        return tuple(g for g, _ in self.items)

    def __repr__(self) -> str:
        if not self.items:
            return "0"
        return " + ".join(f"{n}*{g!r}" if n != 1 else f"{g!r}"
                          for g, n in self.items)


def expansion(graph: GraphLike, gen: Gen, color: int) -> Optional[FreeElement]:
    """The multiset of out-edge sources of ``gen`` in ``color``.

    None when the generator has no color-``color`` out-edge (the step is not
    enabled there: sources never rewrite away).
    """
    edges = graph.out_edges(gen, color)
    if not edges:
        return None
    return FreeElement.from_pairs(Counter(e.source for e in edges).items())


def step(graph: GraphLike, elem: FreeElement, gen: Gen, color: int) -> Optional[FreeElement]:
    """Apply one rewriting step at one occurrence of ``gen``, if enabled."""
    exp = expansion(graph, gen, color)
    if exp is None:
        return None
    rest = elem.subtract(FreeElement.single(gen))
    if rest is None:
        return None
    return rest + exp


def step_back(graph: GraphLike, elem: FreeElement, gen: Gen,
              color: int) -> Optional[FreeElement]:
    """Undo one step: replace one occurrence of the color-``color`` expansion
    of ``gen`` by ``gen``, if enabled."""
    exp = expansion(graph, gen, color)
    if exp is None:
        return None
    rest = elem.subtract(exp)
    if rest is None:
        return None
    return rest + FreeElement.single(gen)


def successors(graph: GraphLike, elem: FreeElement) -> List[Tuple[FreeElement, StepLabel]]:
    out = []
    for gen, _ in elem.items:
        for color in range(graph.k):
            nxt = step(graph, elem, gen, color)
            if nxt is not None:
                out.append((nxt, (+1, gen, color)))
    return out


def _predecessor_candidates(graph: GraphLike, elem: FreeElement) -> List[Tuple[Gen, int]]:
    if not graph.is_lazy:
        return [(v, i) for v in graph.vertices for i in range(graph.k)]
    if not graph.supports_in_edges:
        return []
    cands = set()
    for gen, _ in elem.items:
        for color in range(graph.k):
            for e in graph.in_edges(gen, color):
                cands.add((e.range, color))
    return sorted(cands, key=repr)


def predecessors(graph: GraphLike, elem: FreeElement) -> List[Tuple[FreeElement, StepLabel]]:
    """Elements that rewrite to ``elem`` in one step."""
    out = []
    for gen, color in _predecessor_candidates(graph, elem):
        prev = step_back(graph, elem, gen, color)
        if prev is not None:
            out.append((prev, (-1, gen, color)))
    return out


def _neighbors(graph: GraphLike, elem: FreeElement):
    return successors(graph, elem) + predecessors(graph, elem)


def _invariant_separates(graph, a: FreeElement, b: FreeElement) -> bool:
    """Is a - b outside the integer lattice spanned by the relation vectors
    (finite graphs)?  Each step changes the coefficient vector by a relation
    vector, so then a and b are never congruent.  ValueError for a
    generator the graph lacks."""
    verts, idx = graph.vertices, graph.vertex_index
    for g in a.support() + b.support():
        if g not in idx:
            raise ValueError(f"{g!r} is not a vertex of the graph")
    rels = []
    for v in verts:
        for color in range(graph.k):
            exp = expansion(graph, v, color)
            if exp is None:
                continue
            vec = [0] * len(verts)
            vec[idx[v]] -= 1
            for g, n in exp.items:
                vec[idx[g]] += n
            rels.append(vec)
    diff = [0] * len(verts)
    for g, n in a.items:
        diff[idx[g]] += n
    for g, n in b.items:
        diff[idx[g]] -= n
    return not lattice_member(rels, diff)


def congruent(graph: GraphLike, a: FreeElement, b: FreeElement, bound: int = 16,
              node_cap: int = DEFAULT_NODE_CAP) -> Tri:
    """Are a and b identified in the quotient monoid of the step relation?

    Searches the symmetric step graph bidirectionally.  Yes comes with the
    connecting chain; no comes from an exhausted finite component or (on
    finite graphs) from the integer relation-lattice invariant; otherwise
    unknown with the bound noted.
    """
    if a == b:
        return yes(Certificate("rewrite_chain", {"start": a, "end": b, "steps": []}))
    if a.is_zero() or b.is_zero():
        return no(Certificate("zero_class", {"left": a, "right": b}))

    parent_a: Dict[FreeElement, Optional[Tuple[FreeElement, StepLabel]]] = {a: None}
    parent_b: Dict[FreeElement, Optional[Tuple[FreeElement, StepLabel]]] = {b: None}
    frontier_a, frontier_b = [a], [b]
    closed_a = closed_b = False

    def chain_from(parents, end) -> List[StepLabel]:
        steps = []
        cur = end
        while parents[cur] is not None:
            prev, label = parents[cur]
            steps.append(label)
            cur = prev
        steps.reverse()
        return steps

    def meet_cert(m: FreeElement) -> Tri:
        fwd = chain_from(parent_a, m)
        back = [( -d, g, c) for d, g, c in reversed(chain_from(parent_b, m))]
        return yes(Certificate("rewrite_chain",
                               {"start": a, "end": b, "steps": fwd + back}))

    for _ in range(bound):
        if closed_a or closed_b or (not frontier_a and not frontier_b):
            break
        # expand the smaller live frontier first
        if frontier_a and (not frontier_b or len(frontier_a) <= len(frontier_b)):
            side, parents, other = "a", parent_a, parent_b
            frontier = frontier_a
        else:
            side, parents, other = "b", parent_b, parent_a
            frontier = frontier_b
        nxt = []
        for cur in frontier:
            for succ, label in _neighbors(graph, cur):
                if succ in other:
                    parents.setdefault(succ, (cur, label))
                    return meet_cert(succ)
                if succ not in parents:
                    parents[succ] = (cur, label)
                    nxt.append(succ)
                    if len(parents) > node_cap:
                        return unknown(f"node cap {node_cap} hit")
        if side == "a":
            frontier_a = nxt
            closed_a = not nxt
        else:
            frontier_b = nxt
            closed_b = not nxt

    if closed_a or closed_b:
        return no(Certificate("component_separation",
                              {"left": a, "right": b,
                               "closed_side": "left" if closed_a else "right",
                               "component_size": len(parent_a if closed_a else parent_b)}))
    if not graph.is_lazy and _invariant_separates(graph, a, b):
        return no(Certificate("integer_invariant", {"left": a, "right": b}))
    return unknown(f"no connection within {bound} rounds")


def apply_chain(graph: GraphLike, start: FreeElement,
                steps: Sequence[StepLabel]) -> Optional[FreeElement]:
    """Replay a signed step chain; None when a step does not apply."""
    cur = start
    for d, gen, color in steps:
        cur = (step if d == +1 else step_back)(graph, cur, gen, color)
        if cur is None:
            return None
    return cur


# ---------------------------------------------------------------------------
# certificate replay


@register_replayer("rewrite_chain", YES)
def _replay_chain(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    end = apply_chain(graph, d["start"], d["steps"])
    return end == d["end"]


@register_replayer("zero_class", NO)
def _replay_zero(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return d["left"].is_zero() != d["right"].is_zero()


@register_replayer("component_separation", NO)
def _replay_component(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    closed = d["left"] if d["closed_side"] == "left" else d["right"]
    other = d["right"] if d["closed_side"] == "left" else d["left"]
    walked = 0
    for cur in bfs([closed], lambda c: (s for s, _ in _neighbors(graph, c)), None):
        walked += 1
        if cur == other or walked > d["component_size"] + 1:
            return False
    return True


@register_replayer("integer_invariant", NO)
def _replay_invariant(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return not graph.is_lazy and _invariant_separates(graph, d["left"], d["right"])
