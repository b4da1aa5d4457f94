"""One-step rewriting on the free commutative monoid over vertices.

A free element is a finite multiset of generators (vertices of the graph at
hand; for skew products the generators are (vertex, offset) pairs).  A step
in color i replaces one occurrence of a generator v by the multiset of
sources of its color-i out-edges, and is only enabled when that edge set is
nonempty.  The congruence generated by these steps (with the zero class kept
trivial) is exactly connectivity in the symmetric step graph, which is what
:func:`congruent` searches.

Every step goes through one engine, :class:`_Steps`.  Its states are the
``items`` of a :class:`FreeElement`: plain ``((generator, coefficient), ...)``
tuples sorted by the generator's ``repr``, and a step is a dict update and
one keyed sort.  An engine lives for one search or replay and reads each
generator's ``repr``, each (generator, color) expansion and, on a lazy
graph, each in-edge candidate list once; nothing goes on the graph's store.

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
State = Tuple[Tuple[Gen, int], ...]  # a FreeElement's items

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

    def __repr__(self) -> str:
        if not self.items:
            return "0"
        return " + ".join(f"{n}*{g!r}" if n != 1 else f"{g!r}"
                          for g, n in self.items)


def expansion(graph: GraphLike, gen: Gen, color: int) -> Optional[FreeElement]:
    """The multiset of out-edge sources of ``gen`` in ``color``; None when
    there is none (the step is not enabled there: sources never rewrite away)."""
    exp = _Steps(graph).expansion(gen, color)
    return None if exp is None else FreeElement.from_pairs(exp)


class _Reprs(dict):
    """``repr`` of each key, computed on first lookup."""

    def __missing__(self, key):
        self[key] = r = repr(key)
        return r


class _Steps:
    """The step relation of ``graph`` on states, for one search or replay."""

    def __init__(self, graph: GraphLike):
        self.graph, self.colors = graph, range(graph.k)
        reprs, self.in_reprs = _Reprs(), _Reprs()
        self.key = lambda kv: reprs[kv[0]]
        self.exps: Dict[Tuple[Gen, int], Optional[State]] = {}
        self.ins: Dict[Tuple[Gen, int], List[Tuple[Gen, int]]] = {}  # in-edge ranges
        self.every = None if graph.is_lazy else \
            [(-1, v, i) for v in graph.vertices for i in self.colors]

    def expansion(self, gen: Gen, color: int) -> Optional[State]:
        """(source, count) pairs of the color-``color`` out-edges of
        ``gen``; None where the step is not enabled."""
        if (gen, color) not in self.exps:
            edges = self.graph.out_edges(gen, color)
            self.exps[gen, color] = tuple(Counter(e.source for e in edges).items()) or None
        return self.exps[gen, color]

    def step(self, cur: State, label: StepLabel) -> Optional[State]:
        """One step, forward if the direction is +1, else back; None where
        the step is not enabled."""
        d, gen, color = label
        exp = self.expansion(gen, color)
        if exp is None:
            return None
        take, give = (((gen, 1),), exp) if d == +1 else (exp, ((gen, 1),))
        counts = dict(cur)
        for g, m in take:
            n = counts.get(g, 0) - m
            if n < 0:
                return None
            counts[g] = n
        for g, m in give:
            counts[g] = counts.get(g, 0) + m
        return tuple(sorted([kv for kv in counts.items() if kv[1]], key=self.key))

    def forward(self, cur: State) -> List[StepLabel]:
        """Generators in repr order, then colors ascending."""
        return [(+1, g, c) for g, _ in cur for c in self.colors]

    def backward(self, cur: State) -> List[StepLabel]:
        """Every (vertex, color) in vertex order on a finite graph; on a lazy
        one the ranges of in-edges at ``cur``, in repr order."""
        if self.every is not None:
            return self.every
        if not self.graph.supports_in_edges:
            return []
        found = set()
        for gen, _ in cur:
            for color in self.colors:
                if (gen, color) not in self.ins:
                    self.ins[gen, color] = [
                        (e.range, color) for e in self.graph.in_edges(gen, color)]
                found.update(self.ins[gen, color])
        return [(-1, g, c) for g, c in sorted(found, key=self.in_reprs.__getitem__)]

    def neighbors(self, cur: State, labels=None) -> List[Tuple[State, StepLabel]]:
        """The enabled steps among ``labels`` (all of them by default), with
        the states they reach."""
        out = []
        for label in self.forward(cur) + self.backward(cur) if labels is None else labels:
            nxt = self.step(cur, label)
            if nxt is not None:
                out.append((nxt, label))
        return out


def successors(graph: GraphLike, elem: FreeElement) -> List[Tuple[FreeElement, StepLabel]]:
    steps = _Steps(graph)
    return [(FreeElement(s), label)
            for s, label in steps.neighbors(elem.items, steps.forward(elem.items))]


def _invariant_separates(steps: _Steps, a: FreeElement, b: FreeElement) -> bool:
    """Is a - b outside the integer lattice spanned by the relation vectors
    (finite graphs)?  Each step changes the coefficient vector by a relation
    vector, so then a and b are never congruent.  ValueError for a
    generator the graph lacks."""
    verts, idx = steps.graph.vertices, steps.graph.vertex_index
    diff = [0] * len(verts)
    for sign, elem in ((1, a), (-1, b)):
        for g, n in elem.items:
            if g not in idx:
                raise ValueError(f"{g!r} is not a vertex of the graph")
            diff[idx[g]] += sign * n
    rels = []
    for _, v, color in steps.every:
        exp = steps.expansion(v, color)
        if exp is not None:
            vec = [0] * len(verts)
            for g, n in ((v, -1),) + exp:
                vec[idx[g]] += n
            rels.append(vec)
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

    steps = _Steps(graph)
    neighbors = steps.neighbors
    parents = ({a.items: None}, {b.items: None})  # state -> (state before, label)
    frontiers = [[a.items], [b.items]]

    def chain(side: int, cur: State) -> List[StepLabel]:
        labels = []
        while parents[side][cur] is not None:
            cur, label = parents[side][cur]
            labels.append(label)
        return labels[::-1]

    for _ in range(bound):
        if not all(frontiers):
            break
        # expand the smaller frontier first, the left one on a tie
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = parents[side], parents[1 - side]
        nxt = []
        for cur in frontiers[side]:
            for succ, label in neighbors(cur):
                if succ in other:
                    mine.setdefault(succ, (cur, label))
                    back = [(-d, g, c) for d, g, c in reversed(chain(1, succ))]
                    return yes(Certificate("rewrite_chain",
                                           {"start": a, "end": b, "steps": chain(0, succ) + back}))
                if succ not in mine:
                    mine[succ] = (cur, label)
                    nxt.append(succ)
                    if len(mine) > node_cap:
                        return unknown(f"node cap {node_cap} hit")
        frontiers[side] = nxt

    for side, closed in enumerate(("left", "right")):
        if not frontiers[side]:
            return no(Certificate("component_separation",
                                  {"left": a, "right": b, "closed_side": closed,
                                   "component_size": len(parents[side])}))
    if not graph.is_lazy and _invariant_separates(steps, a, b):
        return no(Certificate("integer_invariant", {"left": a, "right": b}))
    return unknown(f"no connection within {bound} rounds")


def apply_chain(graph: GraphLike, start: FreeElement,
                steps: Sequence[StepLabel]) -> Optional[FreeElement]:
    """Replay a signed step chain; None when a step does not apply."""
    engine = _Steps(graph)
    cur: Optional[State] = start.items
    for label in steps:
        cur = engine.step(cur, label)
        if cur is None:
            return None
    return FreeElement(cur)


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
    left, right = d["left"], d["right"]
    closed, other = (left, right) if d["closed_side"] == "left" else (right, left)
    steps = _Steps(graph)
    walked = 0
    for cur in bfs([closed.items], lambda c: (s for s, _ in steps.neighbors(c)), None):
        walked += 1
        if cur == other.items or walked > d["component_size"] + 1:
            return False
    return True


@register_replayer("integer_invariant", NO)
def _replay_invariant(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return not graph.is_lazy and _invariant_separates(_Steps(graph), d["left"], d["right"])
