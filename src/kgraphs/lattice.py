"""Hereditary saturated vertex sets and the order-ideal correspondence.

A vertex set H is hereditary when every edge with range in H has its source
in H, and saturated when a vertex all of whose degree-n sources lie in H (for
some n with at least one such path) itself lies in H.  On a finite graph the
unbounded quantifier over degrees becomes one over the finite commutative
semigroup of boolean matrices generated by the supports of the color
matrices: graph structure, built once and kept on the graph like its
coordinate matrices, so every closure, check and replay reuses it.

The smallest hereditary saturated set containing a vertex set is computed
on vertex bitmasks.  Every nonempty closed set contains the closure of each
of its vertices, so the |V| one-vertex closures decide cofinality at any
size; the whole lattice is listed as the closed sets of the closure, each
closed C yielding the closures of C plus one vertex, so the work grows with
the lattice, not with 2^|V| (Ganter & Wille, *Formal Concept Analysis*, 1999).

Hereditary saturated sets correspond to order ideals of the graded monoid:
H generates the ideal of elements that push inside H, and an ideal is
recovered from the vertices whose generators it contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import degrees as dg
from . import intlinalg as il
from .kgraph import GraphLike, VertexId, bfs, shared_fact, walk
from .monoid import TElement, common_level, push_to_level
from .tri import Certificate, Tri, no, register_replayer, yes


# ---------------------------------------------------------------------------
# boolean reachability semigroup


SEMIGROUP_CAP = 4096  # states of the boolean reachability semigroup


class SemigroupCapExceeded(RuntimeError):
    """The boolean reachability semigroup outgrew its state cap."""


class BooleanReach:
    """All distinct boolean supports of the coordinate matrices A_n, n != 0.

    Generated by closing the color supports under boolean products; the
    semigroup is commutative (the integer matrices commute) and finite, so
    the closure terminates.  Past ``SEMIGROUP_CAP`` states the build raises
    :class:`SemigroupCapExceeded`, which the classifiers turn into
    ``unknown``.  Each state is a tuple of row bitmasks (see
    :mod:`kgraphs.intlinalg`).
    """

    def __init__(self, graph):
        gens = [il.support(graph.color_matrix(i)) for i in range(graph.k)]

        def products(s):
            return (tuple(il.bool_vecmat(row, g) for row in s) for g in gens)
        found = bfs(gens, products, None)
        self.states: List[Tuple[int, ...]] = list(islice(found, SEMIGROUP_CAP))
        if next(found, None) is not None:
            raise SemigroupCapExceeded("boolean reachability semigroup exceeded "
                                       f"{SEMIGROUP_CAP} states (lattice.SEMIGROUP_CAP)")

    def saturates(self, row: int, hmask: int) -> bool:
        """Is there a degree n != 0 at which vertex ``row`` has paths and
        the sources of all of them lie in the vertex bitmask ``hmask``?"""
        return any(s[row] and not s[row] & ~hmask for s in self.states)


def semigroup(graph) -> BooleanReach:
    """The graph's semigroup, built on first use and kept on the graph; a
    build past the cap keeps nothing, so the next use raises again."""
    if graph._semigroup is None:
        graph._semigroup = BooleanReach(graph)
    return graph._semigroup


def _mask(graph, vs: Iterable[VertexId]) -> int:
    """The bitmask of the vertices of ``vs`` that lie in the graph."""
    idx = graph.vertex_index
    return sum(1 << idx[v] for v in set(vs) if v in idx)


def _sorted_sets(graph, masks: Iterable[int]) -> List[FrozenSet[VertexId]]:
    """The vertex sets of ``masks``, smallest first, then by their reprs."""
    sets = (frozenset(v for j, v in enumerate(graph.vertices) if m >> j & 1) for m in masks)
    return sorted(sets, key=lambda h: (len(h), sorted(map(repr, h))))


def _expands(mask: int, supp: Sequence[int]) -> bool:
    """Does every vertex in ``mask`` have an edge of the color of ``supp``?"""
    return all(r for j, r in enumerate(supp) if mask >> j & 1)


# ---------------------------------------------------------------------------
# closures


def hereditary_closure(graph: GraphLike, xs: Iterable[VertexId],
                       universe: Optional[Sequence[VertexId]] = None) -> Set[VertexId]:
    """Close under taking sources of out-edges.

    On a lazy graph a ``universe`` (typically a sampled window) clips the
    walk, making the result a truncated closure.
    """
    return set(walk(graph, xs, within=None if universe is None else set(universe)))


def _source_sets(graph: GraphLike, v: VertexId, depth: int) -> List[Set[VertexId]]:
    """The sets s(vL^n) for n in the box [0, depth]^k (n != 0), via set BFS."""
    k = graph.k
    memo: Dict[Tuple[int, ...], Set[VertexId]] = {dg.zero(k): {v}}
    for n in sorted(dg.box(dg.zero(k), (depth,) * k), key=dg.norm1):
        if n in memo:
            continue
        i = next(i for i in range(k) if n[i] > 0)
        prev = memo[dg.sub(n, dg.unit(k, i))]
        memo[n] = {e.source for w in prev for e in graph.out_edges(w, i)}
    return [s for n, s in memo.items() if any(n)]


def saturated_hereditary_closure(graph: GraphLike, xs: Iterable[VertexId],
                                 depth: int = 6) -> Set[VertexId]:
    """Smallest hereditary saturated set containing ``xs``.

    Alternates hereditary closure with saturation steps until stable.  On
    finite graphs saturation quantifies over the whole boolean reachability
    semigroup (exact); on lazy graphs it is truncated to the sampled window
    and degrees up to ``depth`` (a lower bound for the true closure).
    """
    if graph.is_lazy:
        universe = graph.sample_vertices(depth)
        x = hereditary_closure(graph, xs, universe)
        while True:
            added = False
            for u in universe:
                if u in x:
                    continue
                for srcs in _source_sets(graph, u, depth):
                    if srcs and srcs <= x:
                        x |= hereditary_closure(graph, {u}, universe)
                        added = True
                        break
            if not added:
                return x

    closed = mask_closure(graph)(_mask(graph, xs))
    return {v for j, v in enumerate(graph.vertices) if closed >> j & 1}


def mask_closure(graph) -> Callable[[int], int]:
    """The saturated hereditary closure of a finite graph on vertex bitmasks.

    Rows of ``graph.reach_rows()`` are hereditary, so OR-ing the rows of a
    mask's bits closes it hereditarily; every vertex that then saturates
    adds its own row, until nothing changes.
    """
    reach = semigroup(graph)
    down = graph.reach_rows()

    def close(x: int) -> int:
        x = il.bool_vecmat(x, down)
        while True:
            before = x
            for u, row in enumerate(down):
                if not x >> u & 1 and reach.saturates(u, x):
                    x |= row
            if x == before:
                return x
    return close


def is_hereditary(graph, h: Iterable[VertexId]) -> bool:
    hs = set(h)
    return all(e.source in hs for e in graph.edges if e.range in hs)


def is_saturated(graph, h: Iterable[VertexId]) -> bool:
    hmask, reach = _mask(graph, h), semigroup(graph)
    return not any(reach.saturates(j, hmask)
                   for j in range(len(graph.vertices)) if not hmask >> j & 1)


def proper_vertex_closures(graph) -> List[FrozenSet[VertexId]]:
    """The one-vertex closures other than V, smallest first (finite graphs):
    the lattice is trivial exactly when there are none, and the first is its
    smallest proper member."""
    close, n = mask_closure(graph), len(graph.vertices)
    return _sorted_sets(graph, {close(1 << j) for j in range(n)} - {(1 << n) - 1})


LATTICE_LIMIT = 20  # vertices; the lattice can have up to 2^|V| sets


@shared_fact
def all_hs_subsets(graph) -> List[FrozenSet[VertexId]]:
    """Every hereditary saturated subset, smallest first (finite graphs)."""
    if graph.is_lazy:
        raise ValueError("the full lattice needs a finite graph")
    if len(graph.vertices) > LATTICE_LIMIT:
        raise ValueError(f"lattice enumeration is limited to {LATTICE_LIMIT} vertices")
    close, n = mask_closure(graph), len(graph.vertices)

    def above(c):
        return (close(c | 1 << j) for j in range(n) if not c >> j & 1)
    return _sorted_sets(graph, bfs([close(0)], above, None))


# ---------------------------------------------------------------------------
# order ideals


@dataclass(frozen=True)
class OrderIdealDesc:
    """The order ideal generated by shifts of the vertices in ``h``."""

    h: FrozenSet[VertexId]


def ideal_of_vertex_set(graph, h: Iterable[VertexId]) -> OrderIdealDesc:
    return OrderIdealDesc(frozenset(h))


def ideal_membership(graph, a: TElement, h: Iterable[VertexId]) -> Tri:
    """Does a lie in the order ideal generated by the hereditary saturated h?

    a belongs exactly when some push of its level vector is supported inside
    h; the finitely many boolean support states make the search exhaustive.
    """
    hs = set(h)
    hkey = tuple(sorted(hs, key=repr))
    if a.is_zero():
        return yes(Certificate("ideal_member", {"a": a, "h": hkey,
                                                "level": None, "path": []}))
    t = common_level(a, TElement.zero(), graph.k)
    row = il.row_support(push_to_level(graph, a, t))
    hmask = _mask(graph, hs)
    gens = [il.support(graph.color_matrix(i)) for i in range(graph.k)]
    trail: Dict[int, List[int]] = {row: []}

    def expand(state):
        for i, gen in enumerate(gens):
            # the expansion relation only applies where out-edges exist
            if _expands(state, gen):
                new = il.bool_vecmat(state, gen)
                if new not in trail:
                    trail[new] = trail[state] + [i]
                yield new
    for state in bfs([row], expand, None):
        if not state & ~hmask:
            return yes(Certificate("ideal_member",
                                   {"a": a, "h": hkey, "level": t,
                                    "path": trail[state]}))
    return no(Certificate("ideal_nonmember", {"a": a, "h": hkey}))


def vertices_of_ideal(graph, ideal: OrderIdealDesc) -> FrozenSet[VertexId]:
    """Recover the hereditary saturated set from the ideal it generates."""
    return frozenset(v for v in graph.vertices
                     if ideal_membership(graph, TElement.gen(v, dg.zero(graph.k)),
                                         ideal.h).is_yes)


def rho_eta_roundtrip(graph, h: Iterable[VertexId]) -> bool:
    """Check that generating an ideal and reading back its vertices is lossless."""
    hs = frozenset(h)
    return vertices_of_ideal(graph, ideal_of_vertex_set(graph, hs)) == hs


# ---------------------------------------------------------------------------
# primes and quotients


def is_prime_ideal(graph, h: Iterable[VertexId]) -> Tri:
    """Is the ideal of the proper hereditary saturated set h prime?

    Equivalent to the complement being a maximal tail: any two outside
    vertices must reach a common outside vertex.
    """
    hs = set(h)
    hkey = tuple(sorted(hs, key=repr))
    comp = [v for v in graph.vertices if v not in hs]
    if not comp:
        return no(Certificate("not_prime", {"h": hkey, "reason": "improper"}))
    reach, idx = graph.reach_rows(), graph.vertex_index
    cmask = _mask(graph, comp)
    for v in comp:
        for w in comp:
            if not reach[idx[v]] & reach[idx[w]] & cmask:
                return no(Certificate("not_prime", {"h": hkey, "v": v, "w": w}))
    return yes(Certificate("prime_tail", {"h": hkey}))


# ---------------------------------------------------------------------------
# certificate replay


@register_replayer("ideal_member")
def _replay_ideal_member(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    a = d["a"]
    if a.is_zero():
        return True
    row = il.row_support(push_to_level(graph, a, d["level"]))
    for i in d["path"]:
        gen = il.support(graph.color_matrix(i))
        if not _expands(row, gen):
            return False
        row = il.bool_vecmat(row, gen)
    return not row & ~_mask(graph, d["h"])


@register_replayer("ideal_nonmember")
def _replay_ideal_nonmember(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return ideal_membership(graph, d["a"], set(d["h"])).is_no


@register_replayer("not_prime")
def _replay_not_prime(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    hs = set(d["h"])
    comp = [u for u in graph.vertices if u not in hs]
    if d.get("reason") == "improper":
        return not comp
    reach, idx = graph.reach_rows(), graph.vertex_index
    v, w = d["v"], d["w"]
    if v in hs or w in hs:
        return False
    return not reach[idx[v]] & reach[idx[w]] & _mask(graph, comp)


@register_replayer("prime_tail")
def _replay_prime_tail(graph, tri: Tri) -> bool:
    return is_prime_ideal(graph, set(tri.certificate.data["h"])).is_yes
