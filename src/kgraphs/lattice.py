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

On a finite graph the order ideal generated by the shifts of a vertex set h
holds exactly the elements whose support lies in U, the unit-degree closure
of h: the smallest hereditary set containing h that takes in every vertex u
with, for some color i, color-i edges whose sources all lie in U.  The
defining relations are the unit expansions v(n) = sum over e in vL^{e_i} of
s(e)(n + e_i); read in either direction, each one keeps an element supported
in a hereditary unit-saturated set supported there.  So being supported in U
does not depend on how an element is written, those elements form an order
ideal, and every generator of U lies in each ideal containing h.  This holds
with sources too.  When h is hereditary saturated, U = h: saturation over
all degrees includes the unit degrees, so h is one of the sets whose
intersection is U.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from . import degrees as dg
from . import intlinalg as il
from .kgraph import GraphLike, VertexId, bfs, graph_fact, walk
from .tri import NO, YES, Certificate, Tri, no, register_replayer, unknown, yes


# ---------------------------------------------------------------------------
# boolean reachability semigroup


SEMIGROUP_CAP = 4096  # states of the boolean reachability semigroup


class SemigroupCapExceeded(ValueError):
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
        gens = _color_supports(graph)

        def products(s):
            return (tuple(il.bool_vecmat(row, g) for row in s) for g in gens)
        found = bfs(gens, products, None)
        self.states: Tuple[Tuple[int, ...], ...] = tuple(islice(found, SEMIGROUP_CAP))
        if next(found, None) is not None:
            raise SemigroupCapExceeded("boolean reachability semigroup exceeded "
                                       f"{SEMIGROUP_CAP} states (lattice.SEMIGROUP_CAP)")

    def saturates(self, row: int, hmask: int) -> bool:
        """Is there a degree n != 0 at which vertex ``row`` has paths and
        the sources of all of them lie in the vertex bitmask ``hmask``?"""
        return any(s[row] and not s[row] & ~hmask for s in self.states)


def _color_supports(graph) -> List[Tuple[int, ...]]:
    """The boolean supports of the color matrices."""
    return [il.support(graph.color_matrix(i)) for i in range(graph.k)]


@graph_fact
def semigroup(graph) -> BooleanReach:
    """The graph's semigroup, built on first use and kept on the graph; a
    build past the cap keeps nothing, so the next use raises again."""
    return BooleanReach(graph)


def _mask(graph, vs: Iterable[VertexId]) -> int:
    """The bitmask of the vertices of ``vs`` that lie in the graph."""
    idx = graph.vertex_index
    return sum(1 << idx[v] for v in set(vs) if v in idx)


def _sorted_sets(graph, masks: Iterable[int]) -> List[FrozenSet[VertexId]]:
    """The vertex sets of ``masks``, smallest first, then by their reprs."""
    sets = (frozenset(v for j, v in enumerate(graph.vertices) if m >> j & 1) for m in masks)
    return sorted(sets, key=lambda h: (len(h), sorted(map(repr, h))))


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

    closed = mask_closure(graph, semigroup(graph).saturates)(_mask(graph, xs))
    return {v for j, v in enumerate(graph.vertices) if closed >> j & 1}


def mask_closure(graph, saturates: Callable[[int, int], bool]) -> Callable[[int], int]:
    """The closure of vertex bitmasks of a finite graph under heredity and
    ``saturates``: ``semigroup(graph).saturates`` gives the hereditary
    saturated closure, :func:`unit_saturates` the unit-degree closure.

    Rows of ``graph.reach_rows()`` are hereditary, so OR-ing the rows of a
    mask's bits closes it hereditarily; every vertex that then saturates
    adds its own row, until nothing changes.
    """
    down = graph.reach_rows()

    def close(x: int) -> int:
        x = il.bool_vecmat(x, down)
        while True:
            before = x
            for u, row in enumerate(down):
                if not x >> u & 1 and saturates(u, x):
                    x |= row
            if x == before:
                return x
    return close


def is_hereditary(graph, h: Iterable[VertexId]) -> bool:
    if graph.is_lazy:
        raise ValueError("is_hereditary needs a finite graph")
    hs = set(h)
    return all(e.source in hs for e in graph.edges if e.range in hs)


def is_saturated(graph, h: Iterable[VertexId]) -> bool:
    if graph.is_lazy:
        raise ValueError("is_saturated needs a finite graph")
    hmask, reach = _mask(graph, h), semigroup(graph)
    return not any(reach.saturates(j, hmask)
                   for j in range(len(graph.vertices)) if not hmask >> j & 1)


@graph_fact
def proper_vertex_closures(graph) -> List[FrozenSet[VertexId]]:
    """The one-vertex closures other than V, smallest first (finite graphs):
    the lattice is trivial exactly when there are none, and the first is its
    smallest proper member."""
    close, n = mask_closure(graph, semigroup(graph).saturates), len(graph.vertices)
    return _sorted_sets(graph, {close(1 << j) for j in range(n)} - {(1 << n) - 1})


LATTICE_LIMIT = 20  # vertices; the lattice can have up to 2^|V| sets


@graph_fact
def all_hs_subsets(graph) -> List[FrozenSet[VertexId]]:
    """Every hereditary saturated subset, smallest first (finite graphs)."""
    if graph.is_lazy:
        raise ValueError("the full lattice needs a finite graph")
    if len(graph.vertices) > LATTICE_LIMIT:
        raise ValueError(f"lattice enumeration is limited to {LATTICE_LIMIT} vertices")
    close, n = mask_closure(graph, semigroup(graph).saturates), len(graph.vertices)

    def above(c):
        return (close(c | 1 << j) for j in range(n) if not c >> j & 1)
    return _sorted_sets(graph, bfs([close(0)], above, None))


# ---------------------------------------------------------------------------
# order ideals


def unit_saturates(graph) -> Callable[[int, int], bool]:
    """Saturation at unit degrees: does vertex ``row`` have, in some color,
    edges whose sources all lie in the vertex bitmask ``x``?"""
    supports = _color_supports(graph)
    return lambda row, x: any(s[row] and not s[row] & ~x for s in supports)


def _unit_closure(graph, h: Iterable[VertexId]) -> int:
    """The bitmask of the unit-degree closure of h (finite graphs)."""
    return mask_closure(graph, unit_saturates(graph))(_mask(graph, h))


def _outside(graph, a, closed: int) -> List[VertexId]:
    """The vertices of a's support outside the bitmask ``closed``, in the
    order of a's generators; ValueError for a vertex not in the graph."""
    idx, out = graph.vertex_index, []
    for (v, _), _ in a.items:
        if v not in idx:
            raise ValueError(f"{v!r} is not a vertex of the graph")
        if not closed >> idx[v] & 1 and v not in out:
            out.append(v)
    return out


def ideal_membership(graph, a, h: Iterable[VertexId]) -> Tri:
    """Does the element a lie in the order ideal generated by the shifts of
    the vertices in h?

    Exactly when its support lies in the unit-degree closure U of h (see the
    module docstring).  A "no" records U and a support vertex outside it;
    lazy graphs get ``unknown``, and ValueError names an offset of a whose
    length is not the rank.
    """
    for n in a.offsets():
        dg.validate_vec(n, graph.k, "offset")
    if graph.is_lazy:
        return unknown("ideal membership needs a finite graph")
    hkey = tuple(sorted(set(h), key=repr))
    closed = _unit_closure(graph, hkey)
    outside = _outside(graph, a, closed)
    if not outside:
        return yes(Certificate("ideal_member", {"a": a, "h": hkey}))
    u = [v for j, v in enumerate(graph.vertices) if closed >> j & 1]
    return no(Certificate("ideal_nonmember",
                          {"a": a, "h": hkey, "closure": tuple(sorted(u, key=repr)),
                           "witness": outside[0]}))


# ---------------------------------------------------------------------------
# primes and quotients


def is_prime_ideal(graph, h: Iterable[VertexId]) -> Tri:
    """Is the ideal of the proper hereditary saturated set h prime?

    Equivalent to the complement being a maximal tail: any two outside
    vertices must reach a common outside vertex.
    """
    if graph.is_lazy:
        return unknown("primality needs a finite graph")
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


@register_replayer("ideal_member", YES)
def _replay_ideal_member(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return not graph.is_lazy and not _outside(graph, d["a"], _unit_closure(graph, d["h"]))


@register_replayer("ideal_nonmember", NO)
def _replay_ideal_nonmember(graph, tri: Tri) -> bool:
    """The recorded U contains h and is hereditary and unit-saturated, so it
    contains the unit-degree closure of h; the witness, a support vertex
    outside U, then lies outside the ideal.  Nothing is closed or searched."""
    d = tri.certificate.data
    if graph.is_lazy:
        return False
    u = set(d["closure"])
    umask, sat = _mask(graph, u), unit_saturates(graph)
    return (not _mask(graph, d["h"]) & ~umask and is_hereditary(graph, u)
            and not any(sat(j, umask) for j in range(len(graph.vertices))
                        if not umask >> j & 1)
            and d["witness"] in _outside(graph, d["a"], umask))


@register_replayer("not_prime", NO)
def _replay_not_prime(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if graph.is_lazy:
        return False
    hs = set(d["h"])
    comp = [u for u in graph.vertices if u not in hs]
    if d.get("reason") == "improper":
        return not comp
    reach, idx = graph.reach_rows(), graph.vertex_index
    v, w = d["v"], d["w"]
    if v in hs or w in hs:
        return False
    return not reach[idx[v]] & reach[idx[w]] & _mask(graph, comp)


@register_replayer("prime_tail", YES)
def _replay_prime_tail(graph, tri: Tri) -> bool:
    return is_prime_ideal(graph, set(tri.certificate.data["h"])).is_yes
