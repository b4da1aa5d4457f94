"""The graded vertex monoid and its Z^k shift action.

Elements are finite nonnegative combinations of generators ``v(n)`` (vertex
v, offset n in Z^k), subject to the relations that expand a generator into
the sources of its out-edges one color at a time, with the shift action
``act(p, v(n)) = v(n + p)``.  Forgetting offsets lands in the plain vertex
monoid whose word problem is handled by :mod:`kgraphs.rewrite`.

Deciding equality uses the level picture: on a finite graph without sources
every element pushes to a level vector at any common level t, pushing
commutes with the defining relations, and two elements agree exactly when
some further push A_m equalizes their level vectors.  The decisive exponent
m* = (|V|, ..., |V|) settles it: the difference of the level vectors is
pushed through each color matrix |V| times, a nonzero result is a "no", and
only a "yes" scans small exponents, m = 0 first, for the smallest
equalizer.  Order scans the same exponents with <= in place of ==.  On a
finite graph with sources a kept trace tau(v(n)) = phi(v) * lam^n that
tells the two apart is a "no" (:func:`separating_trace`); what no trace
separates, and lazy graphs without graded keys, go to rewriting on the
degree skew product (:func:`t_equal_rewrite`).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, count, islice, permutations, product
from typing import Dict, List, Optional, Sequence, Tuple

from . import degrees as dg
from . import intlinalg as il
from . import rewrite as rw
from .kgraph import (LAZY_LEAF_DEPTH, GraphLike, VertexId, graph_fact, is_leaf,
                     leaves, skew_product)
from .lattice import SemigroupCapExceeded, saturated_hereditary_closure
from .tri import NO, YES, Certificate, Tri, no, register_replayer, replay, unknown, yes

Vec = Tuple[int, ...]


@dataclass(frozen=True)
class Bounds:
    """Search bounds shared by the bounded decision procedures."""

    push: int = 16            # 1-norm cap on equalizer exponents
    rewrite: int = 24         # rounds of bidirectional rewrite search
    node_cap: int = rw.DEFAULT_NODE_CAP  # visited-state cap for rewrite searches
    offset_radius: int = 4    # offset box for periodic-element candidates
    period_radius: int = 4    # period box for periodic-element candidates
    support: int = 2          # max support of periodic-element candidates
    coeff: int = 4            # max coefficient of periodic-element candidates
    leaf_depth: int = LAZY_LEAF_DEPTH  # walk depth for leaf checks on lazy graphs
    sample_depth: int = 6     # vertex sampling depth on lazy graphs


DEFAULT_BOUNDS = Bounds()


@dataclass(frozen=True)
class TElement:
    """Sum of generators v(n): ((vertex, offset) -> coefficient), sorted."""

    items: Tuple[Tuple[Tuple[VertexId, Vec], int], ...]

    @staticmethod
    def from_pairs(pairs) -> "TElement":
        c: Counter = Counter()
        for (v, n), coeff in pairs:
            if coeff < 0:
                raise ValueError("coefficients must be nonnegative")
            if coeff:
                c[(v, tuple(n))] += coeff
        return TElement(tuple(sorted(c.items(), key=lambda kv: repr(kv[0]))))

    @staticmethod
    def gen(v: VertexId, n: Sequence[int], coeff: int = 1) -> "TElement":
        return TElement.from_pairs([((v, tuple(n)), coeff)])

    @staticmethod
    def zero() -> "TElement":
        return TElement(())

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "TElement") -> "TElement":
        return TElement.from_pairs(list(self.items) + list(other.items))

    def offsets(self) -> List[Vec]:
        return [n for (_, n), _ in self.items]

    def __repr__(self) -> str:
        if not self.items:
            return "0"
        parts = []
        for (v, n), c in self.items:
            base = f"{v}({','.join(map(str, n))})"
            parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)


MElement = rw.FreeElement  # the offset-forgetting quotient lives over vertices


def act(p: Sequence[int], a: TElement) -> TElement:
    """The shift action: translate every offset by p."""
    p = tuple(p)
    return TElement.from_pairs([(((v, dg.add(n, p))), c) for (v, n), c in a.items])


def forget(a: TElement) -> MElement:
    """Forget offsets: the image in the plain vertex monoid."""
    return rw.FreeElement.from_pairs([(v, c) for (v, _), c in a.items])


def to_skew(a: TElement) -> rw.FreeElement:
    """Reinterpret as a free element over skew-product vertices (v, n)."""
    return rw.FreeElement.from_pairs([((v, n), c) for (v, n), c in a.items])


def m_congruent(graph: GraphLike, a: rw.FreeElement, b: rw.FreeElement,
                bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Equality in the offset-free vertex monoid (rewriting search)."""
    return rw.congruent(graph, a, b, bound=bounds.rewrite, node_cap=bounds.node_cap)


# ---------------------------------------------------------------------------
# level vectors


def push_to_level(graph, a: TElement, t: Sequence[int]) -> il.Vector:
    """The level vector of a at level t >= every offset of a (finite graph,
    no sources), indexed by ``graph.vertices``.

    Each generator ``c * v(n)`` adds c times the row at v of the degree-(t - n)
    coordinate matrix.
    """
    t = dg.validate_vec(tuple(t), graph.k, "level")
    x = (0,) * len(graph.vertices)
    for (v, n), c in a.items:
        if not dg.leq(n, t):
            raise ValueError(f"level {t} is below offset {n}")
        row = graph.coord_matrix(dg.sub(t, n))[_position(graph, v)]
        x = tuple(p + c * q for p, q in zip(x, row))
    return x


def _check_generators(graph, *elements: TElement) -> None:
    """ValueError naming a generator v(n) of ``elements`` that the graph
    cannot take: n not of length k, or on a finite graph v not a vertex."""
    for a in elements:
        for (v, n), _ in a.items:
            if len(n) != graph.k:
                dg.validate_vec(n, graph.k, "offset")
            if not graph.is_lazy:
                _position(graph, v)


def _position(graph, v: VertexId) -> int:
    """The index of v in ``graph.vertices``; ValueError if the graph lacks v."""
    if v not in graph.vertex_index:
        raise ValueError(f"{v!r} is not a vertex of the graph")
    return graph.vertex_index[v]


def common_level(a: TElement, b: TElement, k: int) -> Vec:
    return functools.reduce(dg.join, a.offsets() + b.offsets(), dg.zero(k))


def _level_vectors(graph, a: TElement, b: TElement,
                   t: Optional[Sequence[int]] = None) -> Tuple[Vec, il.Vector, il.Vector]:
    """(t, x, y): the level vectors of a and b at level t, by default at
    their common level.  ValueError off a finite graph without sources,
    where a push can send a nonzero element to the zero vector."""
    if graph.is_lazy or graph.has_sources():
        raise ValueError("level vectors need a finite graph without sources")
    if t is None:
        t = common_level(a, b, graph.k)
    return t, push_to_level(graph, a, t), push_to_level(graph, b, t)


def is_exact(graph) -> bool:
    """True when every color matrix is injective (has full rank: no kernel)."""
    return not any(il.kernel_basis(graph.color_matrix(i), len(graph.vertices))
                   for i in range(graph.k))


def _equalizer_exponents(k: int, bound: int):
    """Nonzero exponent vectors m with |m|_1 <= bound, small first."""
    for s in range(1, bound + 1):
        for slots in combinations_with_replacement(range(k), s):
            m = [0] * k
            for i in slots:
                m[i] += 1
            yield tuple(m)


def _holds_at(graph, x: il.Vector, y: il.Vector, m: Sequence[int], holds) -> bool:
    """Does ``holds`` relate the pushed vectors x A_m and y A_m?"""
    am = graph.coord_matrix(m)
    return holds(il.vecmat(x, am), il.vecmat(y, am))


def _first_push(graph, x: il.Vector, y: il.Vector, holds, bound: int) -> Optional[Vec]:
    """The first exponent, m = 0 and then those of ``_equalizer_exponents``,
    at which ``holds`` relates x A_m and y A_m."""
    if holds(x, y):
        return dg.zero(graph.k)
    return next((m for m in _equalizer_exponents(graph.k, bound)
                 if _holds_at(graph, x, y, m, holds)), None)


# ---------------------------------------------------------------------------
# graded-key fast path for graded lazy families


def _graded(graph) -> bool:
    """Is this a graded family (a lazy graph with a ``level_fn``)?"""
    return getattr(graph, "level_fn", None) is not None


def graded_keys(graph, a: TElement) -> Counter:
    """Class keys n - level(v) for graded families.

    On such families every generator is an atom, and two generators are
    equal exactly when their forward orbits meet, which the grading reduces
    to equality of n - level(v).  Elements are equal exactly when their key
    multisets agree.
    """
    c: Counter = Counter()
    for (v, n), coeff in a.items:
        c[dg.sub(n, graph.level_fn(v))] += coeff
    return c


# ---------------------------------------------------------------------------
# equality and order


def t_equal(graph, a: TElement, b: TElement, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Decide equality of two elements of the graded monoid.

    Graded lazy families compare key multisets, finite graphs without
    sources always get a verdict from the level engine, finite graphs with
    sources try :func:`separating_trace` first, and the rest goes to the
    skew rewriting of :func:`t_equal_rewrite`; ValueError names an offset
    whose length is not the rank, or on a finite graph a foreign vertex.
    """
    _check_generators(graph, a, b)
    if a == b:
        return yes(Certificate("level_equal", {"a": a, "b": b, "level": None}))
    if a.is_zero() != b.is_zero():
        return no(Certificate("zero_class_t", {"a": a, "b": b}))
    if _graded(graph):
        ka, kb = graded_keys(graph, a), graded_keys(graph, b)
        cert = Certificate("graded_keys", {"a": a, "b": b})
        return yes(cert) if ka == kb else no(cert)
    if graph.is_lazy:
        return t_equal_rewrite(graph, a, b, bounds)
    if not graph.has_sources():
        return _t_equal_level(graph, a, b, bounds)
    sep = separating_trace(graph, a, b)
    if sep is not None:
        return no(Certificate("trace_separates", {"a": a, "b": b, "lam": sep[0], "phi": sep[1]}))
    tri = t_equal_rewrite(graph, a, b, bounds)
    if tri.is_unknown:
        return unknown(f"no trace with each lam_i in {TRACE_LAMBDAS} separates them "
                       f"(monoid.TRACE_LAMBDAS), and {tri.note}")
    return tri


def _t_equal_level(graph, a: TElement, b: TElement, bounds: Bounds) -> Tri:
    t, x, y = _level_vectors(graph, a, b)
    # Decisive exponent first.  The left kernel of A_i^j is stable for
    # j >= |V|, and the A_i commute, so x - y dies under some A_m exactly
    # when it dies under A_m* with m* = (|V|, ..., |V|): a "no" there ends
    # the question (on graphs whose color matrices are all injective every
    # nonzero difference survives), and only a "yes" scans for the smallest
    # equalizer.
    mstar = (len(graph.vertices),) * graph.k
    if _differ_at_mstar(graph, x, y):
        return no(Certificate("kernel_stable", {"a": a, "b": b, "level": t, "m": mstar}))
    m = _first_push(graph, x, y, operator.eq,
                    min(bounds.push, graph.k * len(graph.vertices) - 1)) or mstar
    if not any(m):
        return yes(Certificate("level_equal", {"a": a, "b": b, "level": t}))
    return yes(Certificate("equalizer", {"a": a, "b": b, "level": t, "m": m}))


def _differ_at_mstar(graph, xv: Sequence[int], yv: Sequence[int]) -> bool:
    """Is (x - y) A_m* nonzero, m* = (|V|, ..., |V|)?  The difference is
    pushed one color matrix at a time and the push stops once it is zero."""
    d = tuple(p - q for p, q in zip(xv, yv))
    for i in range(graph.k):
        a = graph.color_matrix(i)
        for _ in graph.vertices:
            if not any(d):
                return False
            d = il.vecmat(d, a)
    return any(d)


def t_equal_rewrite(graph, a: TElement, b: TElement, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Equality by bounded rewriting on the degree skew product.

    Applies to every graph, lazy ones and ones with sources included; an
    exhausted search is unknown.
    """
    skew = skew_product(graph)
    inner = rw.congruent(skew, to_skew(a), to_skew(b),
                         bound=bounds.rewrite, node_cap=bounds.node_cap)
    if inner.is_unknown:
        return unknown(inner.note)
    cert = Certificate("skew_rewrite", {"a": a, "b": b, "inner": inner})
    return yes(cert) if inner.is_yes else no(cert)


def t_leq(graph, a: TElement, b: TElement, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Is a <= b in the algebraic order (some c with a + c = b)?

    Uses the level picture: a <= b exactly when some push A_m makes the
    level vector of a componentwise at most that of b.  Yes answers carry
    the exponent; a failed bounded search is unknown (order negativity has
    no finite certificate here in general).  ValueError as in :func:`t_equal`.
    """
    _check_generators(graph, a, b)
    if a == b or a.is_zero():
        return yes(Certificate("order_equalizer", {"a": a, "b": b, "level": None, "m": None}))
    if _graded(graph):
        ka, kb = graded_keys(graph, a), graded_keys(graph, b)
        cert = Certificate("graded_order", {"a": a, "b": b})
        return yes(cert) if all(kb[k] >= v for k, v in ka.items()) else no(cert)
    if graph.is_lazy or graph.has_sources():
        return unknown("order is only decided on finite graphs without sources")
    t, x, y = _level_vectors(graph, a, b)
    m = _first_push(graph, x, y, dg.leq, bounds.push)
    if m is None:
        return unknown(f"no order equalizer with |m|_1 <= {bounds.push}")
    return yes(Certificate("order_equalizer", {"a": a, "b": b, "level": t, "m": m}))


# ---------------------------------------------------------------------------
# atoms


def is_atom(graph, a: TElement, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Atoms are exactly the generators v(n) with v a leaf.

    Multi-generator elements split into nonzero parts, and a non-leaf vertex
    expands into at least two generators at some degree, so neither can be
    minimal.
    """
    if len(a.items) != 1 or a.items[0][1] != 1:
        return no(Certificate("composite", {"a": a}))
    (v, _), _ = a.items[0]
    return is_leaf(graph, v, depth=bounds.leaf_depth if graph.is_lazy else None)


def atoms(graph, bounds: Bounds = DEFAULT_BOUNDS) -> List[VertexId]:
    """Leaf vertices: their generators v(n) enumerate all atoms.

    On a lazy graph, the leaves of the sampled window at ``bounds.leaf_depth``.
    """
    return leaves(graph, graph.sample_vertices(bounds.sample_depth), bounds.leaf_depth)


def is_atomic(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Is every nonzero element a sum of atoms?

    On a finite graph without sources this holds exactly when the hereditary
    saturated closure of the leaf set is the whole vertex set.  Lazy graphs
    get bounded verdicts from the sampled window.
    """
    if graph.is_lazy:
        sampled = graph.sample_vertices(bounds.sample_depth)
        leaf_set = atoms(graph, bounds)
        if not sampled:
            return unknown("no vertices sampled")
        if not leaf_set:
            return no(Certificate("no_atoms_sampled",
                                  {"sample_depth": bounds.sample_depth,
                                   "leaf_depth": bounds.leaf_depth,
                                   "n_sampled": len(sampled), "bounded": True}),
                      note="no leaf among sampled vertices, so no atoms exist "
                           "in the sampled window (bounded verdict)")
        if len(leaf_set) == len(sampled):
            return yes(Certificate("all_leaves_sampled",
                                   {"sample_depth": bounds.sample_depth,
                                    "leaf_depth": bounds.leaf_depth,
                                    "n_sampled": len(sampled), "bounded": True}),
                       note="every sampled vertex is a leaf (bounded verdict)")
        return unknown("sampled window is mixed; closure not computable lazily")
    if graph.has_sources():
        return unknown("atomicity criterion needs a graph without sources")
    leaf_set = atoms(graph, bounds)
    try:
        closure = saturated_hereditary_closure(graph, leaf_set)
    except SemigroupCapExceeded as exc:
        return unknown(f"atomicity criterion: {exc}")
    missing = [v for v in graph.vertices if v not in closure]
    if not missing:
        return yes(Certificate("atomic_closure", {"leaves": leaf_set}))
    return no(Certificate("not_atomic", {"leaves": leaf_set, "missing": missing[0]}))


def factor_into_atoms(graph, a: TElement, bounds: Bounds = DEFAULT_BOUNDS) -> Optional[TElement]:
    """Rewrite a into an equal sum of atoms, or None within the bound.

    Breadth-first over expansions of non-leaf generators, branching over
    colors, for ``bounds.rewrite`` rounds and at most ``bounds.node_cap``
    elements; the first all-leaf element found is returned.
    """
    @functools.cache
    def leafy(v) -> bool:
        return is_leaf(graph, v, depth=bounds.leaf_depth if graph.is_lazy else None).is_yes

    expansion = functools.cache(functools.partial(rw.expansion, graph))
    # candidates are {generator: coefficient} dicts, seen as frozensets
    seen = {frozenset(a.items)}
    frontier = [dict(a.items)]
    for depth in range(bounds.rewrite + 1):
        for cur in frontier:
            if all(leafy(v) for v, _ in cur):
                return TElement.from_pairs(cur.items())
        if depth == bounds.rewrite:
            return None
        nxt = []
        for cur in frontier:
            for v, n in cur:
                if leafy(v):
                    continue
                for color in range(graph.k):
                    exp = expansion(v, color)
                    if exp is None:
                        continue
                    cand = dict(cur)
                    cand[(v, n)] -= 1
                    if not cand[(v, n)]:
                        del cand[(v, n)]
                    step = dg.add(n, dg.unit(graph.k, color))
                    for w, c in exp.items:
                        cand[(w, step)] = cand.get((w, step), 0) + c
                    key = frozenset(cand.items())
                    if key not in seen:
                        if len(seen) >= bounds.node_cap:
                            return None
                        seen.add(key)
                        nxt.append(cand)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# periodicity and freeness


def _normalize_period(p: Vec) -> Vec:
    """p or -p, whichever has its first nonzero entry positive."""
    for x in p:
        if x:
            return p if x > 0 else dg.neg(p)
    return p


def _period_candidates(k: int, radius: int) -> List[Vec]:
    cands = [p for p in dg.box((-radius,) * k, (radius,) * k) if any(p)]
    cands.sort(key=lambda p: (dg.norm1(p), tuple(-x for x in p)))
    return list(dict.fromkeys(map(_normalize_period, cands)))


def leaf_orbit_collision(graph, v: VertexId,
                         radius: int) -> Optional[Tuple[Vec, Vec, VertexId]]:
    """Two degrees at which the unique path from a leaf visits one vertex,
    and that vertex.

    Walks the orbit over the box [0, radius]^k in 1-norm order (earlier
    colors first on ties) and reports the first revisit; on a finite graph a
    revisit always exists along a single color by pigeonhole once the radius
    reaches the vertex count.
    """
    k = graph.k
    first: Dict[VertexId, Vec] = {}
    at: Dict[Vec, VertexId] = {dg.zero(k): v}
    # each m != 0 steps from m - e_i, i its first nonzero color, which has
    # the smaller 1-norm and so comes earlier
    for m in sorted(dg.box(dg.zero(k), (radius,) * k),
                    key=lambda m: (dg.norm1(m), tuple(-x for x in m))):
        if any(m):
            i = next(i for i, x in enumerate(m) if x)
            prev = at[dg.sub(m, dg.unit(k, i))]
            out = graph.out_edges(prev, i)
            if len(out) != 1:
                raise ValueError(f"{v!r} is not a leaf: branching at {prev!r}")
            at[m] = out[0].source
        w = at[m]
        if w in first:
            return first[w], m, w
        first[w] = m
    return None


PERIODIC_BUDGET = 2000  # candidates find_periodic_element tries


@graph_fact
def find_periodic_element(graph,
                          bounds: Bounds = DEFAULT_BOUNDS) -> Optional[Tuple[TElement, Vec]]:
    """Search the bounded box for a nonzero a and p != 0 with act(p, a) = a.

    Candidates are ordered simple-first: single generators (for which
    coefficients and offsets cancel away), then two-generator combinations,
    over the vertex window at ``bounds.sample_depth``; at most
    ``PERIODIC_BUDGET`` are tried.  Only certified-yes equality verdicts
    count; None means the bounded search found nothing, not that nothing
    exists.
    """
    if _graded(graph):
        return None  # translation moves every key multiset: nothing periodic
    verts = graph.sample_vertices(bounds.sample_depth)
    # where a candidate needs a rewrite search, keep its cost small (a real
    # witness is short); the level engine reads neither field
    scan = replace(bounds, rewrite=min(bounds.rewrite, 6),
                   node_cap=min(bounds.node_cap, 500))
    for a, p in islice(_periodic_candidates(graph, verts, bounds), PERIODIC_BUDGET):
        if t_equal(graph, a, act(p, a), bounds=scan).is_yes:
            return a, p
    return None


def _periodic_candidates(graph, verts: Sequence[VertexId], bounds: Bounds):
    """The (a, p) pairs :func:`find_periodic_element` tries, in its order."""
    k = graph.k
    periods = _period_candidates(k, bounds.period_radius)
    for v in verts:
        a = TElement.gen(v, dg.zero(k))
        for p in periods:
            yield a, p
    if bounds.support >= 2:
        offs = sorted(dg.box(dg.zero(k), (2 * bounds.offset_radius,) * k),
                      key=lambda m: (dg.norm1(m), m))
        for v, w in combinations_with_replacement(verts, 2):
            for n2 in offs:
                for c1 in range(1, bounds.coeff + 1):
                    for c2 in range(1, bounds.coeff + 1):
                        a = TElement.gen(v, dg.zero(k), c1) + TElement.gen(w, n2, c2)
                        for p in periods:
                            yield a, p


def acts_freely(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Does the shift act freely (no nonzero element fixed by a nonzero shift)?

    Decision routes, strongest first: graded families are free because
    translation moves every key multiset; a single-vertex graph without
    sources is free exactly when all color multiplicities are at least 2
    and multiplicatively independent; an atomic finite graph is
    never free because some leaf orbit revisits a vertex (pigeonhole); a
    finite graph with sources is free when it has a graded trace
    (:func:`graded_trace`); otherwise a bounded periodic-element search can
    certify non-freeness.
    """
    k = graph.k
    if _graded(graph):
        return yes(Certificate("graded_translation", {}),
                   note="finite key multisets admit no nonzero translation symmetry")

    tried, found = "", None
    if not graph.is_lazy and graph.has_sources():
        trace = graded_trace(graph)
        if trace is not None:
            lam, phi = trace
            return yes(Certificate("free_trace", {"lam": lam, "phi": phi}),
                       note=f"the graded trace phi(v) * lam^n, lam = {lam}, is positive "
                            "and a shift by p scales it by lam^p")
        tried = f"no graded trace with lam a permutation of the first {k} primes, and "
    elif not graph.is_lazy and len(graph.vertices) == 1:
        v = graph.vertices[0]
        counts = [len(graph.out_edges(v, i)) for i in range(k)]
        if all(c >= 2 for c in counts) and il.exponent_rank(counts) == k:
            return yes(Certificate("free_multiplicative", {"counts": counts}))
        if 1 in counts:  # v(0) = v(e_i) along a single loop of color i
            found = TElement.gen(v, dg.zero(k)), dg.unit(k, counts.index(1))
        else:  # counts^z = 1 for z in the kernel of the exponent matrix
            z = _normalize_period(il.kernel_basis(tuple(zip(*il.exponent_matrix(counts))), k)[0])
            found = TElement.gen(v, tuple(max(-x, 0) for x in z)), z
    elif not graph.is_lazy:
        leaf_set = atoms(graph, bounds)
        hit = leaf_set and leaf_orbit_collision(graph, leaf_set[0], len(graph.vertices) + 1)
        if hit:
            m1, m2, u = hit
            found = TElement.gen(u, dg.zero(k)), _normalize_period(dg.sub(m2, m1))

    found = found or find_periodic_element(graph, bounds)
    if found is not None:
        a, p = found
        return no(Certificate("periodic_pair", {"element": a, "period": p}))
    return unknown(f"{tried}no periodic element among the first {PERIODIC_BUDGET} "
                   "candidates of the bounded search box (monoid.PERIODIC_BUDGET)")


@graph_fact
def graded_trace(graph) -> Optional[Tuple[Vec, Vec]]:
    """(lam, phi): a trace tau(v(n)) = phi[v] * lam^n on the monoid of a
    finite graph, phi > 0 indexed by ``graph.vertices`` and lam a
    permutation of the first k primes; None when no permutation has one.

    tau respects the relation v(n) = sum_e s(e)(n + e_i) exactly when
    phi(v) = lam_i * sum_e phi(s(e)) for every color i in which v has
    edges, so phi lies in the kernel of the rows e_v - lam_i A_i[v].  Then
    tau is additive on T_Lambda and tau(act(p, a)) = lam^p tau(a).  If
    a != 0 and act(p, a) = a, then tau(a) > 0 forces lam^p = 1, and p = 0
    because the entries of lam are multiplicatively independent: the
    action is free.

    Only graphs with sources can have one.  Without sources every vertex
    has edges in every color, so A_i phi = phi / lam_i with phi > 0; then
    1 / lam_i is a rational eigenvalue of an integer matrix, hence an
    integer, which no lam_i >= 2 is.
    """
    primes = tuple(islice((p for p in count(2) if il.factorize(p) == {p: 1}), graph.k))
    for lam in permutations(primes):
        # the first basis vector is positive at its free column
        phi = next(iter(il.kernel_basis(_trace_rows(graph, lam), len(graph.vertices))), ())
        if phi and all(x > 0 for x in phi):
            return lam, phi
    return None


def _trace_rows(graph, lam: Sequence[int]) -> List[il.Vector]:
    """The rows e_v - lam_i A_i[v], one per color i and vertex v with
    color-i edges: phi is a trace for lam exactly when each row kills it."""
    return [tuple(int(j == v) - lam_i * x for j, x in enumerate(row))
            for i, lam_i in enumerate(lam)
            for v, row in enumerate(graph.color_matrix(i)) if any(row)]


TRACE_LAMBDAS = (-1, 2)  # each lam_i of the traces that separate elements


@graph_fact
def trace_basis(graph) -> Tuple[Tuple[Vec, Tuple[il.Vector, ...]], ...]:
    """(lam, a basis over Q of the traces phi at lam, of any sign, indexed by
    ``graph.vertices``) for each lam in ``TRACE_LAMBDAS``^k with a trace."""
    bases = ((lam, tuple(il.kernel_basis(_trace_rows(graph, lam), len(graph.vertices))))
             for lam in product(TRACE_LAMBDAS, repeat=graph.k))
    return tuple((lam, basis) for lam, basis in bases if basis)


def separating_trace(graph, a: TElement, b: TElement) -> Optional[Tuple[Vec, il.Vector]]:
    """(lam, phi): the first kept trace with tau(a) != tau(b), which proves
    a != b on any finite graph; or None."""
    terms = _trace_terms(graph, a, b)
    for lam, basis in trace_basis(graph):
        for phi in basis:
            if _trace_gap(terms, lam, phi):
                return lam, phi
    return None


def _trace_terms(graph, a: TElement, b: TElement) -> List[Tuple[int, int, Vec]]:
    """(index of v, +-c, n - m) per generator c * v(n) of a (+) and b (-), m their meet."""
    low = tuple(map(min, zip(*(a.offsets() + b.offsets()))))
    return [(_position(graph, v), c, dg.sub(dg.validate_vec(n, graph.k, "offset"), low))
            for (v, n), c in a.items + tuple((vn, -c) for vn, c in b.items)]


def _trace_gap(terms, lam: Sequence[int], phi: Sequence[int]) -> int:
    """(tau(a) - tau(b)) / lam^m = sum c * phi[v] * lam^(n - m) over the terms."""
    return sum(c * phi[i] * math.prod(map(pow, lam, step)) for i, c, step in terms)


def refine(graph, a1: TElement, a2: TElement, b1: TElement, b2: TElement,
           bounds: Bounds = DEFAULT_BOUNDS) -> Optional[List[List[TElement]]]:
    """A refinement matrix for a detected equality a1 + a2 = b1 + b2.

    Returns [[c11, c12], [c21, c22]] with a_i = c_i1 + c_i2 and
    b_j = c_1j + c_2j, all at a common pushed level, or None when the
    equality cannot be certified at a common level within bounds.
    """
    if graph.is_lazy or graph.has_sources():
        return None
    eq = t_equal(graph, a1 + a2, b1 + b2, bounds=bounds)
    if not eq.is_yes:
        return None
    t = common_level(a1 + a2, b1 + b2, graph.k)
    m = eq.certificate.data["m"] if eq.certificate.kind == "equalizer" else dg.zero(graph.k)
    level = dg.add(t, m)
    _, x1, x2 = _level_vectors(graph, a1, a2, level)
    _, y1, y2 = _level_vectors(graph, b1, b2, level)
    if any(p + q != r + s for p, q, r, s in zip(x1, x2, y1, y2)):
        return None
    c11 = tuple(map(min, x1, y1))
    c12 = tuple(map(operator.sub, x1, c11))
    c21 = tuple(map(operator.sub, y1, c11))
    c22 = tuple(map(operator.sub, x2, c21))

    def to_elem(vec) -> TElement:
        return TElement.from_pairs([((v, level), vec[j])
                                    for j, v in enumerate(graph.vertices) if vec[j]])

    return [[to_elem(c11), to_elem(c12)], [to_elem(c21), to_elem(c22)]]


# ---------------------------------------------------------------------------
# certificate replay


@register_replayer("level_equal", YES)
def _replay_level_equal(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if d["level"] is None:
        return d["a"] == d["b"]
    _, x, y = _level_vectors(graph, d["a"], d["b"], d["level"])
    return x == y


@register_replayer("zero_class_t", NO)
def _replay_zero_t(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return d["a"].is_zero() != d["b"].is_zero()


@register_replayer("equalizer", YES)
def _replay_equalizer(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    _, x, y = _level_vectors(graph, d["a"], d["b"], d["level"])
    return _holds_at(graph, x, y, d["m"], operator.eq)


@register_replayer("kernel_stable", NO)
def _replay_kernel_stable(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    _, x, y = _level_vectors(graph, d["a"], d["b"], d["level"])
    return tuple(d["m"]) == (len(graph.vertices),) * graph.k and _differ_at_mstar(graph, x, y)


@register_replayer("order_equalizer", YES)
def _replay_order_equalizer(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if d["level"] is None:
        return d["a"] == d["b"] or d["a"].is_zero()
    _, x, y = _level_vectors(graph, d["a"], d["b"], d["level"])
    return _holds_at(graph, x, y, d["m"], dg.leq)


@register_replayer("graded_keys", YES, NO)
def _replay_graded_keys(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    same = graded_keys(graph, d["a"]) == graded_keys(graph, d["b"])
    return same if tri.is_yes else not same


@register_replayer("graded_order", YES, NO)
def _replay_graded_order(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    ka, kb = graded_keys(graph, d["a"]), graded_keys(graph, d["b"])
    holds = all(kb[k] >= v for k, v in ka.items())
    return holds if tri.is_yes else not holds


@register_replayer("skew_rewrite", YES, NO)
def _replay_skew(graph, tri: Tri) -> bool:
    inner = tri.certificate.data["inner"]
    return inner.value == tri.value and replay(skew_product(graph), inner)


@register_replayer("composite", NO)
def _replay_composite(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    a = d["a"]
    return len(a.items) != 1 or a.items[0][1] != 1


@register_replayer("graded_translation", YES)
def _replay_graded_translation(graph, tri: Tri) -> bool:
    return _graded(graph)


@register_replayer("free_multiplicative", YES)
def _replay_free_mult(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if graph.is_lazy or len(graph.vertices) != 1:
        return False
    v = graph.vertices[0]
    counts = [len(graph.out_edges(v, i)) for i in range(graph.k)]
    return counts == list(d["counts"]) and all(c >= 2 for c in counts) \
        and il.exponent_rank(counts) == graph.k


def _is_trace(graph, lam: Vec, phi: Vec) -> bool:
    """Is phi an integer trace at lam, every lam_i a nonzero int, on this finite graph?"""
    return (not graph.is_lazy and len(lam) == graph.k and len(phi) == len(graph.vertices)
            and all(isinstance(x, int) and x for x in lam)
            and all(isinstance(x, int) for x in phi)
            and not any(sum(map(operator.mul, row, phi)) for row in _trace_rows(graph, lam)))


@register_replayer("free_trace", YES)
def _replay_free_trace(graph, tri: Tri) -> bool:
    """Check the trace identities of :func:`graded_trace` once; no search."""
    lam, phi = tuple(tri.certificate.data["lam"]), tuple(tri.certificate.data["phi"])
    return _is_trace(graph, lam, phi) and all(x >= 2 for x in lam) \
        and il.exponent_rank(lam) == graph.k and all(x > 0 for x in phi)


@register_replayer("trace_separates", NO)
def _replay_trace_separates(graph, tri: Tri) -> bool:
    """Check that phi is a trace at lam with tau(a) != tau(b), once; no search."""
    d = tri.certificate.data
    lam, phi = tuple(d["lam"]), tuple(d["phi"])
    return _is_trace(graph, lam, phi) and \
        _trace_gap(_trace_terms(graph, d["a"], d["b"]), lam, phi) != 0


@register_replayer("periodic_pair", NO)
def _replay_periodic_pair(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    a, p = d["element"], tuple(d["period"])
    if len(p) != graph.k or not any(p) or a.is_zero():
        return False
    return t_equal(graph, a, act(p, a)).is_yes


@register_replayer("atomic_closure", YES)
def _replay_atomic_closure(graph, tri: Tri) -> bool:
    if graph.is_lazy or graph.has_sources():
        return False  # outside the closure criterion, as in is_atomic
    claimed = tri.certificate.data["leaves"]
    if not set(claimed) <= set(atoms(graph)):
        return False  # read from the graph's one kept leaf analysis
    closure = saturated_hereditary_closure(graph, claimed)
    return set(closure) == set(graph.vertices)


@register_replayer("not_atomic", NO)
def _replay_not_atomic(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if graph.is_lazy or graph.has_sources() or d["missing"] not in graph.vertex_index:
        return False
    return d["missing"] not in saturated_hereditary_closure(graph, atoms(graph))


def _sampled_leaf_count(graph, d) -> Optional[int]:
    """How many vertices of the recorded window are leaves at the recorded
    leaf depth; None when the window is not the recorded size."""
    sampled = graph.sample_vertices(d["sample_depth"])
    if len(sampled) != d["n_sampled"]:
        return None
    return len(leaves(graph, sampled, d["leaf_depth"]))


@register_replayer("no_atoms_sampled", NO)
def _replay_no_atoms(graph, tri: Tri) -> bool:
    return _sampled_leaf_count(graph, tri.certificate.data) == 0


@register_replayer("all_leaves_sampled", YES)
def _replay_all_leaves(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return _sampled_leaf_count(graph, d) == d["n_sampled"]
