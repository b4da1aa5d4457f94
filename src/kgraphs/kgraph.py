"""Finite and lazily-enumerated higher-rank graphs.

A rank-k graph is presented combinatorially: a colored directed multigraph
(the skeleton, one color per rank direction) together with a square set that
pairs every two-color path of colors (i, j) with a unique two-color path of
colors (j, i) sharing the same range and source.  For ranks >= 3 the pairing
must additionally satisfy a hexagon (associativity) coherence condition on
three-color triples; for rank 2 no further condition is needed.

Edges are oriented so that ``out_edges(v, i)`` is the set of color-i edges
*with range v*: traversing an edge moves from its range to its source, which
matches how paths factor (the first edge of a path carries the path's range).
A vertex is a "source" in direction i when it has no color-i out-edge.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import (Any, Callable, Collection, Dict, Hashable, Iterable, Iterator,
                    List, Optional, Sequence, Set, Tuple)

from . import degrees as dg
from . import intlinalg as il
from .tri import NO, YES, Certificate, Tri, no, register_replayer, yes

VertexId = Hashable


@dataclass(frozen=True)
class Edge:
    """A colored edge of the skeleton; ``color`` is 0-based."""

    id: Hashable
    color: int
    range: VertexId
    source: VertexId


@dataclass(frozen=True)
class Square:
    """One factorization square.

    ``lo`` is a pair of edge ids (f, g) with color(f) < color(g) read from the
    range end; ``hi`` is the equal pair (g', f') in the opposite color order.
    The square asserts the path equality f.g = g'.f'.
    """

    lo: Tuple[Hashable, Hashable]
    hi: Tuple[Hashable, Hashable]


@dataclass
class ValidationReport:
    ok: bool
    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    has_sources: bool = False
    rank: int = 0
    n_vertices: int = 0
    n_edges: int = 0


def graph_fact(fn: Callable) -> Callable:
    """Keep ``fn(graph, ...)`` in ``graph._store`` while the graph lives:
    structure only, never a verdict, and nothing that refers to the graph.

    Keyed by ``fn`` and its bound arguments, defaults filled in and lists
    made tuples; a list result is kept as a tuple and handed out as a fresh
    list, and a call that raises keeps nothing."""
    sig = inspect.signature(fn)
    arity = len(sig.parameters) - 1

    @functools.wraps(fn)
    def kept(graph, *args, **kwargs):
        if kwargs or len(args) < arity:
            bound = sig.bind(graph, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key = (fn, *[tuple(a) if isinstance(a, list) else a for a in args])
        try:
            value, thaw = graph._store[key]
        except KeyError:
            value = fn(graph, *args)
            thaw = isinstance(value, list)
            if thaw:
                value = tuple(value)
            graph._store[key] = value, thaw
        return list(value) if thaw else value
    return kept


class KGraph:
    """A finite rank-k graph: skeleton plus square set, with indexes."""

    is_lazy = False

    def __init__(self, rank: int, vertices: Sequence[VertexId],
                 edges: Sequence[Edge], squares: Sequence[Square],
                 name: str = ""):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.k = rank
        self.vertices: Tuple[VertexId, ...] = tuple(vertices)
        self.vertex_index: Dict[VertexId, int] = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self.squares: Tuple[Square, ...] = tuple(squares)
        self.name = name

        self.edge_by_id: Dict[Hashable, Edge] = {}
        for e in self.edges:
            if e.id in self.edge_by_id:
                raise ValueError(f"duplicate edge id {e.id!r}")
            self.edge_by_id[e.id] = e

        self._out: Dict[Tuple[VertexId, int], List[Edge]] = {}
        self._in: Dict[Tuple[VertexId, int], List[Edge]] = {}
        for e in self.edges:
            self._out.setdefault((e.range, e.color), []).append(e)
            self._in.setdefault((e.source, e.color), []).append(e)

        # Square lookup tables keyed by edge-id pairs.
        self.lo2hi: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, Hashable]] = {}
        self.hi2lo: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, Hashable]] = {}
        for sq in self.squares:
            self.lo2hi[sq.lo] = sq.hi
            self.hi2lo[sq.hi] = sq.lo

        self._coord_cache: Dict[Tuple[int, ...], il.Matrix] = {}
        self._store: Dict[tuple, Any] = {}  # see graph_fact

    # -- basic queries -------------------------------------------------

    def out_edges(self, v: VertexId, color: int) -> List[Edge]:
        """Color-``color`` edges with range v (the set vL^{e_i})."""
        return self._out.get((v, color), [])

    def in_edges(self, v: VertexId, color: int) -> List[Edge]:
        return self._in.get((v, color), [])

    @graph_fact
    def has_sources(self) -> bool:
        return any(not self.out_edges(v, i)
                   for v in self.vertices for i in range(self.k))

    def sample_vertices(self, depth: int) -> List[VertexId]:
        """Every vertex, whatever ``depth``: a finite graph is its own
        window (see :meth:`LazyKGraph.sample_vertices`)."""
        return list(self.vertices)

    @graph_fact
    def reach_rows(self) -> Tuple[int, ...]:
        """Row i is the bitmask of the vertices that vertex i reaches by a
        path of any degree, itself included: one :func:`walk` per vertex."""
        idx = self.vertex_index
        return tuple(sum(1 << idx[w] for w in walk(self, [v])) for v in self.vertices)

    # -- coordinate matrices -------------------------------------------

    def color_matrix(self, color: int) -> il.Matrix:
        """A_i[v, w] = number of color-i edges with range v, source w."""
        return self.coord_matrix(dg.unit(self.k, color))

    def coord_matrix(self, n: Sequence[int]) -> il.Matrix:
        """A_n = prod_i A_i^{n_i}; counts paths of degree n by (range, source).

        A miss steps down to the nearest cached degree, dropping the last
        nonzero color first, and multiplies back up: one product per new
        degree, each A_n built as A_{n - e_i} A_i.
        """
        n = dg.validate_vec(tuple(n), self.k, "degree")
        if not dg.is_nonneg(n):
            raise ValueError(f"degree must be nonnegative, got {n}")
        cache = self._coord_cache
        if not cache:
            size, idx = len(self.vertices), self.vertex_index
            counts = [[[0] * size for _ in range(size)] for _ in range(self.k)]
            for e in self.edges:
                counts[e.color][idx[e.range]][idx[e.source]] += 1
            cache[dg.zero(self.k)] = il.identity(size)
            for i, a in enumerate(counts):
                cache[dg.unit(self.k, i)] = tuple(map(tuple, a))
        colors = []
        m = n
        while m not in cache:
            colors.append(max(i for i, x in enumerate(m) if x))
            m = dg.sub(m, dg.unit(self.k, colors[-1]))
        acc = cache[m]
        for i in reversed(colors):
            m = dg.add(m, dg.unit(self.k, i))
            acc = cache[m] = il.matmul(acc, cache[dg.unit(self.k, i)])
        return acc

    # -- squares -------------------------------------------------------

    def swap_pair(self, x: Edge, y: Edge) -> Tuple[Edge, Edge]:
        """Rewrite the composable 2-path x.y into its opposite color order.

        If color(x) < color(y) the pair is a square's lo side and the hi side
        is returned, and conversely.  Raises KeyError when no square covers
        the pair (a validation failure).
        """
        if x.color == y.color:
            raise ValueError("swap_pair needs two distinct colors")
        if x.color < y.color:
            a, b = self.lo2hi[(x.id, y.id)]
        else:
            a, b = self.hi2lo[(x.id, y.id)]
        return self.edge_by_id[a], self.edge_by_id[b]


class LazyKGraph:
    """A rank-k graph given by enumerators, for infinite families.

    ``out_edges_fn(v, color)`` must deterministically return the finite list
    of color-``color`` edges with range v.  Squares are resolved on demand via
    ``swap_fn(x, y)`` which plays the role of :meth:`KGraph.swap_pair`.
    ``roots`` seed bounded explorations; ``in_edges_fn`` (optional) enables
    backward rewriting steps.  A ``level_fn`` marks a graded family, and the
    caller guarantees its contract: every vertex has exactly one out-edge of
    each color, ``level_fn`` is injective, and the source of each color-i
    edge has the level of its range plus e_i.  Equality, order and freeness
    are then decided exactly from levels (see ``monoid.graded_keys``).
    """

    is_lazy = True

    def __init__(self, rank: int, out_edges_fn: Callable[[VertexId, int], List[Edge]],
                 swap_fn: Callable[[Edge, Edge], Tuple[Edge, Edge]],
                 roots: Sequence[VertexId],
                 in_edges_fn: Optional[Callable[[VertexId, int], List[Edge]]] = None,
                 level_fn: Optional[Callable[[VertexId], Tuple[int, ...]]] = None,
                 name: str = ""):
        self.k = rank
        self._out_fn = out_edges_fn
        self._swap_fn = swap_fn
        self.roots = tuple(roots)
        self._in_fn = in_edges_fn
        self.level_fn = level_fn
        self.name = name
        self._store: Dict[tuple, Any] = {}  # see graph_fact

    def out_edges(self, v: VertexId, color: int) -> List[Edge]:
        return self._out_fn(v, color)

    def in_edges(self, v: VertexId, color: int) -> List[Edge]:
        if self._in_fn is None:
            raise NotImplementedError("this lazy graph has no in-edge enumerator")
        return self._in_fn(v, color)

    @property
    def supports_in_edges(self) -> bool:
        return self._in_fn is not None

    def swap_pair(self, x: Edge, y: Edge) -> Tuple[Edge, Edge]:
        if x.color == y.color:
            raise ValueError("swap_pair needs two distinct colors")
        return self._swap_fn(x, y)

    @graph_fact
    def sample_vertices(self, depth: int) -> List[VertexId]:
        """Vertices reachable from the roots by at most ``depth`` edges.

        Breadth-first and deterministic; the result is the finite window that
        bounded operations work over.
        """
        return list(walk(self, self.roots, depth))


GraphLike = Any  # KGraph or LazyKGraph; duck-typed throughout.


def walk(g: GraphLike, starts: Iterable[VertexId], depth: Optional[int] = None,
         within: Optional[Collection[VertexId]] = None) -> Iterator[VertexId]:
    """Breadth-first reachability along out-edges, from range to source.

    Yields the distinct ``starts``, then each vertex when first reached, layer
    by layer, at most ``depth`` edges out and (past the starts) only inside
    ``within``.  It is lazy: a consumer that stops early stops the walk.
    """
    def sources(w):
        for i in range(g.k):
            for e in g.out_edges(w, i):
                if within is None or e.source in within:
                    yield e.source
    return bfs(starts, sources, depth)


def bfs(starts: Iterable[VertexId], neighbors: Callable[[VertexId], Iterable[VertexId]],
        depth: Optional[int]) -> Iterator[VertexId]:
    """``walk`` over any neighbor function, such as a memo of out-edges."""
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    yield from frontier
    steps = 0
    while frontier and (depth is None or steps < depth):
        nxt = []
        for w in frontier:
            for s in neighbors(w):
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
                    yield s
        frontier = nxt
        steps += 1


def near_targets(starts: Iterable[VertexId],
                 successors: Callable[[VertexId], Optional[List[VertexId]]],
                 steps: Optional[int]) -> Set[VertexId]:
    """The vertices with a path of at most ``steps`` edges to a target.

    ``successors(w)`` is None when w is a target and otherwise lists the
    vertices one edge on from w; ``steps=None`` allows paths of any length.
    Two walks, each made once.  Forward from ``starts``, expanding only
    non-targets, ``steps`` edges out at most, recording the edges it
    follows; backward from the targets it met, over the recorded edges,
    ``steps`` edges at most.  A start is in the result exactly when it has
    such a path: a shortest one meets no earlier target and lies inside the
    forward walk.  The cost is O(V + E) over the vertices the forward walk
    reaches, however many starts share them.
    """
    preds: Dict[VertexId, List[VertexId]] = {}
    targets: List[VertexId] = []
    expanded = 0

    def forward(w):
        nonlocal expanded
        expanded += 1
        out = successors(w)
        if out is None:
            targets.append(w)
            return ()
        for s in out:
            preds.setdefault(s, []).append(w)
        return out
    reached = list(bfs(starts, forward, steps))
    # bfs expands vertices in the order it yields them, all but the last
    # layer, so the targets of that layer are found here
    targets += [w for w in reached[expanded:] if successors(w) is None]
    return set(bfs(targets, lambda s: preds.get(s, ()), steps))


# ---------------------------------------------------------------------------
# validation


def _check_squares(g: KGraph, errors: List[str]) -> None:
    for sq in g.squares:
        for eid in (*sq.lo, *sq.hi):
            if eid not in g.edge_by_id:
                errors.append(f"square references unknown edge {eid!r}")
                return
        f, gg = g.edge_by_id[sq.lo[0]], g.edge_by_id[sq.lo[1]]
        g2, f2 = g.edge_by_id[sq.hi[0]], g.edge_by_id[sq.hi[1]]
        if not f.color < gg.color:
            errors.append(f"square lo {sq.lo} must list the lower color first")
        if f2.color != f.color or g2.color != gg.color:
            errors.append(f"square {sq.lo}->{sq.hi} mixes colors")
        if f.source != gg.range:
            errors.append(f"square lo {sq.lo} is not composable")
        if g2.source != f2.range:
            errors.append(f"square hi {sq.hi} is not composable")
        if g2.range != f.range or f2.source != gg.source:
            errors.append(f"square {sq.lo}->{sq.hi} does not preserve endpoints")

    # Bijectivity: lo keys must be exactly the composable ascending pairs and
    # the hi values exactly the composable descending pairs, per color pair.
    for i in range(g.k):
        for j in range(i + 1, g.k):
            lo_pairs = set()
            hi_pairs = set()
            for f in g.edges:
                if f.color == i:
                    for gg in g.out_edges(f.source, j):
                        lo_pairs.add((f.id, gg.id))
                if f.color == j:
                    for gg in g.out_edges(f.source, i):
                        hi_pairs.add((f.id, gg.id))
            lo_keys = {p for p in g.lo2hi
                       if p[0] in g.edge_by_id and p[1] in g.edge_by_id
                       and g.edge_by_id[p[0]].color == i
                       and g.edge_by_id[p[1]].color == j}
            if lo_keys != lo_pairs:
                missing = lo_pairs - lo_keys
                extra = lo_keys - lo_pairs
                if missing:
                    errors.append(f"colors ({i},{j}): {len(missing)} composable "
                                  f"pairs lack a square, e.g. {sorted(missing, key=repr)[0]}")
                if extra:
                    errors.append(f"colors ({i},{j}): squares cover non-composable "
                                  f"pairs, e.g. {sorted(extra, key=repr)[0]}")
                continue
            images = [g.lo2hi[p] for p in lo_pairs]
            if len(set(images)) != len(images) or set(images) != hi_pairs:
                errors.append(f"colors ({i},{j}): square pairing is not a bijection "
                              f"onto the opposite-order pairs")


def _check_hexagon(g: KGraph, errors: List[str]) -> None:
    """Associativity coherence on three-color triples (needed for rank >= 3)."""
    from itertools import combinations

    def swap_at(seq: List[Edge], p: int) -> List[Edge]:
        a, b = g.swap_pair(seq[p], seq[p + 1])
        out = list(seq)
        out[p], out[p + 1] = a, b
        return out

    for ci, cj, cl in combinations(range(g.k), 3):
        for a in g.edges:
            if a.color != ci:
                continue
            for b in g.out_edges(a.source, cj):
                for c in g.out_edges(b.source, cl):
                    triple = [a, b, c]
                    try:
                        left = swap_at(swap_at(swap_at(triple, 0), 1), 0)
                        right = swap_at(swap_at(swap_at(triple, 1), 0), 1)
                    except KeyError:
                        errors.append(f"hexagon: missing square while resorting "
                                      f"({a.id},{b.id},{c.id})")
                        return
                    if [e.id for e in left] != [e.id for e in right]:
                        errors.append(f"hexagon failure on ({a.id},{b.id},{c.id})")
                        return


def validate(g: KGraph) -> ValidationReport:
    """Check that a finite presentation really is a rank-k graph.

    Verifies skeleton well-formedness, square coherence and bijectivity,
    commutation of the coordinate matrices, and (for rank >= 3) the hexagon
    condition.  ``has_sources`` is reported, not treated as an error: many
    procedures merely restrict their guarantees on graphs with sources.
    """
    errors: List[str] = []
    warnings: List[str] = []
    for e in g.edges:
        if e.range not in g.vertex_index or e.source not in g.vertex_index:
            errors.append(f"edge {e.id!r} has unknown endpoint")
        if not 0 <= e.color < g.k:
            errors.append(f"edge {e.id!r} has color {e.color} outside 0..{g.k - 1}")
    if not errors:
        _check_squares(g, errors)
    if not errors:
        for i in range(g.k):
            for j in range(i + 1, g.k):
                ai, aj = g.color_matrix(i), g.color_matrix(j)
                if il.matmul(ai, aj) != il.matmul(aj, ai):
                    errors.append(f"coordinate matrices A_{i}, A_{j} do not commute")
    if not errors and g.k >= 3:
        _check_hexagon(g, errors)
    has_src = g.has_sources()
    if has_src:
        warnings.append("graph has sources: some vertex misses an out-edge in "
                        "some color; confluence-based shortcuts are disabled")
    return ValidationReport(ok=not errors, errors=errors, warnings=warnings,
                            has_sources=has_src, rank=g.k,
                            n_vertices=len(g.vertices), n_edges=len(g.edges))


# ---------------------------------------------------------------------------
# derived graphs


def quotient_graph(g: KGraph, h: Iterable[VertexId]) -> KGraph:
    """The graph on the complement of a hereditary saturated vertex set.

    Keeps vertices outside ``h`` and edges whose source lies outside ``h``
    (heredity then guarantees the range survives too), restricting squares to
    surviving edges.  An empty ``h`` gives ``g`` itself, so the quotient
    reads the structure already kept on ``g``.
    """
    hset = set(h)
    if not hset:
        return g
    verts = [v for v in g.vertices if v not in hset]
    edges = [e for e in g.edges if e.source not in hset and e.range not in hset]
    keep = {e.id for e in edges}
    squares = [sq for sq in g.squares
               if all(eid in keep for eid in (*sq.lo, *sq.hi))]
    return KGraph(g.k, verts, edges, squares, name=f"{g.name}/H" if g.name else "")


def skew_product(g: GraphLike) -> LazyKGraph:
    """The degree skew product: vertices (v, n) with n in Z^k.

    A color-i edge e of the base lifts to an edge from (r(e), n) to
    (s(e), n + e_i) for every n.  The lift is always infinite, hence lazy.
    """
    k = g.k

    def lift(e: Edge, n: Tuple[int, ...]) -> Edge:
        m = dg.add(n, dg.unit(k, e.color))
        return Edge(id=(e.id, n), color=e.color,
                    range=(e.range, n), source=(e.source, m))

    def out_fn(vn, color):
        v, n = vn
        return [lift(e, n) for e in g.out_edges(v, color)]

    def in_fn(vn, color):
        v, n = vn
        m = dg.sub(n, dg.unit(k, color))
        return [lift(e, m) for e in g.in_edges(v, color)]

    def swap_fn(x: Edge, y: Edge):
        ex, nx = x.id
        ey, _ = y.id
        base_x = g.edge_by_id[ex] if not g.is_lazy else _unlift_lazy(g, x)
        base_y = g.edge_by_id[ey] if not g.is_lazy else _unlift_lazy(g, y)
        a, b = g.swap_pair(base_x, base_y)
        return lift(a, nx), lift(b, dg.add(nx, dg.unit(k, a.color)))

    if g.is_lazy:
        roots = [(v, dg.zero(k)) for v in g.roots]
    else:
        roots = [(v, dg.zero(k)) for v in g.vertices]
    in_ok = (not g.is_lazy) or g.supports_in_edges
    return LazyKGraph(k, out_fn, swap_fn, roots,
                      in_edges_fn=in_fn if in_ok else None,
                      name=f"skew({getattr(g, 'name', '')})")


def _unlift_lazy(g: LazyKGraph, lifted: Edge) -> Edge:
    base_id, _ = lifted.id
    v, n = lifted.range
    for e in g.out_edges(v, lifted.color):
        if e.id == base_id:
            return e
    raise KeyError(base_id)


# ---------------------------------------------------------------------------
# leaves


LAZY_LEAF_DEPTH = 64  # the leaf depth on a lazy graph when none is given


def is_leaf(g: GraphLike, v: VertexId, depth: Optional[int] = None) -> Tri:
    """Does v emit exactly one path of every degree?

    True exactly when every vertex reachable from v has exactly one out-edge
    per color.  Exact on finite graphs, where ``depth`` is ignored.  On lazy
    graphs only the vertices at distance at most ``depth - 1`` from v are
    checked (``depth`` defaults to ``LAZY_LEAF_DEPTH``; 0 checks none); a run
    that passes every check returns a yes whose certificate records the
    depth (a bounded verdict), and a branching or missing edge gives an
    exact no that records the distance of the vertex where it was found.
    For many vertices at once use :func:`leaves`.
    """
    if depth is None:
        depth = LAZY_LEAF_DEPTH if g.is_lazy else None
    seen = {v}
    frontier = [v]
    steps = 0
    while frontier:
        if g.is_lazy and steps >= depth:
            return yes(Certificate("leaf_walk", {"vertex": v, "depth": depth,
                                                 "bounded": True}),
                       note="single out-edge per color at every vertex sampled "
                            f"to depth {depth}")
        nxt = []
        for w in frontier:
            for i in range(g.k):
                out = g.out_edges(w, i)
                if len(out) != 1:
                    return no(Certificate("leaf_branch",
                                          {"vertex": v, "witness": w, "color": i,
                                           "out_degree": len(out),
                                           "distance": steps}))
                s = out[0].source
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
        steps += 1
    return yes(Certificate("leaf_walk", {"vertex": v, "depth": steps,
                                         "bounded": False}))


@graph_fact
def leaves(g: GraphLike, verts: Sequence[VertexId],
           depth: Optional[int] = None) -> List[VertexId]:
    """The leaves among ``verts``, in their order: one analysis for the set.

    Equal to ``[v for v in verts if is_leaf(g, v, depth).is_yes]``, with the
    same distance rule: exact on finite graphs, where ``depth`` is ignored;
    on lazy graphs a vertex is a leaf when no vertex at distance at most
    ``depth - 1`` from it branches (has out-degree other than one in some
    color), so ``depth=0`` makes every vertex a leaf.  One forward walk from
    the whole set and one backward walk from the branching vertices it meets
    replace a walk per vertex (see :func:`near_targets`).
    """
    steps = None
    if g.is_lazy:
        depth = LAZY_LEAF_DEPTH if depth is None else depth
        if depth == 0:
            return list(verts)
        steps = depth - 1
    branching = near_targets(verts, lambda w: single_sources(g, w), steps)
    return [v for v in verts if v not in branching]


def single_sources(g: GraphLike, w: VertexId) -> Optional[List[VertexId]]:
    """The source of w's one out-edge of each color, color by color; None
    if w branches (has out-degree other than one in some color)."""
    out = []
    for i in range(g.k):
        es = g.out_edges(w, i)
        if len(es) != 1:
            return None
        out.append(es[0].source)
    return out


@register_replayer("leaf_branch", NO)
def _replay_leaf_branch(g, tri: Tri) -> bool:
    d = tri.certificate.data
    w, i, dist = d["witness"], d["color"], d.get("distance")
    if d["out_degree"] == 1 or not isinstance(dist, int) or dist < 0:
        return False
    if len(g.out_edges(w, i)) != d["out_degree"]:
        return False
    # the witness must be reachable from the starting vertex within its
    # distance, through vertices that do not branch, as the leaf walk met it
    return w in bfs([d["vertex"]], lambda u: single_sources(g, u) or (), dist)


@register_replayer("leaf_walk", YES)
def _replay_leaf_walk(g, tri: Tri) -> bool:
    d = tri.certificate.data
    rerun = is_leaf(g, d["vertex"], depth=d["depth"] if d["bounded"] else None)
    return rerun.is_yes
