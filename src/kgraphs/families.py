"""Built-in graphs: worked finite examples, infinite lazy families, and
random generators for property testing.

Finite fixtures are named for their shape, not their provenance:

* ``fan_3color``        -- rank 3, one hub with three sources below it; the
                           vertex monoid has no common reducts yet nontrivial
                           identifications.
* ``one_vertex_3x3``    -- one vertex, three loops per color, twisted squares;
                           the vertex monoid collapses to {0, v, 2v}.
* ``cycle_pullback(n)`` -- rank-2 pullback of an n-cycle along addition.
* ``arrow_pullback``    -- rank-2 pullback of a single arrow (has a source).
* ``loop_pair_tail``    -- two loops on u and a two-color tail from v.
* ``one_vertex_3x2``    -- one vertex, 3 blue and 2 red loops.
* ``looptail``          -- loops of both colors on two vertices joined by a
                           two-color tail.

Lazy families:

* ``grid(k)``           -- the path category of N^k (every vertex a leaf).
* ``delta(k)``          -- the path groupoid-like lattice Z^k.
* ``rank2_bratteli()``  -- a rank-2 tower: level N is a cycle of length 2^N
                           in one color, with binary branching in the other.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import degrees as dg
from .kgraph import Edge, KGraph, LazyKGraph, Square, VertexId


# ---------------------------------------------------------------------------
# finite fixtures


def fan_3color() -> KGraph:
    """Rank 3; hub x sees w and u in blue, v and u in red, u in the third
    color; u, v, w emit nothing.  No two-color paths exist, so the square
    set is empty."""
    edges = [
        Edge("b_w", 0, "x", "w"), Edge("b_u", 0, "x", "u"),
        Edge("r_v", 1, "x", "v"), Edge("r_u", 1, "x", "u"),
        Edge("d_u", 2, "x", "u"),
    ]
    return KGraph(3, ["u", "v", "w", "x"], edges, [], name="fan_3color")


def one_vertex_3x3() -> KGraph:
    """One vertex, loops f1..f3 (blue) and g1..g3 (red), with the squares
    twisted so that g1 and g3 exchange f1 and f2 while g2 is central."""
    edges = [Edge(f"f{i}", 0, "v", "v") for i in (1, 2, 3)] + \
            [Edge(f"g{j}", 1, "v", "v") for j in (1, 2, 3)]
    squares = []
    swap = {1: 2, 2: 1, 3: 3}
    for j in (1, 3):
        for i in (1, 2, 3):
            squares.append(Square((f"f{swap[i]}", f"g{j}"), (f"g{j}", f"f{i}")))
    for i in (1, 2, 3):
        squares.append(Square((f"f{i}", "g2"), ("g2", f"f{i}")))
    return KGraph(2, ["v"], edges, squares, name="one_vertex_3x3")


def one_vertex_3x2() -> KGraph:
    """One vertex, blue loops f1..f3 and red loops g1, g2; the squares swap
    the indices of f and g in the 2x2 block and fix f3."""
    edges = [Edge(f"f{i}", 0, "v", "v") for i in (1, 2, 3)] + \
            [Edge(f"g{j}", 1, "v", "v") for j in (1, 2)]
    squares = []
    for i in (1, 2):
        for j in (1, 2):
            squares.append(Square((f"f{i}", f"g{j}"), (f"g{i}", f"f{j}")))
    for j in (1, 2):
        squares.append(Square(("f3", f"g{j}"), (f"g{j}", "f3")))
    return KGraph(2, ["v"], edges, squares, name="one_vertex_3x2")


def pullback_2graph(vertices: Sequence[VertexId],
                    arrows: Sequence[Tuple[str, VertexId, VertexId]],
                    perm: Optional[Dict[Tuple[VertexId, VertexId],
                                        Dict[Tuple[str, str], Tuple[str, str]]]] = None,
                    name: str = "pullback") -> KGraph:
    """The rank-2 graph doubling a directed graph along both colors.

    ``arrows`` are (id, range, source) triples.  Each arrow contributes a
    blue and a red copy with the same endpoints; a blue-then-red two-color
    path projects to a length-2 arrow path, and the squares identify it with
    the red-then-blue reading of a length-2 path with the same endpoints --
    by default the *same* path, optionally permuted per endpoint pair via
    ``perm``.  Any such permutation yields a valid rank-2 graph.
    """
    edges = []
    for eid, rng, src in arrows:
        edges.append(Edge(("b", eid), 0, rng, src))
        edges.append(Edge(("r", eid), 1, rng, src))
    by_range: Dict[VertexId, List[Tuple[str, VertexId, VertexId]]] = {}
    for a in arrows:
        by_range.setdefault(a[1], []).append(a)
    squares = []
    for eid, rng, src in arrows:
        for eid2, rng2, src2 in by_range.get(src, []):
            key = (rng, src2)
            image = (eid, eid2)
            if perm is not None and key in perm:
                image = perm[key][(eid, eid2)]
            squares.append(Square((("b", eid), ("r", eid2)),
                                  (("r", image[0]), ("b", image[1]))))
    return KGraph(2, list(vertices), edges, squares, name=name)


def cycle_pullback(labels: Sequence[VertexId] = ("u", "z", "w", "v")) -> KGraph:
    """Pullback doubling of a directed cycle; with the default labels the
    cycle reads u <- z <- w <- v <- u (each vertex's out-edges point one
    step around)."""
    n = len(labels)
    arrows = [(f"c{i}", labels[(i + 1) % n], labels[i]) for i in range(n)]
    return pullback_2graph(labels, arrows, name=f"cycle_pullback_{n}")


def arrow_pullback() -> KGraph:
    """Pullback doubling of a single arrow u <- v; v is a source in both
    colors and there are no squares."""
    return pullback_2graph(["u", "v"], [("a", "u", "v")], name="arrow_pullback")


def loop_pair_tail() -> KGraph:
    """Loops y (blue) and x (red) on u; edges f (blue) and e (red) from v
    down to u.  The squares are forced: f.x = e.y and y.x = x.y."""
    edges = [Edge("y", 0, "u", "u"), Edge("x", 1, "u", "u"),
             Edge("f", 0, "v", "u"), Edge("e", 1, "v", "u")]
    squares = [Square(("y", "x"), ("x", "y")),
               Square(("f", "x"), ("e", "y"))]
    return KGraph(2, ["u", "v"], edges, squares, name="loop_pair_tail")


def looptail() -> KGraph:
    """Both-color loops on a and on b, plus a two-color tail from a to b."""
    edges = [Edge("pa", 0, "a", "a"), Edge("qa", 1, "a", "a"),
             Edge("pb", 0, "b", "b"), Edge("qb", 1, "b", "b"),
             Edge("m", 0, "a", "b"), Edge("n", 1, "a", "b")]
    squares = [Square(("pa", "qa"), ("qa", "pa")),
               Square(("pb", "qb"), ("qb", "pb")),
               Square(("pa", "n"), ("qa", "m")),
               Square(("m", "qb"), ("n", "pb"))]
    return KGraph(2, ["a", "b"], edges, squares, name="looptail")


def finite_grid(k: int, shape: Sequence[int]) -> KGraph:
    """The box {0..shape} in N^k as a rank-k graph; top faces are sources."""
    shape = tuple(shape)
    verts = list(dg.box(dg.zero(k), shape))
    edges = []
    squares = []
    for v in verts:
        for i in range(k):
            w = dg.add(v, dg.unit(k, i))
            if dg.leq(w, shape):
                edges.append(Edge(("e", v, i), i, v, w))
    for v in verts:
        for i in range(k):
            for j in range(i + 1, k):
                vi, vj = dg.add(v, dg.unit(k, i)), dg.add(v, dg.unit(k, j))
                top = dg.add(vi, dg.unit(k, j))
                if dg.leq(top, shape):
                    squares.append(Square((("e", v, i), ("e", vi, j)),
                                          (("e", v, j), ("e", vj, i))))
    return KGraph(k, verts, edges, squares, name=f"finite_grid{k}_{shape}")


# ---------------------------------------------------------------------------
# lazy families


def _deterministic_swap(out_fn):
    """Squares from ``out_fn``, not from the graph, which is then in no cycle."""
    def swap(x: Edge, y: Edge) -> Tuple[Edge, Edge]:
        a = out_fn(x.range, y.color)[0]
        return a, out_fn(a.source, x.color)[0]
    return swap


def grid(k: int = 2) -> LazyKGraph:
    """The path category of the monoid N^k: one vertex per lattice point,
    one edge per color stepping up by a unit vector."""
    def out_fn(v, i):
        return [Edge(("e", v, i), i, v, dg.add(v, dg.unit(k, i)))]

    def in_fn(v, i):
        w = dg.sub(v, dg.unit(k, i))
        return [Edge(("e", w, i), i, w, v)] if dg.is_nonneg(w) else []

    return LazyKGraph(k, out_fn, _deterministic_swap(out_fn), roots=[dg.zero(k)],
                      in_edges_fn=in_fn, level_fn=lambda v: v, name=f"grid{k}")


def delta(k: int = 2) -> LazyKGraph:
    """Like :func:`grid` but over all of Z^k."""
    def out_fn(v, i):
        return [Edge(("e", v, i), i, v, dg.add(v, dg.unit(k, i)))]

    def in_fn(v, i):
        w = dg.sub(v, dg.unit(k, i))
        return [Edge(("e", w, i), i, w, v)]

    return LazyKGraph(k, out_fn, _deterministic_swap(out_fn), roots=[dg.zero(k)],
                      in_edges_fn=in_fn, level_fn=lambda v: v, name=f"delta{k}")


def rank2_bratteli() -> LazyKGraph:
    """Levels indexed by N; level N is a red cycle of length 2^N, and each
    level-N vertex sees two blue edges into level N+1, each level-(N+1)
    vertex being the source of exactly one blue edge.

    The blue targets of (N, j) are (N+1, j) and (N+1, j + 2^N), which makes
    the red cycles compatible with the blue branching; the square pairing
    is then forced, since each two-color path is determined by its range and
    source (the advance along the red cycle is the least possible).
    """
    def out_fn(v, color):
        n, j = v
        size = 1 << n
        if color == 0:
            return [Edge(("b", n, j, t), 0, v, (n + 1, j + t * size))
                    for t in (0, 1)]
        return [Edge(("r", n, j), 1, v, (n, (j + 1) % size))]

    def in_fn(v, color):
        n, j = v
        size = 1 << n
        if color == 0:
            if n == 0:
                return []
            half = 1 << (n - 1)
            j0 = j % half
            t = 0 if j < half else 1
            return [Edge(("b", n - 1, j0, t), 0, (n - 1, j0), v)]
        return [Edge(("r", n, (j - 1) % size), 1, (n, (j - 1) % size), v)]

    def swap(x: Edge, y: Edge) -> Tuple[Edge, Edge]:
        if x.color == 0:  # blue then red -> red then blue
            n, j = x.range
            size = 1 << n
            u = y.source  # (n + 1, u1)
            red = out_fn(x.range, 1)[0]
            for blue in out_fn(red.source, 0):
                if blue.source == u:
                    return red, blue
            raise KeyError((x.id, y.id))
        # red then blue -> blue then red
        n, j = x.range
        target = y.source  # (n + 1, s)
        for blue in out_fn(x.range, 0):
            red = out_fn(blue.source, 1)[0]
            if red.source == target:
                return blue, red
        raise KeyError((x.id, y.id))

    return LazyKGraph(2, out_fn, swap, roots=[(0, 0)], in_edges_fn=in_fn,
                      name="rank2_bratteli")


# ---------------------------------------------------------------------------
# random generators (property testing)


def random_single_vertex(rng: random.Random) -> KGraph:
    """One vertex, 1..3 loops per color, squares a uniformly random pairing."""
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    edges = [Edge(f"f{i}", 0, "v", "v") for i in range(na)] + \
            [Edge(f"g{j}", 1, "v", "v") for j in range(nb)]
    lo = [(f"f{i}", f"g{j}") for i in range(na) for j in range(nb)]
    hi = [(f"g{j}", f"f{i}") for j in range(nb) for i in range(na)]
    rng.shuffle(hi)
    squares = [Square(l, h) for l, h in zip(lo, hi)]
    return KGraph(2, ["v"], edges, squares, name=f"rand1v_{na}x{nb}")


def random_pullback(rng: random.Random) -> KGraph:
    """Pullback doubling of a random digraph where every vertex has between
    one and three incoming... rather, between one and three out-edges in the
    range sense, with the squares permuted at random per endpoint pair."""
    nv = rng.randint(1, 4)
    verts = [f"v{i}" for i in range(nv)]
    arrows: List[Tuple[str, str, str]] = []
    counter = 0
    parallel: Dict[Tuple[str, str], int] = {}
    for v in verts:
        for _ in range(rng.randint(1, 2)):
            s = rng.choice(verts)
            if parallel.get((v, s), 0) >= 3:
                continue
            parallel[(v, s)] = parallel.get((v, s), 0) + 1
            arrows.append((f"a{counter}", v, s))
            counter += 1
    # group length-2 arrow paths by (range, source) and permute within groups
    by_range: Dict[str, List[Tuple[str, str, str]]] = {}
    for a in arrows:
        by_range.setdefault(a[1], []).append(a)
    groups: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
    for eid, rg, src in arrows:
        for eid2, _, src2 in by_range.get(src, []):
            groups.setdefault((rg, src2), []).append((eid, eid2))
    perm: Dict[Tuple[str, str], Dict[Tuple[str, str], Tuple[str, str]]] = {}
    for key, paths in groups.items():
        shuffled = list(paths)
        rng.shuffle(shuffled)
        perm[key] = dict(zip(paths, shuffled))
    return pullback_2graph(verts, arrows, perm=perm,
                           name=f"randpb_{nv}v_{len(arrows)}a")


def random_2graph(seed: int) -> KGraph:
    """A random valid rank-2 graph without sources (see the two generators)."""
    rng = random.Random(seed)
    return random_single_vertex(rng) if rng.random() < 0.4 else random_pullback(rng)


# ---------------------------------------------------------------------------
# registry for the command line


FAMILIES: Dict[str, Callable[[], object]] = {
    "fan3": fan_3color,
    "one-vertex-3x3": one_vertex_3x3,
    "one-vertex-3x2": one_vertex_3x2,
    "cycle4": cycle_pullback,
    "arrow": arrow_pullback,
    "loop-pair-tail": loop_pair_tail,
    "looptail": looptail,
    "grid2": grid,
    "delta2": delta,
    "bratteli": rank2_bratteli,
    "finite-grid-2x2": lambda: finite_grid(2, (2, 2)),
}
