import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import families
from kgraphs.kgraph import (Edge, KGraph, Square, is_leaf, quotient_graph,
                            skew_product, validate)


def test_fixture_validation():
    for name, fn in families.FAMILIES.items():
        g = fn()
        if getattr(g, "is_lazy", False):
            continue
        rep = validate(g)
        assert rep.ok, (name, rep.errors)


def test_sources_detected(fan3, arrow, loop_pair_tail):
    assert validate(fan3).has_sources
    assert validate(arrow).has_sources
    assert not validate(loop_pair_tail).has_sources


def test_rank3_box_validates():
    g = families.finite_grid(3, (1, 1, 1))
    rep = validate(g)
    assert rep.ok and rep.rank == 3


def test_nonbijective_squares_rejected():
    edges = [Edge("f1", 0, "v", "v"), Edge("f2", 0, "v", "v"),
             Edge("g", 1, "v", "v")]
    squares = [Square(("f1", "g"), ("g", "f1")),
               Square(("f2", "g"), ("g", "f1"))]
    rep = validate(KGraph(2, ["v"], edges, squares))
    assert not rep.ok


def test_missing_square_rejected():
    edges = [Edge("f", 0, "v", "v"), Edge("g", 1, "v", "v")]
    rep = validate(KGraph(2, ["v"], edges, []))
    assert not rep.ok


def test_hexagon_violation_rejected():
    # three loops per color on one vertex; pair the colors with swaps that
    # cannot cohere on a three-color cube
    colors = 3
    edges = []
    for c, nm in enumerate("abc"):
        edges.extend(Edge(f"{nm}{i}", c, "v", "v") for i in range(2))
    # (a,b) and (a,c) squares swap indices, (b,c) squares keep them; the
    # two routes around the cube then land on different triples
    squares = []
    for i in range(2):
        for j in range(2):
            squares.append(Square((f"a{i}", f"b{j}"), (f"b{i}", f"a{j}")))
            squares.append(Square((f"a{i}", f"c{j}"), (f"c{i}", f"a{j}")))
            squares.append(Square((f"b{i}", f"c{j}"), (f"c{j}", f"b{i}")))
    g = KGraph(colors, ["v"], edges, squares)
    rep = validate(g)
    assert not rep.ok
    assert any("hexagon" in e or "coherence" in e for e in rep.errors)


def test_coord_matrices(one_vertex_3x2, cycle4):
    assert one_vertex_3x2.color_matrix(0) == ((3,),)
    assert one_vertex_3x2.color_matrix(1) == ((2,),)
    assert one_vertex_3x2.coord_matrix((2, 1)) == ((18,),)
    a = cycle4.coord_matrix((1, 1))
    # degree-(1,1) paths advance two steps around the four-cycle
    idx = cycle4.vertex_index
    for v in cycle4.vertices:
        row = a[idx[v]]
        assert sum(row) == 1


degree = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), degree, degree)
def test_coord_matrix_is_product_of_powers(seed, n, warm):
    g = families.random_2graph(seed)
    g.coord_matrix(warm)  # n then builds on whatever this left cached
    size = len(g.vertices)
    want = [[int(i == j) for j in range(size)] for i in range(size)]
    for color, power in enumerate(n):
        a = g.color_matrix(color)
        for _ in range(power):
            want = [[sum(row[t] * a[t][j] for t in range(size)) for j in range(size)]
                    for row in want]
    assert g.coord_matrix(n) == tuple(map(tuple, want))


def test_out_in_edges(loop_pair_tail):
    g = loop_pair_tail
    assert {e.id for e in g.out_edges("v", 0)} == {"f"}
    assert {e.id for e in g.out_edges("u", 1)} == {"x"}
    assert {e.id for e in g.in_edges("u", 0)} == {"y", "f"}


def test_swap_pair(loop_pair_tail):
    g = loop_pair_tail
    f = g.edge_by_id["f"]
    x = g.edge_by_id["x"]
    a, b = g.swap_pair(f, x)
    assert (a.id, b.id) == ("e", "y")


def test_skew_product(loop_pair_tail):
    sk = skew_product(loop_pair_tail)
    assert sk.is_lazy and sk.k == 2
    out = sk.out_edges(("v", (0, 0)), 0)
    assert len(out) == 1
    assert out[0].source == ("u", (1, 0))
    back = sk.in_edges(("u", (1, 0)), 0)
    assert ("v", (0, 0)) in {e.range for e in back}


def test_quotient(looptail):
    q = quotient_graph(looptail, {"b"})
    assert set(q.vertices) == {"a"}
    assert {e.id for e in q.edges} == {"pa", "qa"}
    assert validate(q).ok


def test_is_leaf(cycle4, loop_pair_tail, grid2, bratteli):
    for v in cycle4.vertices:
        assert is_leaf(cycle4, v, 8).is_yes
    assert is_leaf(loop_pair_tail, "v", 8).is_yes
    assert is_leaf(grid2, (0, 0), 8).is_yes
    assert is_leaf(bratteli, (0, 0), 8).is_no


def test_lazy_sampling(grid2):
    samp = grid2.sample_vertices(3)
    assert (0, 0) in samp and (2, 1) in samp
    assert all(sum(v) <= 3 for v in samp)
