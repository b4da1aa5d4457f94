import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs import families
from kgraphs.kgraph import (Edge, KGraph, Square, is_leaf, leaves, quotient_graph,
                            skew_product, validate)
from kgraphs.tri import Certificate, no, replay


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


def test_quotient_by_the_empty_set_is_the_graph(looptail):
    # the graph itself, with the structure already kept on it
    assert quotient_graph(looptail, set()) is looptail
    assert quotient_graph(looptail, ()) is looptail


def test_is_leaf(cycle4, loop_pair_tail, grid2, bratteli):
    for v in cycle4.vertices:
        assert is_leaf(cycle4, v, 8).is_yes
    assert is_leaf(loop_pair_tail, "v", 8).is_yes
    assert is_leaf(grid2, (0, 0), 8).is_yes
    assert is_leaf(bratteli, (0, 0), 8).is_no


def _leaves_one_by_one(g, verts, depth):
    return [v for v in verts if is_leaf(g, v, depth).is_yes]


def test_leaves_match_is_leaf_on_finite_graphs(skeleton_pullbacks):
    graphs = [make() for make in families.FAMILIES.values()]
    graphs += [families.random_2graph(seed) for seed in range(40)] + skeleton_pullbacks
    for g in graphs:
        if g.is_lazy:
            continue
        for depth in (None, 0, 1, 4):  # a finite graph ignores the depth
            assert leaves(g, g.vertices, depth) == \
                _leaves_one_by_one(g, g.vertices, depth), (g.name, depth)


@pytest.mark.parametrize("name", ["grid2", "delta2", "bratteli"])
def test_leaves_match_is_leaf_on_lazy_windows(name):
    g = families.FAMILIES[name]()
    for sample_depth in range(7):
        window = g.sample_vertices(sample_depth)
        for depth in (0, 1, 2, 5, 64):
            assert leaves(g, window, depth) == \
                _leaves_one_by_one(g, window, depth), (sample_depth, depth)


def test_leaf_depth_checks_distances_below_it(branching_chain):
    # vertex n first meets a branching vertex at distance max(10 - n, 0);
    # depth None is the lazy default of 64
    verts = list(range(13))
    for depth in (0, 1, 4, 11, None):
        expect = [v for v in verts if max(10 - v, 0) >= (64 if depth is None else depth)]
        assert leaves(branching_chain, verts, depth) == expect, depth
        assert _leaves_one_by_one(branching_chain, verts, depth) == expect, depth
    assert leaves(branching_chain, [3, 3, 0, 9], 2) == [3, 3, 0]


def test_leaf_branch_replays_within_its_distance(branching_chain, bratteli):
    tri = is_leaf(branching_chain, 0, 64)
    d = tri.certificate.data
    assert tri.is_no and (d["witness"], d["distance"]) == (10, 10)
    assert replay(branching_chain, tri)
    assert not replay(branching_chain, no(Certificate("leaf_branch", {**d, "distance": 9})))
    # (1, 0) lies on another branch of the tower: a forged certificate
    # without a distance is rejected, not searched for without end
    forged = no(Certificate("leaf_branch", {"vertex": (3, 0), "witness": (1, 0),
                                            "color": 0, "out_degree": 2}))
    assert not replay(bratteli, forged)
    assert not replay(bratteli, no(Certificate("leaf_branch",
                                               {**forged.certificate.data, "distance": 50})))


def test_lazy_sampling(grid2):
    samp = grid2.sample_vertices(3)
    assert (0, 0) in samp and (2, 1) in samp
    assert all(sum(v) <= 3 for v in samp)
