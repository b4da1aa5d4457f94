from kgraphs import families
from kgraphs.kgraph import validate


def test_registry_names():
    assert set(families.FAMILIES) >= {"fan3", "one-vertex-3x3", "one-vertex-3x2",
                                      "cycle4", "arrow", "loop-pair-tail",
                                      "looptail", "grid2", "delta2", "bratteli"}


def test_random_graphs_validate_no_sources():
    for seed in range(250):
        g = families.random_2graph(seed)
        rep = validate(g)
        assert rep.ok, (seed, rep.errors)
        assert not rep.has_sources, seed
        assert len(g.vertices) <= 4
        # at most 3 parallel edges per color between any ordered vertex pair
        counts = {}
        for e in g.edges:
            key = (e.range, e.source, e.color)
            counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) <= 3, seed


def test_random_graphs_deterministic():
    a = families.random_2graph(7)
    b = families.random_2graph(7)
    assert [e.id for e in a.edges] == [e.id for e in b.edges]
    assert [(s.lo, s.hi) for s in a.squares] == [(s.lo, s.hi) for s in b.squares]


def test_pullback_respects_projection():
    g = families.cycle_pullback()
    for sq in g.squares:
        # the doubled square pairs a blue/red two-path with a red/blue one
        (b1, r1), (r2, b2) = sq.lo, sq.hi
        assert b1[0] == "b" and r1[0] == "r" and r2[0] == "r" and b2[0] == "b"


def test_finite_grid_shape():
    g = families.finite_grid(2, (2, 3))
    assert len(g.vertices) == 12
    assert validate(g).ok
    assert validate(g).has_sources


def test_grid_levels(grid2, bratteli):
    # a level_fn alone marks a graded family: grid2 has one, bratteli none
    assert grid2.level_fn((2, 3)) == (2, 3)
    assert bratteli.level_fn is None


def test_delta_negative_vertices():
    d = families.delta(2)
    ins = d.in_edges((0, 0), 0)
    assert ins and ins[0].range == (-1, 0)


def test_bratteli_in_edges_consistent(bratteli):
    for v in bratteli.sample_vertices(4):
        for color in (0, 1):
            for e in bratteli.out_edges(v, color):
                back = bratteli.in_edges(e.source, color)
                assert any(b.id == e.id for b in back), (v, color, e.id)


def test_bratteli_branching(bratteli):
    assert len(bratteli.out_edges((2, 1), 0)) == 2
    assert len(bratteli.out_edges((2, 1), 1)) == 1
    # red cycle of length 4 at level 2
    at = (2, 0)
    seen = []
    for _ in range(4):
        seen.append(at)
        at = bratteli.out_edges(at, 1)[0].source
    assert at == (2, 0) and len(set(seen)) == 4
