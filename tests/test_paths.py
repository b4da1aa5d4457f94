from itertools import product

import pytest

from kgraphs import degrees as dg
from kgraphs import families
from kgraphs.paths import (Path, compose, enumerate_paths, ext, factor,
                           lambda_min, mce, normalize, segment)


def brute_paths_reverse_order(graph, v, n):
    """Oracle: enumerate raw edge sequences in descending color order and
    normalize; must produce the same path set as the ascending enumeration."""
    k = graph.k
    results = []

    def walk(at, color, left, acc):
        if left == 0:
            color -= 1
            if color < 0:
                results.append(normalize(graph, v, acc))
                return
            walk(at, color, n[color], acc)
            return
        for e in graph.out_edges(at, color):
            walk(e.source, color, left - 1, acc + [e])

    walk(v, k - 1, n[k - 1], [])
    return results


def path_key(p):
    return (p.range, tuple(e.id for e in p.edges))


@pytest.mark.parametrize("fixture", ["one_vertex_3x3", "one_vertex_3x2",
                                     "loop_pair_tail", "looptail", "cycle4"])
@pytest.mark.parametrize("n", [(1, 1), (2, 1), (2, 2)])
def test_two_color_order_enumeration_agreement(fixture, n, request):
    g = request.getfixturevalue(fixture)
    for v in g.vertices:
        fwd = {path_key(p) for p in enumerate_paths(g, v, n)}
        rev = {path_key(p) for p in brute_paths_reverse_order(g, v, n)}
        assert fwd == rev
        # count agrees with the coordinate matrix row sum
        a = g.coord_matrix(n)
        assert len(fwd) == sum(a[g.vertex_index[v]])


def test_normal_form_ascending(one_vertex_3x3):
    g = one_vertex_3x3
    gedge = g.edge_by_id["g1"]
    fedge = g.edge_by_id["f1"]
    p = normalize(g, "v", [gedge, fedge])
    colors = [e.color for e in p.edges]
    assert colors == sorted(colors)


def test_factor_compose_roundtrip(loop_pair_tail):
    g = loop_pair_tail
    for v in g.vertices:
        for p in enumerate_paths(g, v, (2, 2)):
            for m in dg.box((0, 0), (2, 2)):
                head, tail = factor(g, p, m)
                assert head.degree(2) == m
                assert compose(g, head, tail) == p


def test_segment(loop_pair_tail):
    g = loop_pair_tail
    p = enumerate_paths(g, "v", (2, 1))[0]
    mid = segment(g, p, (1, 0), (2, 1))
    assert mid.degree(2) == (1, 1)
    assert mid.range == factor(g, p, (1, 0))[1].range


def test_mce_empty_on_arrow(arrow):
    g = arrow
    alpha = Path("u", (g.edge_by_id[("r", "a")],))
    beta = Path("u", (g.edge_by_id[("b", "a")],))
    assert mce(g, alpha, beta) == []
    assert lambda_min(g, alpha, beta) == []
    assert ext(g, alpha, [beta]) == []


def test_mce_unique_on_leaf_graph(cycle4):
    g = cycle4
    u = "u"
    blue = g.out_edges(u, 0)[0]
    red = g.out_edges(u, 1)[0]
    taus = mce(g, Path(u, (blue,)), Path(u, (red,)))
    assert len(taus) == 1
    assert taus[0].degree(2) == (1, 1)


def test_mce_counts_one_vertex(one_vertex_3x2):
    g = one_vertex_3x2
    lam = Path("v", (g.edge_by_id["f1"],))
    mu = Path("v", (g.edge_by_id["g1"],))
    taus = mce(g, lam, mu)
    # degree-(1,1) extensions tau with tau(0,e1) = f1 and tau(0,e2) = g1:
    # the index-swapping squares refactor both f1.g1 and f1.g2 through g1
    assert all(t.degree(2) == (1, 1) for t in taus)
    assert {path_key(t) for t in taus} == {path_key(Path("v", (g.edge_by_id["f1"], g.edge_by_id["g1"]))),
                                           path_key(Path("v", (g.edge_by_id["f1"], g.edge_by_id["g2"])))}
