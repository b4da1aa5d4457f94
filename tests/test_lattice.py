import random

from kgraphs import families
from kgraphs.classify import is_cofinal
from kgraphs.lattice import (BooleanReach, all_hs_subsets, hereditary_closure,
                             ideal_membership, ideal_of_vertex_set,
                             is_hereditary, is_prime_ideal, is_saturated,
                             rho_eta_roundtrip,
                             saturated_hereditary_closure, vertices_of_ideal)
from kgraphs.monoid import TElement
from kgraphs.tri import replay


def brute_hs_subsets(graph):
    """Oracle: filter all 2^|V| vertex subsets, in the library's order."""
    verts = list(graph.vertices)
    out = []
    for mask in range(1 << len(verts)):
        h = frozenset(v for j, v in enumerate(verts) if mask >> j & 1)
        if is_hereditary(graph, h) and is_saturated(graph, h):
            out.append(h)
    return sorted(out, key=lambda h: (len(h), sorted(map(repr, h))))


def brute_closure(graph, xs):
    """Oracle: intersect every hereditary saturated set containing xs."""
    xs = set(xs)
    out = set(graph.vertices)
    for h in brute_hs_subsets(graph):
        if xs <= h:
            out &= h
    return out


def test_looptail_lattice(looptail):
    sets = all_hs_subsets(looptail)
    assert [sorted(h) for h in sets] == [[], ["b"], ["a", "b"]]


def test_lattice_matches_bruteforce(skeleton_pullbacks):
    graphs = [f() for f in families.FAMILIES.values()]
    graphs += [families.random_2graph(seed) for seed in range(40)]
    graphs += skeleton_pullbacks
    checked = 0
    for g in graphs:
        if g.is_lazy or len(g.vertices) > 10:
            continue
        assert all_hs_subsets(g) == brute_hs_subsets(g), g.name
        checked += 1
    assert checked >= 50


def test_cofinality_matches_bruteforce(skeleton_pullbacks):
    graphs = [f() for f in families.FAMILIES.values()]
    graphs += [families.random_2graph(seed) for seed in range(40)]
    graphs += skeleton_pullbacks
    for g in graphs:
        if g.is_lazy:
            continue
        proper = [h for h in brute_hs_subsets(g) if h and h != frozenset(g.vertices)]
        tri = is_cofinal(g)
        assert tri.is_yes == (not proper), g.name
        if proper:
            assert tri.certificate.kind == "proper_hs"
            assert tri.certificate.data["h"] == tuple(sorted(proper[0], key=repr))


def test_trivial_lattices(loop_pair_tail, one_vertex_3x2, cycle4):
    for g in (loop_pair_tail, one_vertex_3x2, cycle4):
        sets = all_hs_subsets(g)
        assert len(sets) == 2  # only the empty set and everything


def test_closure_matches_bruteforce_on_fixtures(looptail, loop_pair_tail, fan3):
    for g in (looptail, loop_pair_tail, fan3):
        verts = list(g.vertices)
        for mask in range(1 << len(verts)):
            xs = {v for i, v in enumerate(verts) if mask >> i & 1}
            got = saturated_hereditary_closure(g, xs)
            assert got == brute_closure(g, xs), (g.name, xs)


def test_closure_matches_bruteforce_random():
    for seed in range(40):
        g = families.random_2graph(seed)
        rng = random.Random(seed + 5)
        xs = set(rng.sample(g.vertices, rng.randint(0, len(g.vertices))))
        assert saturated_hereditary_closure(g, xs) == brute_closure(g, xs)


def test_closure_properties(looptail):
    got = saturated_hereditary_closure(looptail, {"a"})
    assert is_hereditary(looptail, got)
    assert is_saturated(looptail, got)
    assert got == {"a", "b"}
    assert saturated_hereditary_closure(looptail, {"b"}) == {"b"}


def test_loop_pair_tail_closure(loop_pair_tail):
    assert saturated_hereditary_closure(loop_pair_tail, {"u"}) == {"u", "v"}


def test_rho_eta_roundtrip_fixtures(looptail, loop_pair_tail, fan3):
    for g in (looptail, loop_pair_tail, fan3):
        for h in all_hs_subsets(g):
            assert rho_eta_roundtrip(g, h), (g.name, h)


def test_ideal_membership(looptail):
    g = looptail
    b0 = TElement.gen("b", (0, 0))
    a0 = TElement.gen("a", (0, 0))
    tri_in = ideal_membership(g, b0, {"b"})
    tri_out = ideal_membership(g, a0, {"b"})
    assert tri_in.is_yes and tri_out.is_no
    assert replay(g, tri_in) and replay(g, tri_out)
    assert vertices_of_ideal(g, ideal_of_vertex_set(g, {"b"})) == frozenset({"b"})


def test_ideal_membership_needs_push(fan3):
    # x is not in {u} but every color-2 expansion of x lands in {u}
    g = fan3
    h = saturated_hereditary_closure(g, {"u"})
    assert "x" in h
    tri = ideal_membership(g, TElement.gen("x", (0, 0, 0)), h)
    assert tri.is_yes
    assert replay(g, tri)


def test_prime_ideals(looptail):
    g = looptail
    tri = is_prime_ideal(g, frozenset({"b"}))
    assert tri.is_yes  # complement {a} is a maximal tail
    assert replay(g, tri)
    improper = is_prime_ideal(g, frozenset({"a", "b"}))
    assert improper.is_no


def test_prime_ideal_negative():
    g = families.disjoint_union(families.loop_pair_tail(), families.looptail())
    empty = is_prime_ideal(g, frozenset())
    assert empty.is_no  # the two components never meet
    assert replay(g, empty)


def test_prime_ideal_past_the_semigroup_cap(cycles_3_to_13):
    # primality needs plain reachability only, never the semigroup
    g = cycles_3_to_13
    tri = is_prime_ideal(g, frozenset())
    assert tri.is_no and tri.certificate.kind == "not_prime"
    assert replay(g, tri)


def test_boolean_reach_finite(looptail):
    reach = BooleanReach(looptail)
    assert len(reach.states) >= 1
    r = looptail.reach_rows()
    idx = looptail.vertex_index
    assert r[idx["a"]] >> idx["b"] & 1  # a reaches b through the tail
    assert not r[idx["b"]] >> idx["a"] & 1


def test_truncated_closure_lazy(bratteli):
    samp = set(bratteli.sample_vertices(4))
    cl = saturated_hereditary_closure(bratteli, [(0, 0)], depth=4)
    assert samp <= cl
