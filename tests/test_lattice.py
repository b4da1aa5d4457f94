import random

import pytest

from helpers import disjoint_union, sink_pullbacks
from kgraphs import families
from kgraphs import intlinalg as il
from kgraphs.classify import is_cofinal
from kgraphs.kgraph import bfs
from kgraphs.lattice import (BooleanReach, all_hs_subsets, hereditary_closure,
                             ideal_membership, is_hereditary, is_prime_ideal,
                             is_saturated, saturated_hereditary_closure)
from kgraphs.monoid import TElement, common_level, push_to_level
from kgraphs.tri import Certificate, no, replay


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


def push_search_membership(graph, a, h):
    """Reference on graphs without sources: a lies in the ideal of h exactly
    when some push of its level vector is supported inside h; the finitely
    many boolean support states make the search exhaustive."""
    t = common_level(a, TElement.zero(), graph.k)
    row = il.support([push_to_level(graph, a, t)])[0]
    hmask = sum(1 << graph.vertex_index[v] for v in h)
    gens = [il.support(graph.color_matrix(i)) for i in range(graph.k)]

    def expand(state):
        # the expansion relation only applies where out-edges exist
        return (il.bool_vecmat(state, gen) for gen in gens
                if all(r for j, r in enumerate(gen) if state >> j & 1))
    return any(not state & ~hmask for state in bfs([row], expand, None))


def sample_elements(graph, rng):
    """Every generator at offset 0, the zero element and three random sums."""
    k, verts = graph.k, graph.vertices
    out = [TElement.gen(v, (0,) * k) for v in verts] + [TElement.zero()]
    for _ in range(3):
        out.append(TElement.gen(rng.choice(verts), [rng.randint(0, 2) for _ in range(k)])
                   + TElement.gen(rng.choice(verts), [rng.randint(0, 2) for _ in range(k)], 2))
    return out


def support_in(a, h):
    return {v for (v, _), _ in a.items} <= set(h)


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
    # the ideal generated by h holds a vertex's generator exactly when the
    # vertex lies in h
    for g in (looptail, loop_pair_tail, fan3):
        zero = (0,) * g.k
        for h in all_hs_subsets(g):
            back = {v for v in g.vertices
                    if ideal_membership(g, TElement.gen(v, zero), h).is_yes}
            assert back == h, (g.name, h)


def test_ideal_membership(looptail):
    g = looptail
    b0 = TElement.gen("b", (0, 0))
    a0 = TElement.gen("a", (0, 0))
    tri_in = ideal_membership(g, b0, {"b"})
    tri_out = ideal_membership(g, a0, {"b"})
    assert tri_in.is_yes and tri_out.is_no
    assert replay(g, tri_in) and replay(g, tri_out)
    with pytest.raises(ValueError):
        ideal_membership(g, TElement.gen("zz", (0, 0)), {"b"})


def test_ideal_membership_past_the_semigroup_cap(cycles_3_to_13):
    # the unit-degree closure needs no semigroup
    g = cycles_3_to_13
    a = TElement.gen("c3.0", (0, 0)) + TElement.gen("c5.0", (1, 1))
    tri = ideal_membership(g, a, {"c3.1"})
    assert tri.is_no and tri.certificate.data["witness"] == "c5.0"
    assert tri.certificate.data["closure"] == ("c3.0", "c3.1", "c3.2")
    assert replay(g, tri)


def test_ideal_membership_matches_push_search(skeleton_pullbacks):
    graphs = [f() for f in families.FAMILIES.values()]
    graphs += [families.random_2graph(seed) for seed in range(40)]
    graphs += skeleton_pullbacks
    rng = random.Random(3)
    checked = 0
    for g in graphs:
        if g.is_lazy or g.has_sources():
            continue
        elems = sample_elements(g, rng)
        for h in all_hs_subsets(g):
            for a in elems:
                tri = ideal_membership(g, a, h)
                assert tri.is_yes == support_in(a, h) == push_search_membership(g, a, h), \
                    (g.name, h, a)
                checked += 1
    assert checked >= 1300


def test_ideal_membership_with_sources():
    # a generator at a sink drops out of every push, so no push search
    # decides these graphs; on hereditary saturated h the ideal is "support
    # inside h"
    graphs = [families.fan_3color(), families.arrow_pullback(),
              families.finite_grid(2, (2, 2))] + sink_pullbacks()
    rng = random.Random(4)
    checked = 0
    for g in graphs:
        assert g.has_sources(), g.name
        elems = sample_elements(g, rng)
        for h in all_hs_subsets(g):
            for a in elems:
                tri = ideal_membership(g, a, h)
                assert tri.is_yes == support_in(a, h), (g.name, h, a)
                assert replay(g, tri)
                checked += 1
    assert checked >= 300


def test_ideal_membership_sink_generator_counts(fan3):
    # w is a sink outside {v}: the push search let w(2,2,0) drop out and said yes
    a = TElement.gen("v", (1, 2, 2)) + TElement.gen("w", (2, 2, 0), 2)
    tri = ideal_membership(fan3, a, {"v"})
    assert tri.is_no and tri.certificate.data["witness"] == "w"
    assert replay(fan3, tri)


def test_ideal_membership_of_a_non_hereditary_set(loop_pair_tail):
    # u(1,0) = v(0,0), so u(0,0) lies in the ideal of {v} although {v} is
    # not hereditary
    tri = ideal_membership(loop_pair_tail, TElement.gen("u", (0, 0)), {"v"})
    assert tri.is_yes
    assert replay(loop_pair_tail, tri)


def test_ideal_membership_takes_in_unit_saturated_vertices(fan3):
    # every color-2 edge of x has source u, so x joins the closure of {u}
    x = TElement.gen("x", (0, 0, 0))
    for h in ({"u"}, saturated_hereditary_closure(fan3, {"u"})):
        tri = ideal_membership(fan3, x, h)
        assert tri.is_yes and replay(fan3, tri)


def fan3_sum(*vs):
    return sum((TElement.gen(v, (0, 0, 0)) for v in vs), TElement.zero())


@pytest.mark.parametrize("tamper", [
    {"closure": ("v", "w", "x")},                       # x's source u is missing
    {"closure": ("u", "v", "w"), "witness": "x"},       # x's blue sources lie inside
    {"closure": ()},                                    # h is not inside
    {"closure": ("v", "w"), "witness": "w"},            # the witness is inside
    {"a": fan3_sum("w", "x"), "witness": "u"},          # the witness is not in a
], ids=["not_hereditary", "not_unit_saturated", "h_outside", "witness_inside",
        "witness_off_support"])
def test_tampered_ideal_nonmember_is_rejected(fan3, tamper):
    tri = ideal_membership(fan3, fan3_sum("u", "w", "x"), {"v"})
    assert tri.certificate.data["closure"] == ("v",)
    assert tri.certificate.data["witness"] == "u"
    assert replay(fan3, tri)
    forged = Certificate("ideal_nonmember", {**tri.certificate.data, **tamper})
    assert not replay(fan3, no(forged))


def test_lazy_graphs_get_unknown_or_value_error(grid2):
    h = {(0, 0)}
    assert ideal_membership(grid2, TElement.gen((0, 0), (0, 0)), h).is_unknown
    assert is_prime_ideal(grid2, h).is_unknown
    with pytest.raises(ValueError):
        is_hereditary(grid2, h)
    with pytest.raises(ValueError):
        is_saturated(grid2, h)


def test_prime_ideals(looptail):
    g = looptail
    tri = is_prime_ideal(g, frozenset({"b"}))
    assert tri.is_yes  # complement {a} is a maximal tail
    assert replay(g, tri)
    improper = is_prime_ideal(g, frozenset({"a", "b"}))
    assert improper.is_no


def test_prime_ideal_negative():
    g = disjoint_union(families.loop_pair_tail(), families.looptail())
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
