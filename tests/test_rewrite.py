import random

from helpers import (common_reduct, congruent_reference, neighbors_reference, reachable,
                     sink_pullbacks)
from kgraphs import families
from kgraphs import rewrite as rw
from kgraphs.kgraph import skew_product
from kgraphs.monoid import TElement, t_equal
from kgraphs.rewrite import DEFAULT_NODE_CAP, FreeElement, congruent, expansion, successors
from kgraphs.tri import Certificate, no, replay


def F(*names):
    out = FreeElement.zero()
    for n in names:
        out = out + FreeElement.single(n)
    return out


def test_free_element_multiset():
    a = F("u", "v", "u")
    assert a.counter() == {"u": 2, "v": 1}
    assert (a + F("v")).counter() == {"u": 2, "v": 2}
    assert a.subtract(F("u")).counter() == {"u": 1, "v": 1}


def test_expansion(loop_pair_tail, fan3):
    e = expansion(loop_pair_tail, "v", 0)
    assert e.counter() == {"u": 1}
    assert expansion(fan3, "x", 0).counter() == {"w": 1, "u": 1}
    assert expansion(fan3, "u", 0) is None  # u is a source in color 0


def test_step_and_successors(fan3):
    succs = [s.counter() for s, _ in successors(fan3, F("x"))]
    assert {"w": 1, "u": 1} in succs
    assert {"v": 1, "u": 1} in succs
    assert {"u": 1} in succs


def test_fan_congruences(fan3):
    u, v, w, x = F("u"), F("v"), F("w"), F("x")
    assert congruent(fan3, u, u + v).is_yes
    assert congruent(fan3, u, u + w).is_yes
    assert congruent(fan3, x, u).is_yes
    assert common_reduct(fan3, u + v, u + w, bound=10) is None
    tri = congruent(fan3, u + v, u + w)
    assert tri.is_yes
    assert replay(fan3, tri)


def test_fan_non_congruences(fan3):
    v = F("v")
    v2 = F("v", "v")
    tri = congruent(fan3, v, v2)
    assert tri.is_no
    assert replay(fan3, tri)


def test_one_vertex_classes(one_vertex_3x3):
    g = one_vertex_3x3
    reps = [FreeElement.zero(), F("v"), F("v", "v")]

    def times(n):
        return FreeElement.from_pairs([("v", n)]) if n else FreeElement.zero()

    # v ~ 3v (blue expansion), so classes of {0, v, 2v, 3v, 4v} collapse to 3
    classes = []
    for n in range(5):
        a = times(n)
        for cls in classes:
            if congruent(g, a, cls[0]).is_yes:
                cls.append(a)
                break
        else:
            classes.append([a])
    assert len(classes) == 3


def test_zero_class(one_vertex_3x3):
    tri = congruent(one_vertex_3x3, FreeElement.zero(), F("v"))
    assert tri.is_no
    assert replay(one_vertex_3x3, tri)
    assert congruent(one_vertex_3x3, FreeElement.zero(), FreeElement.zero()).is_yes


def test_integer_invariant_replay(one_vertex_3x3):
    g = one_vertex_3x3
    tri = congruent(g, F("v"), F("v", "v"))
    assert tri.is_no
    assert tri.certificate.kind == "integer_invariant"
    assert replay(g, tri)


def test_integer_invariant_rejects_unknown_generator(loop_pair_tail):
    forged = no(Certificate("integer_invariant",
                            {"left": FreeElement.single("zz"), "right": F("u")}))
    assert not replay(loop_pair_tail, forged)


def test_integer_invariant_is_rejected_on_a_lazy_graph(grid2):
    # the relation lattice is a finite-graph invariant; congruent never uses
    # it on a lazy graph, so a certificate naming one is forged
    forged = no(Certificate("integer_invariant",
                            {"left": FreeElement.single((0, 0)), "right": F((1, 0), (1, 0))}))
    assert not replay(grid2, forged)


def test_reachable_bounded(loop_pair_tail):
    traces, complete = reachable(loop_pair_tail, F("v"), bound=3, node_cap=100)
    assert F("v") in traces
    assert any(t.counter() == {"u": 1} for t in traces)


def test_congruent_on_skew_lazy(arrow):
    from kgraphs.kgraph import skew_product
    sk = skew_product(arrow)
    a = FreeElement.single(("v", (0, 0)))
    b = FreeElement.single(("v", (1, -1)))
    tri = congruent(sk, a, b)
    assert tri.is_yes
    assert replay(sk, tri)


def _walk(rng, graph, a, steps):
    """``a`` after up to ``steps`` random forward steps: an equal element."""
    for _ in range(steps):
        nxt = successors(graph, a)
        if not nxt:
            break
        a = rng.choice(nxt)[0]
    return a


def _some(rng, verts):
    return FreeElement.from_pairs([(rng.choice(verts), 1) for _ in range(2)])


def _reference_cases():
    """(graph, a, b, bound, node_cap): built-equal pairs, random pairs on
    finite graphs with sources, and searches cut by the round bound and by
    the node cap."""
    rng = random.Random(7)
    fan3, one = families.fan_3color(), families.one_vertex_3x3()
    cases = [(g, a, b, 16, DEFAULT_NODE_CAP) for g, a, b in [
        (fan3, F("u"), F("u", "v")), (fan3, F("u", "v"), F("u", "w")),
        (fan3, F("v"), F("v", "v")), (fan3, F("x", "x"), F("u", "v", "w")),
        (one, F("v"), F("v", "v")), (one, F("v"), F("v", "v", "v")),
        (skew_product(families.arrow_pullback()), F(("v", (0, 0))), F(("v", (1, -1))))]]
    pullbacks = sink_pullbacks(5)
    for g in pullbacks:
        for _ in range(3):
            a = _some(rng, g.vertices)
            cases.append((g, _walk(rng, g, a, 1), _walk(rng, g, a, 2), 8, 500))
            cases.append((g, _some(rng, g.vertices), _some(rng, g.vertices), 8, 500))
    bratteli = families.rank2_bratteli()
    for base, verts in ((bratteli, [(n, j) for n in range(3) for j in range(1 << n)]),
                        (pullbacks[0], pullbacks[0].vertices)):
        sk = skew_product(base)
        window = [(v, (i, j)) for v in verts for i in range(3) for j in range(3)]
        for bound, cap, far in [(8, 500, 2)] * 4 + [(1, 500, 3), (8, 5, 3)]:
            a = _some(rng, window)
            cases.append((sk, _walk(rng, sk, a, 1), _walk(rng, sk, a, far), bound, cap))
    return cases


def test_congruent_matches_the_free_element_search():
    outcomes = set()
    for graph, a, b, bound, cap in _reference_cases():
        tri = congruent(graph, a, b, bound, cap)
        assert repr(tri) == repr(congruent_reference(graph, a, b, bound, cap)), (graph.name, a, b)
        assert replay(graph, tri)
        for elem in (a, b):
            steps = [(FreeElement(s), label) for s, label in rw._Steps(graph).neighbors(elem.items)]
            assert steps == neighbors_reference(graph, elem)
        outcomes.add(tri.certificate.kind if tri.certificate else " ".join(tri.note.split()[:2]))
    # yes chains, both kinds of "no", and both bounds that leave it unknown
    assert outcomes == {"rewrite_chain", "component_separation", "integer_invariant",
                        "node cap", "no connection"}


def test_search_builds_free_elements_only_at_its_ends(monkeypatch, bratteli):
    rng = random.Random(3)
    sk = skew_product(bratteli)
    window = [((n, j), (i, 0)) for n in range(3) for j in range(1 << n) for i in range(3)]
    start = _some(rng, window)
    a, b = _walk(rng, sk, start, 1), _walk(rng, sk, start, 2)
    calls = []
    real = FreeElement.from_pairs
    monkeypatch.setattr(rw.FreeElement, "from_pairs",
                        staticmethod(lambda pairs: calls.append(1) or real(pairs)))
    tri = t_equal(bratteli, TElement.from_pairs(a.items), TElement.from_pairs(b.items))
    assert tri.is_yes and tri.certificate.kind == "skew_rewrite"
    # the two skew elements handed to the search, not one per state
    assert len(calls) <= 4, len(calls)
    calls.clear()
    congruent_reference(sk, a, b)
    assert len(calls) > 20
