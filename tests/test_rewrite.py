from helpers import common_reduct, reachable
from kgraphs.rewrite import FreeElement, congruent, expansion, successors
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
