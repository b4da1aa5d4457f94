import random
import time
from dataclasses import replace

import pytest

from helpers import sink_pullbacks
from kgraphs import degrees as dg
from kgraphs import families
from kgraphs import intlinalg as il
from kgraphs.kgraph import Edge, KGraph
from kgraphs.lattice import ideal_membership
from kgraphs.monoid import (PERIODIC_BUDGET, Bounds, DEFAULT_BOUNDS, TElement,
                            _equalizer_exponents, _trace_gap, _trace_rows,
                            _trace_terms, act, acts_freely, atoms,
                            common_level, factor_into_atoms,
                            find_periodic_element, forget, graded_keys,
                            graded_trace, is_atom, is_atomic, m_congruent,
                            push_to_level, separating_trace, t_equal,
                            t_equal_rewrite, t_leq)
from kgraphs.tri import Certificate, no, replay, yes


def gen(v, n, c=1):
    return TElement.gen(v, n, c)


# ---------------------------------------------------------------------------
# level pushes and equality engines


def test_push_single_vertex(one_vertex_3x2):
    g = one_vertex_3x2
    v = gen("v", (0, 0))
    assert push_to_level(g, v, (1, 0)) == (3,)
    assert push_to_level(g, v, (1, 1)) == (6,)


def test_t_equal_exact_mode(one_vertex_3x2):
    # injective color matrices: the decisive exponent's "no" covers them
    g = one_vertex_3x2
    assert t_equal(g, gen("v", (0, 0)), gen("v", (0, 0), 1)).is_yes
    tri = t_equal(g, gen("v", (0, 0)), gen("v", (1, 0)))
    assert tri.is_no and tri.certificate.kind == "kernel_stable"
    assert replay(g, tri)
    assert t_equal(g, gen("v", (1, 0), 3), gen("v", (0, 0))).is_yes


def test_t_equal_level_vs_rewrite_oracle():
    small = Bounds(rewrite=8, node_cap=2000)
    checked = 0
    for seed in range(30):
        g = families.random_2graph(seed)
        rng = random.Random(seed * 31 + 1)
        for _ in range(4):
            a = gen(rng.choice(g.vertices), (rng.randint(0, 2), rng.randint(0, 2)))
            b = gen(rng.choice(g.vertices), (rng.randint(0, 2), rng.randint(0, 2)))
            fast = t_equal(g, a, b)
            oracle = t_equal_rewrite(g, a, b, small)
            assert not fast.is_unknown  # finite, no sources: always decided
            if not oracle.is_unknown:
                assert fast.value == oracle.value, (seed, a, b)
                checked += 1
    assert checked >= 30


def full_scan_t_equal(graph, a, b, bounds=DEFAULT_BOUNDS):
    """Reference: every exponent with |m|_1 < k|V| in order, then m*."""
    t = common_level(a, b, graph.k)
    xv, yv = push_to_level(graph, a, t), push_to_level(graph, b, t)
    if a == b or xv == yv:
        return t_equal(graph, a, b, bounds=bounds)
    cap = min(bounds.push, graph.k * len(graph.vertices) - 1)
    mstar = (len(graph.vertices),) * graph.k
    for m in [*_equalizer_exponents(graph.k, cap), mstar]:
        am = graph.coord_matrix(m)
        if il.vecmat(xv, am) == il.vecmat(yv, am):
            return yes(Certificate("equalizer", {"a": a, "b": b, "level": t, "m": m}))
    return no(Certificate("kernel_stable", {"a": a, "b": b, "level": t, "m": mstar}))


def test_decisive_exponent_first_matches_full_scan(skeleton_pullbacks):
    graphs = [families.random_2graph(seed) for seed in range(40)] + skeleton_pullbacks
    kinds = set()
    for i, g in enumerate(graphs):
        if not g.vertices:
            continue
        rng = random.Random(i)
        for _ in range(40):
            a, b = (sum((gen(rng.choice(g.vertices),
                             (rng.randint(0, 2), rng.randint(0, 2)))
                         for _ in range(rng.randint(1, 2))), TElement.zero())
                    for _ in range(2))
            got = t_equal(g, a, b)
            assert got == full_scan_t_equal(g, a, b), (g.name, a, b)
            assert replay(g, got)
            kinds.add(got.certificate.kind)
    assert {"equalizer", "kernel_stable"} <= kinds


def test_t_equal_certificates_replay(loop_pair_tail, cycle4):
    for g, a, b in [(loop_pair_tail, gen("v", (0, 0)), gen("u", (1, 0))),
                    (cycle4, gen("u", (0, 0)), gen("u", (4, 0))),
                    (cycle4, gen("u", (0, 0)), gen("u", (1, 0)))]:
        tri = t_equal(g, a, b)
        assert not tri.is_unknown
        assert replay(g, tri)


def test_forged_kernel_stable_no_is_rejected(cycle4):
    # u(0,0) = u(4,0) on the injective cycle4: a "no" claiming that the
    # difference survives m* must fail replay
    a, b = gen("u", (0, 0)), gen("u", (4, 0))
    assert t_equal(cycle4, a, b).is_yes
    forged = no(Certificate("kernel_stable", {"a": a, "b": b, "level": (4, 0),
                                              "m": (4, 4)}))
    assert not replay(cycle4, forged)


LEVEL_KINDS = ("kernel_stable", "equalizer", "level_equal", "order_equalizer")


@pytest.mark.parametrize("kind", LEVEL_KINDS)
@pytest.mark.parametrize("tamper", [{"level": (0, 0)}, {"level": (4, 0, 0)},
                                    {"m": (-1, 0)}, {"b": gen("zz", (0, 0))}],
                         ids=["below_offset", "wrong_length", "negative_m", "foreign_vertex"])
def test_tampered_level_certificates_are_rejected(cycle4, kind, tamper):
    # a level below an offset of a, a level of the wrong length, a
    # negative exponent and a vertex the graph lacks are data the graph
    # cannot take: replay says False
    data = {"a": gen("u", (4, 0)), "b": gen("z", (0, 0)), "level": (4, 0), "m": (4, 4)}
    forged = Certificate(kind, {**data, **tamper})
    for verdict in (yes(forged), no(forged)):
        assert replay(cycle4, verdict) is False


@pytest.mark.parametrize("kind, b", [
    ("kernel_stable", gen("z", (0, 0))), ("equalizer", gen("u", (0, 0))),
    ("level_equal", gen("u", (0, 0))), ("order_equalizer", gen("u", (0, 0)))],
    ids=LEVEL_KINDS)
def test_level_certificates_reject_an_offset_of_the_wrong_length(cycle4, kind, b):
    # u(4, 0) = u(0, 0) != z(0, 0) at level (4, 0): the data replays at
    # offsets of length 2, and a third entry must not be cut away
    verdict = no if kind == "kernel_stable" else yes
    data = {"a": gen("u", (4, 0)), "b": b, "level": (4, 0), "m": (4, 4)}
    assert replay(cycle4, verdict(Certificate(kind, data)))
    assert not replay(cycle4, verdict(Certificate(kind, {**data, "a": gen("u", (4, 0, 7))})))


@pytest.mark.parametrize("kind", ["periodic_pair", "periodic_atom"])
def test_periods_of_the_wrong_length_are_rejected(cycle4, kind):
    good = {"element": gen("u", (0, 0)), "period": (4, 0)}
    assert replay(cycle4, no(Certificate(kind, good)))
    for bad in ({**good, "period": (4, 0, 7)}, {**good, "element": gen("u", (0, 0, 0))}):
        assert not replay(cycle4, no(Certificate(kind, bad)))


@pytest.mark.parametrize("kind", LEVEL_KINDS)
def test_level_certificates_are_rejected_off_their_engine(fan3, grid2, kind):
    # on fan3 a push kills both u and v at level (0, 0, 1), so equal level
    # vectors there prove nothing (t_equal certifies u(0) != v(0)); a lazy
    # graph has no level vectors at all
    u, v = gen("u", (0, 0, 0)), gen("v", (0, 0, 0))
    assert t_equal(fan3, u, v).is_no
    on_fan3 = {"a": u, "b": v, "level": (0, 0, 1), "m": (0, 0, 0)}
    on_grid2 = {"a": gen((0, 0), (0, 0)), "b": gen((1, 0), (1, 0)), "level": (1, 1),
                "m": (0, 0)}
    for g, data in ((fan3, on_fan3), (grid2, on_grid2)):
        forged = Certificate(kind, data)
        assert not replay(g, yes(forged)) and not replay(g, no(forged)), g.name


def test_t_equal_graded_keys(grid2):
    a = gen((0, 0), (1, 1))
    b = gen((1, 1), (2, 2))
    assert graded_keys(grid2, a) == graded_keys(grid2, b)
    assert t_equal(grid2, a, b).is_yes
    assert t_equal(grid2, a, gen((1, 0), (1, 1))).is_no


def test_t_equal_rewrite_sourceful(arrow):
    v = gen("v", (0, 0))
    tri = t_equal(arrow, act((1, -1), v), v)
    assert tri.is_yes and tri.certificate.kind == "skew_rewrite"
    assert replay(arrow, tri)


# ---------------------------------------------------------------------------
# order


def test_t_leq(one_vertex_3x2, loop_pair_tail):
    g = one_vertex_3x2
    assert t_leq(g, gen("v", (0, 0)), gen("v", (0, 0), 2)).is_yes
    assert t_leq(g, gen("v", (1, 0)), gen("v", (0, 0))).is_yes  # 3 copies exist
    assert not t_leq(g, gen("v", (0, 0), 4), gen("v", (1, 0))).is_yes
    assert t_leq(loop_pair_tail, gen("v", (0, 0)), gen("u", (1, 0))).is_yes


def test_t_leq_antisymmetry_on_samples():
    for seed in range(12):
        g = families.random_2graph(seed)
        rng = random.Random(seed)
        for _ in range(4):
            a = gen(rng.choice(g.vertices), (rng.randint(0, 1), rng.randint(0, 1)))
            b = gen(rng.choice(g.vertices), (rng.randint(0, 1), rng.randint(0, 1)))
            if t_leq(g, a, b).is_yes and t_leq(g, b, a).is_yes:
                assert t_equal(g, a, b).is_yes


# ---------------------------------------------------------------------------
# action and forgetting


def test_act_and_forget(loop_pair_tail):
    a = gen("u", (1, 0)) + gen("v", (0, 2), 2)
    assert act((1, 1), act((-1, -1), a)) == a
    assert forget(a).counter() == {"u": 1, "v": 2}


def test_forget_compatible_with_congruence(loop_pair_tail):
    g = loop_pair_tail
    a, b = gen("v", (0, 0)), gen("u", (1, 0))
    assert t_equal(g, a, b).is_yes
    assert m_congruent(g, forget(a), forget(b)).is_yes


# ---------------------------------------------------------------------------
# atoms


def test_atoms_cycle(cycle4):
    assert set(atoms(cycle4)) == set(cycle4.vertices)
    assert is_atom(cycle4, gen("u", (0, 0))).is_yes
    assert is_atomic(cycle4).is_yes


def test_atoms_one_vertex(one_vertex_3x2):
    g = one_vertex_3x2
    assert atoms(g) == []
    tri = is_atomic(g)
    assert tri.is_no
    assert replay(g, tri)


def test_atoms_loop_pair_tail(loop_pair_tail):
    g = loop_pair_tail
    assert set(atoms(g)) == {"u", "v"}
    assert is_atomic(g).is_yes


def test_factor_into_atoms_gives_up_at_the_node_cap(looptail):
    # a is no leaf and a(0,0)*2 never factors into atoms
    start = time.process_time()
    assert factor_into_atoms(looptail, gen("a", (0, 0), 2), DEFAULT_BOUNDS) is None
    assert time.process_time() - start < 2


def test_factor_into_atoms(cycle4):
    a = gen("u", (0, 0), 2) + gen("z", (0, 0))
    parts = factor_into_atoms(cycle4, a)
    assert parts is not None
    assert sum(c for _, c in parts.items) == 3
    for (v, n), _ in parts.items:
        assert is_atom(cycle4, gen(v, n)).is_yes
    assert t_equal(cycle4, parts, a).is_yes


def test_grid_all_leaves(grid2):
    tri = is_atomic(grid2, DEFAULT_BOUNDS)
    assert tri.is_yes  # bounded verdict: every sampled vertex is a leaf
    assert replay(grid2, tri)


@pytest.mark.parametrize("name, missing", [("fan3", "x"), ("arrow", "u"),
                                           ("bratteli", (99, 0)), ("cycle4", "zz")],
                         ids=["fan3", "arrow", "bratteli", "cycle4"])
def test_forged_not_atomic_is_rejected(name, missing):
    # graphs with sources and lazy graphs lie outside the closure criterion,
    # and the missing vertex must be one of the graph's
    g = families.FAMILIES[name]()
    assert not replay(g, no(Certificate("not_atomic", {"leaves": [], "missing": missing})))


def test_forged_atomic_closure_on_a_lazy_graph_is_rejected(grid2):
    leaves = grid2.sample_vertices(DEFAULT_BOUNDS.sample_depth)
    assert not replay(grid2, yes(Certificate("atomic_closure", {"leaves": leaves})))


def test_forged_atomic_closure_needs_the_graphs_leaves(cycle4, one_vertex_3x2):
    assert not replay(cycle4, yes(Certificate("atomic_closure", {"leaves": ["u", "zz"]})))
    # v is no leaf, though its closure is the whole graph
    assert atoms(one_vertex_3x2) == []
    assert not replay(one_vertex_3x2, yes(Certificate("atomic_closure", {"leaves": ["v"]})))


def test_bratteli_no_atoms(bratteli):
    tri = is_atomic(bratteli, DEFAULT_BOUNDS)
    assert tri.is_no
    assert replay(bratteli, tri)


# ---------------------------------------------------------------------------
# periodicity and freeness


def test_grid_free(grid2):
    tri = acts_freely(grid2, DEFAULT_BOUNDS)
    assert tri.is_yes and tri.certificate.kind == "graded_translation"
    assert find_periodic_element(grid2, DEFAULT_BOUNDS) is None


def test_single_vertex_freeness(one_vertex_3x2, one_vertex_3x3):
    tri = acts_freely(one_vertex_3x2, DEFAULT_BOUNDS)
    assert tri.is_yes and tri.certificate.kind == "free_multiplicative"
    tri = acts_freely(one_vertex_3x3, DEFAULT_BOUNDS)
    assert tri.is_no
    a, p = tri.certificate.data["element"], tri.certificate.data["period"]
    assert t_equal(one_vertex_3x3, act(p, a), a).is_yes
    assert replay(one_vertex_3x3, tri)


def test_leaf_collision_freeness(loop_pair_tail, cycle4):
    tri = acts_freely(loop_pair_tail, DEFAULT_BOUNDS)
    assert tri.is_no
    assert tri.certificate.data["element"] == gen("u", (0, 0))
    assert tri.certificate.data["period"] == (1, 0)
    tri = acts_freely(cycle4, DEFAULT_BOUNDS)
    assert tri.is_no
    assert tri.certificate.data["period"] == (1, -1)


def test_bratteli_periodic_witness(bratteli):
    found = find_periodic_element(bratteli, DEFAULT_BOUNDS)
    assert found is not None
    a, p = found
    assert p == (0, 1)
    assert t_equal(bratteli, act(p, a), a).is_yes


# ---------------------------------------------------------------------------
# graded traces on finite graphs with sources

# small enough that the periodic search on the 4x4 grid stays quick
REDUCED = replace(DEFAULT_BOUNDS, period_radius=1, support=1, rewrite=2, node_cap=50)


def finite_grids():
    return [families.finite_grid(2, (m, n)) for m in range(1, 5) for n in range(1, 5)]


def test_free_trace_on_fan3(fan3):
    tri = acts_freely(fan3, DEFAULT_BOUNDS)
    assert tri.is_yes and tri.certificate.kind == "free_trace"
    assert tri.certificate.data == {"lam": (2, 3, 5), "phi": (6, 4, 9, 30)}
    assert fan3.vertices == ("u", "v", "w", "x")
    assert replay(fan3, tri)


def test_free_trace_on_finite_grids():
    for g in [families.FAMILIES["finite-grid-2x2"]()] + finite_grids():
        tri = acts_freely(g, DEFAULT_BOUNDS)
        assert tri.is_yes and tri.certificate.kind == "free_trace", g.name
        assert tri.certificate.data["lam"] == (2, 3) and replay(g, tri), g.name


def test_no_graph_has_a_trace_and_a_periodic_element():
    with_sources = [make() for make in families.FAMILIES.values()]
    with_sources = [g for g in with_sources if not g.is_lazy and g.has_sources()]
    graphs = with_sources + sink_pullbacks(40) + finite_grids()
    traced = periodic = 0
    for g in graphs:
        assert g.has_sources(), g.name
        trace = graded_trace(g)
        found = find_periodic_element(g, REDUCED)
        assert trace is None or found is None, g.name
        traced += trace is not None
        periodic += found is not None
    assert len(graphs) == 59 and traced == 18 and periodic == 41


def test_graphs_without_sources_have_no_trace(skeleton_pullbacks):
    # A_i phi = phi / lam_i would make 1 / lam_i an integer eigenvalue
    graphs = [make() for make in families.FAMILIES.values()]
    graphs = [g for g in graphs if not g.is_lazy and not g.has_sources()]
    graphs += [families.random_2graph(s) for s in range(20)] + skeleton_pullbacks
    for g in graphs:
        assert not g.has_sources() and graded_trace(g) is None, g.name


def test_unknown_freeness_names_both_routes():
    # one vertex with two loops of the first color only: free, with a trace
    # of lam_1 = 1/2, which no permutation of the first primes gives
    g = KGraph(2, ["v"], [Edge("f1", 0, "v", "v"), Edge("f2", 0, "v", "v")], [])
    tri = acts_freely(g, REDUCED)
    assert tri.is_unknown
    assert "no graded trace with lam a permutation of the first 2 primes" in tri.note
    assert f"first {PERIODIC_BUDGET} candidates" in tri.note
    assert "monoid.PERIODIC_BUDGET" in tri.note


def _forged_trace(lam, phi):
    return yes(Certificate("free_trace", {"lam": lam, "phi": phi}))


@pytest.mark.parametrize("lam, phi", [
    ((2, 2, 5), (2, 3, 3, 10)),     # a repeated prime: identities hold, lam is dependent
    ((1, 3, 5), (3, 2, 12, 15)),    # lam_1 = 1: identities hold
    ((2, 3, 5), (0, 0, 0, 0)),      # phi = 0 satisfies every identity
    ((2, 3, 5), (6, 4, 0, 30)),
    ((2, 3, 5), (6, 4, 9, 31)),     # off by one
    ((2, 3, 5), (7, 4, 9, 30)),
    ((2, 3, 5), (6, 4, 9)),         # wrong lengths
    ((2, 3), (6, 4, 9, 30)),
    ((2, 3, 5, 7), (6, 4, 9, 30)),
    ((2.0, 3, 5), (6, 4, 9, 30)),   # not an int
    ((3, 2, 5), (6, 4, 9, 30)),     # colors swapped
])
def test_tampered_free_trace_is_rejected(fan3, lam, phi):
    assert replay(fan3, _forged_trace((2, 3, 5), (6, 4, 9, 30)))
    assert not replay(fan3, _forged_trace(lam, phi))


def test_free_trace_is_rejected_on_a_lazy_graph(grid2):
    assert not replay(grid2, _forged_trace((2, 3), (1,)))
    assert not replay(grid2, _forged_trace((2, 3), ()))


def test_free_trace_on_the_edgeless_graph():
    # every vertex is a source and every phi is a trace
    g = KGraph(2, ["v"], [], [])
    tri = acts_freely(g, DEFAULT_BOUNDS)
    assert tri.is_yes and tri.certificate.data == {"lam": (2, 3), "phi": (1,)}
    assert replay(g, tri)


# ---------------------------------------------------------------------------
# separating traces on finite graphs with sources


def expand(g, a, rng, moves):
    """Apply ``moves`` random defining relations v(n) -> the sources of the
    color-i edges at v, at n + e_i."""
    for _ in range(moves):
        options = [((v, n), i) for (v, n), _ in a.items for i in range(g.k) if g.out_edges(v, i)]
        if not options:
            break
        (v, n), i = rng.choice(options)
        terms = [(vn, c - (vn == (v, n))) for vn, c in a.items]
        terms += [((e.source, dg.add(n, dg.unit(g.k, i))), 1) for e in g.out_edges(v, i)]
        a = TElement.from_pairs(terms)
    return a


def random_element(g, rng):
    """Two generators with random vertices and offsets in [0, 2]^k."""
    return TElement.from_pairs([((rng.choice(g.vertices), tuple(rng.choices(range(3), k=g.k))), 1)
                                for _ in range(2)])


def test_fixed_fan3_pair_is_separated(fan3):
    # the trace of acts_freely alone gives tau(2x) = 60, tau(u + v + w) = 19
    a = gen("x", (0, 0, 0), 2)
    b = TElement.from_pairs([((v, (0, 0, 0)), 1) for v in "uvw"])
    tri = t_equal(fan3, a, b)
    assert tri.is_no and tri.certificate.kind == "trace_separates"
    assert replay(fan3, tri) and not replay(fan3, yes(tri.certificate))


def test_separator_never_splits_pairs_built_equal(fan3, arrow):
    # traces respect the relations on every finite graph, with sources or not
    rng = random.Random(7)
    graphs = [fan3, arrow] + sink_pullbacks(5) + [families.random_2graph(s) for s in range(6)]
    for g in graphs:
        for _ in range(12):
            a = random_element(g, rng)
            b, c = expand(g, a, rng, rng.randint(1, 3)), expand(g, a, rng, 1)
            assert separating_trace(g, a, b) is None, (g.name, a, b)
            assert separating_trace(g, c, b) is None, (g.name, c, b)


def test_no_separated_pair_is_connected_by_rewriting(fan3, arrow):
    # an exhausted rewrite search on a sink pullback takes seconds (node
    # cap), so the cross-check stays on the two fixtures, about 0.5 s
    rng = random.Random(1)
    separated = 0
    for g in (fan3, arrow):
        for _ in range(3):
            a, b = random_element(g, rng), random_element(g, rng)
            if separating_trace(g, a, b) is not None:
                separated += 1
                assert not t_equal_rewrite(g, a, b, DEFAULT_BOUNDS).is_yes, (g.name, a, b)
    assert separated == 6


def _separated_v_w(fan3):
    tri = t_equal(fan3, gen("v", (0, 0, 0)), gen("w", (0, 0, 0)))
    assert tri.is_no and tri.certificate.kind == "trace_separates" and replay(fan3, tri)
    return tri.certificate.data


def _fan3_forgeries(data):
    lam, phi = data["lam"], data["phi"]
    x = gen("x", (0, 0, 0))
    x_red = TElement.from_pairs([(("v", (0, 1, 0)), 1), (("u", (0, 1, 0)), 1)])
    return {
        "other_lam": {**data, "lam": tuple(3 * l for l in lam)},
        "row_not_killed": {**data, "phi": phi[:3] + (phi[3] + 1,)},
        # every row at lam_1 = 0 reads e_x, which phi = e_w passes, and
        # tau(v) = 0 != tau(w) = 1
        "zero_lam": {**data, "lam": (0, 2, -1), "phi": (0, 0, 1, 0)},
        # x equals its color-1 expansion, so every trace agrees on them
        "equal_pair": {**data, "a": x, "b": x_red},
        "same_element": {**data, "b": data["a"]},
        "short_phi": {**data, "phi": phi[:3]},
        "float_lam": {**data, "lam": (float(lam[0]),) + lam[1:]},
    }


@pytest.mark.parametrize("tamper", ["other_lam", "row_not_killed", "zero_lam", "equal_pair",
                                    "same_element", "short_phi", "float_lam"])
def test_tampered_trace_separation_is_rejected(fan3, tamper):
    forged = Certificate("trace_separates", _fan3_forgeries(_separated_v_w(fan3))[tamper])
    assert not replay(fan3, no(forged))


def test_trace_separation_is_rejected_off_finite_graphs(fan3, grid2):
    data = _separated_v_w(fan3)
    assert not replay(fan3, yes(Certificate("trace_separates", data)))
    lazy = {"a": gen((0, 0), (0, 0)), "b": gen((1, 0), (0, 0)), "lam": (2, 2), "phi": (1,)}
    assert not replay(grid2, no(Certificate("trace_separates", lazy)))


def test_zero_lam_forgery_passes_every_other_check(fan3):
    # only lam_1 = 0 stands between the forged certificate and a replay
    d = _fan3_forgeries(_separated_v_w(fan3))["zero_lam"]
    rows = _trace_rows(fan3, d["lam"])
    assert not any(sum(r * p for r, p in zip(row, d["phi"])) for row in rows)
    assert _trace_gap(_trace_terms(fan3, d["a"], d["b"]), d["lam"], d["phi"]) != 0


FOREIGN = "'zz' is not a vertex"


@pytest.mark.parametrize("name, a, b, match", [
    ("fan3", gen("zz", (0, 0, 0)), gen("u", (0, 0, 0)), FOREIGN),
    ("fan3", gen("zz", (0, 0, 0)), gen("zz", (0, 0, 0)), FOREIGN),
    ("arrow", gen("u", (0, 0)), gen("zz", (1, 0)), FOREIGN),
    ("cycle4", gen("zz", (0, 0)), gen("u", (0, 0)), FOREIGN),
    # an offset whose length is not the rank, on every kind of graph
    ("cycle4", gen("u", (0, 0, 0)), gen("u", (4, 0, 0)), r"offset .* length-2 .* \(0, 0, 0\)"),
    ("fan3", gen("u", (0, 0)), gen("u", (0, 0)), r"offset .* length-3 .* \(0, 0\)"),
    ("grid2", gen((0, 0), (1, 1, 1)), gen((1, 1), (2, 2, 2)), r"length-2 .* \(1, 1, 1\)"),
    ("bratteli", gen((0, 0), (0, 0)), gen((0, 0), (0, 0, 0)), r"length-2 .* \(0, 0, 0\)"),
], ids=["sources", "identical", "sources_second", "level", "long_offset_level",
        "short_offset_sources", "long_offset_graded", "long_offset_lazy"])
def test_t_equal_names_a_foreign_generator(name, a, b, match):
    with pytest.raises(ValueError, match=match):
        t_equal(families.FAMILIES[name](), a, b)


def test_order_and_membership_name_an_offset_of_the_wrong_length(cycle4, grid2):
    u, u4 = gen("u", (0, 0, 0)), gen("u", (4, 0, 0))
    for ask in (lambda: t_leq(cycle4, u, u4), lambda: ideal_membership(cycle4, u, ["u"]),
                lambda: t_leq(grid2, gen((0, 0), (0, 0, 0)), gen((1, 0), (1, 0, 0))),
                lambda: ideal_membership(grid2, gen((0, 0), (0, 0, 0)), [(0, 0)])):
        with pytest.raises(ValueError, match=r"offset .* length-2 .* \(0, 0, 0\)"):
            ask()


def test_unknown_equality_names_both_routes(arrow):
    # u(0) = u(4, -4) on arrow, but six rewrite rounds do not connect them
    scan = replace(DEFAULT_BOUNDS, rewrite=6, node_cap=500)
    tri = t_equal(arrow, gen("u", (0, 0)), gen("u", (4, -4)), scan)
    assert tri.is_unknown
    assert "no trace with each lam_i in (-1, 2) separates them (monoid.TRACE_LAMBDAS)" in tri.note
    assert "no connection within 6 rounds" in tri.note

