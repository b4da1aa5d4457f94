import gc
import weakref
from dataclasses import replace
from itertools import islice, permutations

import pytest

from helpers import disjoint_union
from kgraphs import classify, families, kgraph, lattice, monoid
from kgraphs.classify import (count_line_point_classes, is_aperiodic,
                              is_cofinal, is_semisimple, is_strongly_aperiodic,
                              kp_report, line_points, socle_essential,
                              socle_vertices)
from kgraphs.kgraph import walk
from kgraphs.lattice import hereditary_closure
from kgraphs.monoid import DEFAULT_BOUNDS
from kgraphs.tri import Certificate, Tri, no, replay, yes


def verdicts(report):
    return {k: v.value for k, v in report.verdicts().items()}


def test_loop_pair_tail_report(loop_pair_tail):
    r = kp_report(loop_pair_tail, DEFAULT_BOUNDS)
    v = verdicts(r)
    assert v["cofinal"] == "yes"
    assert v["atomic"] == "yes"
    assert v["freeAction"] == "no"
    assert v["aperiodic"] == "no"
    assert v["gradedBasicIdealSimple"] == "yes"
    assert v["simple"] == "no"
    assert v["semisimple"] == "no"
    assert r.line_points == []
    assert r.periodic_witness is not None
    a, p = r.periodic_witness
    assert (sorted(dict(a.items)), p) == ([("u", (0, 0))], (1, 0))


def test_one_vertex_3x2_report(one_vertex_3x2):
    r = kp_report(one_vertex_3x2, DEFAULT_BOUNDS)
    v = verdicts(r)
    assert v["atomic"] == "no"
    assert v["freeAction"] == "yes"
    assert v["aperiodic"] == "yes"
    assert v["stronglyAperiodic"] == "yes"
    assert v["cofinal"] == "yes"
    assert v["simple"] == "yes"
    assert v["semisimple"] == "no"


def test_cycle4_report(cycle4):
    r = kp_report(cycle4, DEFAULT_BOUNDS)
    v = verdicts(r)
    assert v["atomic"] == "yes"
    assert v["freeAction"] == "no"
    assert v["aperiodic"] == "no"
    assert v["semisimple"] == "no"


def test_arrow_sources_withheld(arrow):
    r = kp_report(arrow, DEFAULT_BOUNDS)
    assert r.has_sources
    tri = r.aperiodic
    assert tri.is_unknown
    assert r.periodic_witness is not None
    _, p = r.periodic_witness
    assert p == (1, -1)


def test_looptail_not_cofinal(looptail):
    tri = is_cofinal(looptail)
    assert tri.is_no
    assert replay(looptail, tri)
    assert not is_strongly_aperiodic(looptail, DEFAULT_BOUNDS).is_yes


def test_strong_aperiodicity_quotients(looptail, one_vertex_3x2):
    tri = is_strongly_aperiodic(looptail, DEFAULT_BOUNDS)
    assert tri.is_no
    assert replay(looptail, tri)
    tri = is_strongly_aperiodic(one_vertex_3x2, DEFAULT_BOUNDS)
    assert tri.is_yes
    assert replay(one_vertex_3x2, tri)


def test_line_points_finite(monkeypatch, loop_pair_tail, cycle4):
    # orbits on finite graphs always revisit, so no line points exist and no
    # orbit is walked to find that out
    calls = _count_calls(monkeypatch, "leaf_orbit_collision", classify)
    assert line_points(loop_pair_tail, DEFAULT_BOUNDS) == []
    assert line_points(cycle4, DEFAULT_BOUNDS) == []
    assert calls == []
    assert socle_vertices(cycle4, DEFAULT_BOUNDS) == []
    assert socle_essential(cycle4, DEFAULT_BOUNDS).is_no


def test_grid_line_points(grid2):
    pts = line_points(grid2, DEFAULT_BOUNDS)
    samp = grid2.sample_vertices(DEFAULT_BOUNDS.sample_depth)
    assert set(pts) == set(samp)
    assert count_line_point_classes(grid2, DEFAULT_BOUNDS) == 1
    tri = socle_essential(grid2, DEFAULT_BOUNDS)
    assert tri.is_yes
    assert replay(grid2, tri)


def test_grid_semisimple(grid2):
    tri = is_semisimple(grid2, DEFAULT_BOUNDS)
    assert tri.is_yes
    assert replay(grid2, tri)


def test_bratteli_not_semisimple(bratteli):
    tri = is_semisimple(bratteli, DEFAULT_BOUNDS)
    assert tri.is_no
    assert replay(bratteli, tri)


def test_aperiodic_replays(loop_pair_tail, one_vertex_3x2, cycle4):
    for g in (loop_pair_tail, one_vertex_3x2, cycle4):
        tri = is_aperiodic(g, DEFAULT_BOUNDS)
        assert not tri.is_unknown
        assert replay(g, tri)


def test_forged_conjunction_needs_both_parts(cycle4):
    assert not replay(cycle4, yes(Certificate("conjunction", {"parts": ()})))


def test_forged_proper_hs_on_a_lazy_graph_is_rejected(grid2):
    assert not replay(grid2, no(Certificate("proper_hs", {"h": ((0, 0),)})))


def test_forged_quotients_aperiodic_needs_every_quotient(cycle4):
    assert not replay(cycle4, yes(Certificate("quotients_aperiodic", {"parts": ()})))


def test_forged_quotient_periodic_needs_a_hereditary_saturated_set(looptail):
    # looptail/{a} is periodic, but {a} is not hereditary: a sees b
    inner = is_aperiodic(kgraph.quotient_graph(looptail, {"a"}), DEFAULT_BOUNDS)
    assert inner.is_no
    forged = no(Certificate("quotient_periodic", {"h": ("a",), "inner": inner}))
    assert not replay(looptail, forged)


def test_report_verdicts_replay(loop_pair_tail, looptail):
    for g in (loop_pair_tail, looptail):
        r = kp_report(g, DEFAULT_BOUNDS)
        for name, tri in r.verdicts().items():
            assert replay(g, tri), (g.name, name)


def test_disjoint_union_not_cofinal():
    g = disjoint_union(families.one_vertex_3x2(), families.cycle_pullback())
    tri = is_cofinal(g)
    assert tri.is_no
    assert replay(g, tri)


def test_cofinality_is_decided_past_the_lattice_limit():
    # the one-vertex closures decide cofinality at any size; only listing
    # the lattice, and strong aperiodicity, stop at LATTICE_LIMIT
    g = families.finite_grid(2, (4, 4))  # 25 vertices
    cofinal = is_cofinal(g)
    assert cofinal.is_yes and cofinal.certificate.kind == "trivial_lattice"
    assert replay(g, cofinal)
    r = kp_report(g, DEFAULT_BOUNDS)
    assert r.cofinal.is_yes and r.lattice is None
    strong = is_strongly_aperiodic(g, DEFAULT_BOUNDS)
    assert strong.is_unknown and "20-vertex lattice limit" in strong.note


# ---------------------------------------------------------------------------
# structure kept on the graph, shared by reports, direct calls and replays


def _count_calls(monkeypatch, name, *modules):
    """Record the arguments of each call of ``name`` at its binding sites."""
    calls = []
    for mod in modules:
        real = getattr(mod, name)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return calls


class CountingStore(dict):
    """A graph store that records the name of each entry it computes."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def __setitem__(self, key, value):
        self.computed.append(key[0].__name__)
        super().__setitem__(key, value)


def _report_and_replays(g, bounds=DEFAULT_BOUNDS):
    r = kp_report(g, bounds)
    for name, tri in r.verdicts().items():
        assert replay(g, tri), (g.name, name)
    return r


@pytest.mark.parametrize("family, fact", [
    ("grid2", "leaves"), ("delta2", "leaves"), ("bratteli", "leaves"),
    ("cycle4", "all_hs_subsets"), ("arrow", "find_periodic_element")])
def test_report_and_replays_compute_each_structure_once(family, fact):
    g = families.FAMILIES[family]()
    store = g._store = CountingStore()
    _report_and_replays(g)
    assert store.computed.count(fact) == 1


@pytest.mark.parametrize("family, most", [
    ("fan3", 1), ("arrow", 1), ("grid2", 1), ("bratteli", 1),
    # strong aperiodicity takes the report's own verdict for H = {}, the graph itself
    ("cycle4", 1), ("one-vertex-3x2", 1)])
def test_report_decides_freeness_and_atomicity_once(monkeypatch, family, most):
    g = families.FAMILIES[family]()
    free = _count_calls(monkeypatch, "acts_freely", monoid, classify)
    atomic = _count_calls(monkeypatch, "is_atomic", monoid, classify)
    kp_report(g, DEFAULT_BOUNDS)
    for calls in (free, atomic):
        assert 1 <= len(calls) <= most
        # no copy of g is analysed, nor any proper quotient (there is none here)
        assert all(args[0] is g for args in calls)


@pytest.mark.parametrize("family", ["grid2", "delta2"])
def test_report_and_replays_keep_three_store_entries(family):
    # the sampled window, its leaves and the line points: nothing per atom
    g = families.FAMILIES[family]()
    _report_and_replays(g)
    assert sorted(key[0].__name__ for key in g._store) == \
        ["leaves", "line_points", "sample_vertices"]
    for radius in range(6):
        line_points(g, replace(DEFAULT_BOUNDS, offset_radius=radius))
    # one entry per new radius (the report kept radius 4)
    assert len(g._store) == 3 + 5


def test_report_tests_each_leaf_once(monkeypatch, grid2):
    singles = _count_calls(monkeypatch, "is_leaf", kgraph, monoid, classify)
    store = grid2._store = CountingStore()
    kp_report(grid2, DEFAULT_BOUNDS)
    sampled = grid2.sample_vertices(DEFAULT_BOUNDS.sample_depth)
    # one leaf analysis of the whole window, and no walk per vertex
    assert store.computed.count("leaves") == 1
    assert [key[1:] for key in store if key[0].__name__ == "leaves"] == \
        [(tuple(sampled), DEFAULT_BOUNDS.leaf_depth)]
    assert singles == []


def test_report_runs_one_periodic_search(monkeypatch, arrow):
    # arrow has sources and no graded trace, so the search still runs
    calls = _count_calls(monkeypatch, "t_equal", monoid, classify)
    store = arrow._store = CountingStore()
    r = kp_report(arrow, DEFAULT_BOUNDS)
    assert 0 < len(calls) <= monoid.PERIODIC_BUDGET
    assert store.computed.count("find_periodic_element") == 1
    assert r.free_action.is_no and r.periodic_witness is not None
    assert r.aperiodic.is_unknown


def test_fan3_report_certifies_freeness_by_a_trace(fan3):
    store = fan3._store = CountingStore()
    r = _report_and_replays(fan3)
    assert store.computed.count("find_periodic_element") == 0
    assert store.computed.count("graded_trace") == 1
    assert r.free_action.is_yes and r.free_action.certificate.kind == "free_trace"
    # aperiodicity stays withheld on a graph with sources
    assert r.aperiodic.is_unknown and r.periodic_witness is None


def test_atomic_closure_replays_add_no_store_entry(cycle4):
    r = _report_and_replays(cycle4)
    assert r.atomic.is_yes and r.atomic.certificate.kind == "atomic_closure"
    before = len(cycle4._store)
    lists = [list(p) for n in range(1, 5) for p in permutations(cycle4.vertices, n)]
    assert len(lists) == 64
    for claimed in lists:
        replay(cycle4, yes(Certificate("atomic_closure", {"leaves": claimed})))
    assert len(cycle4._store) == before


def test_report_enumerates_lattice_once(cycle4):
    store = cycle4._store = CountingStore()
    r = _report_and_replays(cycle4)
    assert lattice.all_hs_subsets(cycle4) == [frozenset(), frozenset(cycle4.vertices)]
    assert store.computed.count("all_hs_subsets") == 1
    assert r.lattice == [(), tuple(sorted(cycle4.vertices))]


def test_report_and_replays_build_the_semigroup_once(monkeypatch, cycle4, looptail):
    built = []
    real = lattice.BooleanReach.__init__

    def counted(self, graph):
        built.append(graph)
        real(self, graph)
    monkeypatch.setattr(lattice.BooleanReach, "__init__", counted)
    for g in (cycle4, looptail):
        r = kp_report(g, DEFAULT_BOUNDS)
        assert all(replay(g, tri) for tri in r.verdicts().values())
        # quotient graphs are graphs of their own, with their own semigroup
        assert sum(b is g for b in built) == 1, g.name


def test_lattice_and_kernel_certificates_replay_apart(cycle4, looptail,
                                                     loop_pair_tail):
    cofinal = is_cofinal(cycle4)
    assert cofinal.certificate.kind == "trivial_lattice" and replay(cycle4, cofinal)
    assert not replay(looptail, cofinal)  # {b} is a proper closed set there
    u = monoid.TElement.gen("u", (0, 0))
    unequal = monoid.t_equal(loop_pair_tail, u, u + u)
    assert unequal.certificate.kind == "kernel_stable"
    assert replay(loop_pair_tail, unequal)
    d = unequal.certificate.data
    for tampered in ({**d, "m": (1, 1)}, {**d, "b": monoid.TElement.gen("v", (0, 0))}):
        forged = no(Certificate("kernel_stable", tampered))
        assert not replay(loop_pair_tail, forged)


def test_report_structure_lives_with_the_graph(monkeypatch, grid2):
    store = grid2._store = CountingStore()
    first = kp_report(grid2, DEFAULT_BOUNDS)
    assert store.computed.count("leaves") == 1
    second = kp_report(grid2, DEFAULT_BOUNDS)
    assert store.computed.count("leaves") == 1  # read back, not recomputed
    assert verdicts(first) == verdicts(second)
    assert first.atom_vertices == second.atom_vertices
    assert first.atom_vertices is not second.atom_vertices
    assert families.grid(2)._store == {}  # another graph object, its own store

    def broken(graph):
        raise RuntimeError("classifier failed")
    monkeypatch.setattr(classify, "is_cofinal", broken)
    with pytest.raises(RuntimeError):
        kp_report(grid2, DEFAULT_BOUNDS)
    monkeypatch.undo()
    kept = dict(store)
    with pytest.raises(ValueError):  # a call that raises keeps nothing
        lattice.all_hs_subsets(grid2)
    assert store == kept
    assert verdicts(kp_report(grid2, DEFAULT_BOUNDS)) == verdicts(first)
    assert store.computed.count("leaves") == 1


def test_bounded_certificates_replay_at_their_own_depths(branching_chain):
    # vertex 0 is a leaf to depth 10 only, so the default leaf depth of 64
    # would reject what leaf depth 4 certified
    g = branching_chain
    bounds = replace(DEFAULT_BOUNDS, leaf_depth=4, sample_depth=0)
    atomic, essential = monoid.is_atomic(g, bounds), socle_essential(g, bounds)
    assert atomic.certificate.kind == "all_leaves_sampled"
    assert atomic.certificate.data["leaf_depth"] == 4
    assert essential.certificate.data["sample_depth"] == 0
    for tri in (atomic, essential):
        assert tri.is_yes and replay(g, tri)
    d = atomic.certificate.data
    assert not replay(g, yes(Certificate("all_leaves_sampled", {**d, "leaf_depth": 64})))
    none = monoid.is_atomic(g, replace(bounds, leaf_depth=64))
    assert none.certificate.kind == "no_atoms_sampled" and replay(g, none)
    assert not replay(g, no(Certificate("no_atoms_sampled",
                                        {**none.certificate.data, "leaf_depth": 4})))
    r = kp_report(g, bounds)
    for name, tri in r.verdicts().items():
        assert replay(g, tri), name


def test_socle_essential_without_line_points_does_not_walk(monkeypatch, bratteli):
    calls = _count_calls(monkeypatch, "near_targets", classify)
    tri = socle_essential(bratteli, DEFAULT_BOUNDS)
    assert tri.is_unknown and calls == []
    assert tri.note == "127 sampled vertices reach no sampled line point"


def test_fact_key_ignores_how_bounds_are_passed(cycle4):
    def entries(name):
        return [key for key in cycle4._store if key[0].__name__ == name]
    first = monoid.find_periodic_element(cycle4)
    assert monoid.find_periodic_element(cycle4, DEFAULT_BOUNDS) is first
    assert monoid.find_periodic_element(cycle4, bounds=DEFAULT_BOUNDS) is first
    assert len(entries("find_periodic_element")) == 1
    atoms = monoid.atoms(cycle4)
    assert monoid.atoms(cycle4, DEFAULT_BOUNDS) == atoms
    assert monoid.atoms(cycle4, bounds=DEFAULT_BOUNDS) is not atoms  # a fresh list
    verts = cycle4.sample_vertices(DEFAULT_BOUNDS.sample_depth)
    assert kgraph.leaves(cycle4, tuple(verts), DEFAULT_BOUNDS.leaf_depth) == atoms
    assert len(entries("leaves")) == 1  # a list argument is keyed as a tuple
    monoid.find_periodic_element(cycle4, replace(DEFAULT_BOUNDS, support=1))
    assert len(entries("find_periodic_element")) == 2


def test_direct_calls_after_a_report_agree_with_it(cycle4, grid2, arrow):
    for g in (cycle4, grid2, arrow):
        r = kp_report(g, DEFAULT_BOUNDS)
        assert verdicts(kp_report(g, DEFAULT_BOUNDS)) == verdicts(r)
        assert monoid.atoms(g, DEFAULT_BOUNDS) == r.atom_vertices
        assert line_points(g, DEFAULT_BOUNDS) == r.line_points
        assert monoid.is_atomic(g, DEFAULT_BOUNDS) == r.atomic
        assert monoid.acts_freely(g, DEFAULT_BOUNDS) == r.free_action
        assert is_semisimple(g, DEFAULT_BOUNDS) == r.semisimple


def test_store_keeps_structure_never_a_verdict():
    def holds_a_verdict(x):
        if isinstance(x, Tri):
            return True
        if isinstance(x, dict):
            return any(map(holds_a_verdict, (*x.keys(), *x.values())))
        if isinstance(x, (tuple, list, set, frozenset)):
            return any(map(holds_a_verdict, x))
        return hasattr(x, "__dict__") and holds_a_verdict(vars(x))
    for name, make in families.FAMILIES.items():
        g = make()
        _report_and_replays(g)
        assert g._store, name
        assert not any(map(holds_a_verdict, g._store.values())), name
        # no kept value refers back to the graph: released, it is freed at once
        ref = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert ref() is None, name
        finally:
            gc.enable()


def test_atomic_report_keeps_its_leaf_list(loop_pair_tail):
    r = kp_report(loop_pair_tail, DEFAULT_BOUNDS)
    leaves = r.atomic.certificate.data["leaves"]
    assert r.atom_vertices == leaves and r.atom_vertices is not leaves


# ---------------------------------------------------------------------------
# the reachability walk


def _closure_by_stack(g, xs, universe=None):
    """Reference: the depth-first closure loop ``walk`` replaced."""
    out = set(xs)
    stack = list(out)
    while stack:
        v = stack.pop()
        for i in range(g.k):
            for e in g.out_edges(v, i):
                if (universe is None or e.source in universe) and e.source not in out:
                    out.add(e.source)
                    stack.append(e.source)
    return out


def _window_by_layers(g, depth):
    """Reference: the layered sampling loop ``walk`` replaced."""
    seen = dict.fromkeys(g.roots)
    frontier = list(seen)
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for i in range(g.k):
                for e in g.out_edges(v, i):
                    if e.source not in seen:
                        seen[e.source] = None
                        nxt.append(e.source)
        frontier = nxt
    return list(seen)


def test_walk_matches_reference_on_finite_families():
    for name, make in families.FAMILIES.items():
        g = make()
        if g.is_lazy:
            continue
        for v in g.vertices:
            assert set(walk(g, [v])) == _closure_by_stack(g, {v}), (name, v)
            assert hereditary_closure(g, {v}) == _closure_by_stack(g, {v})
        assert set(walk(g, g.vertices)) == set(g.vertices)


def test_walk_matches_reference_on_lazy_windows(grid2, bratteli):
    for g in (grid2, bratteli):
        for depth in range(5):
            assert list(walk(g, g.roots, depth)) == _window_by_layers(g, depth)
            assert g.sample_vertices(depth) == _window_by_layers(g, depth)
        window = set(g.sample_vertices(3))
        for v in window:
            assert set(walk(g, [v], within=window)) == _closure_by_stack(g, {v}, window)


def test_walk_stops_with_its_consumer(monkeypatch, bratteli):
    calls = _count_calls(monkeypatch, "out_edges", bratteli)
    first = list(islice(walk(bratteli, bratteli.roots), 5))
    assert len(first) == 5
    assert len(calls) <= 5 * bratteli.k  # an unbounded walk, cut at 5 vertices
