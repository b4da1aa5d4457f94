from kgraphs import families
from kgraphs.classify import (count_line_point_classes, is_aperiodic,
                              is_cofinal, is_semisimple, is_strongly_aperiodic,
                              kp_report, line_points, socle_essential,
                              socle_vertices)
from kgraphs.monoid import DEFAULT_BOUNDS
from kgraphs.tri import replay


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


def test_line_points_finite(loop_pair_tail, cycle4):
    # orbits on finite graphs always revisit, so no line points exist
    assert line_points(loop_pair_tail, DEFAULT_BOUNDS) == []
    assert line_points(cycle4, DEFAULT_BOUNDS) == []
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


def test_report_verdicts_replay(loop_pair_tail, looptail):
    for g in (loop_pair_tail, looptail):
        r = kp_report(g, DEFAULT_BOUNDS)
        for name, tri in r.verdicts().items():
            assert replay(g, tri), (g.name, name)


def test_disjoint_union_not_cofinal():
    g = families.disjoint_union(families.one_vertex_3x2(),
                                families.cycle_pullback())
    tri = is_cofinal(g)
    assert tri.is_no
    assert replay(g, tri)


def test_lattice_limit_gives_unknown():
    g = families.finite_grid(2, (4, 4))  # 25 vertices
    for tri in (is_cofinal(g), is_strongly_aperiodic(g, DEFAULT_BOUNDS)):
        assert tri.is_unknown and "20-vertex lattice limit" in tri.note
