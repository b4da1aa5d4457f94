"""Structure classifiers: cofinality, aperiodicity, line points, the socle,
and the semisimplicity report.

Everything returns three-valued verdicts with replayable certificates.  The
exact routes rest on structural equivalences: cofinality is triviality of
the hereditary saturated lattice; on atomic graphs aperiodicity is
equivalent to freeness of the shift action, whose failure is witnessed by a
periodic atom; a free action forces aperiodicity on any graph without
sources; and semisimplicity is atomicity together with freeness, which on a
finite graph without sources always fails by pigeonhole (leaf orbits must
revisit a vertex).  So :func:`kp_report` decides freeness and atomicity
once and derives both; of the quotients strong aperiodicity asks about,
the one by the empty set is the graph itself, whose verdict it reuses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .kgraph import (VertexId, bfs, graph_fact, is_leaf, near_targets,
                     quotient_graph, single_sources, validate)
from .lattice import (LATTICE_LIMIT, SemigroupCapExceeded, all_hs_subsets,
                      is_hereditary, is_saturated, proper_vertex_closures,
                      saturated_hereditary_closure)
from .monoid import (Bounds, DEFAULT_BOUNDS, TElement, act, acts_freely, atoms,
                     is_atomic, leaf_orbit_collision, t_equal)
from .tri import NO, YES, Certificate, Tri, no, register_replayer, replay, unknown, yes


def is_cofinal(graph) -> Tri:
    """Is the hereditary saturated lattice trivial ({empty, everything})?

    Decided from the |V| one-vertex closures, at any size; a "no" names the
    smallest proper hereditary saturated set.
    """
    if graph.is_lazy:
        return unknown("cofinality needs a finite graph")
    try:
        proper = proper_vertex_closures(graph)
    except SemigroupCapExceeded as exc:
        return unknown(f"cofinality: {exc}")
    if proper:
        return no(Certificate("proper_hs", {"h": tuple(sorted(proper[0], key=repr))}))
    return yes(Certificate("trivial_lattice", {}))


@graph_fact
def line_points(graph, bounds: Bounds = DEFAULT_BOUNDS) -> List[VertexId]:
    """Leaves whose orbit never revisits a vertex.

    On a finite graph the orbit of any leaf revisits by pigeonhole, so there
    are none and nothing is walked.  On lazy graphs the revisit check is
    bounded by the offset box (bounded inclusion).
    """
    if not graph.is_lazy:
        return []
    return [v for v in atoms(graph, bounds)
            if leaf_orbit_collision(graph, v, bounds.offset_radius) is None]


def count_line_point_classes(graph, bounds: Bounds = DEFAULT_BOUNDS) -> int:
    """Line points up to orbit equivalence (orbits sharing a vertex).

    Each orbit is the ball of ``2 * bounds.sample_depth`` edges around a
    line point; every vertex in it must be a leaf vertex (one out-edge per
    color), else ValueError.  The orbits overlap, so each vertex's out-edges
    are read once for all of them.
    """
    pts = line_points(graph, bounds)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sources = functools.cache(lambda w: single_sources(graph, w))
    owner: Dict[Any, int] = {}
    for i, v in enumerate(pts):
        for w in bfs([v], sources, 2 * bounds.sample_depth):
            if sources(w) is None:  # checked before bfs expands w
                raise ValueError(f"{v!r} is not a leaf")
            if w in owner:
                parent[find(i)] = find(owner[w])
            else:
                owner[w] = i
    return len({find(i) for i in range(len(pts))})


def socle_vertices(graph, bounds: Bounds = DEFAULT_BOUNDS) -> List[VertexId]:
    """The hereditary saturated closure of the line points."""
    pts = line_points(graph, bounds)
    if not pts:
        return []
    closure = saturated_hereditary_closure(graph, pts, depth=bounds.sample_depth)
    return sorted(closure, key=repr)


def socle_essential(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Does every vertex reach a line point along some path?

    Never on a finite graph, which has no line points (see
    :func:`line_points`).  On a lazy graph: does every sampled vertex reach
    a line point of the window within ``bounds.sample_depth`` edges (a
    bounded verdict, whose certificate records the bounds it was reached at).
    """
    verts = graph.sample_vertices(bounds.sample_depth)
    if not verts:
        return unknown("no vertices to check")
    if not graph.is_lazy:
        return no(Certificate("socle_gap", {"witness": verts[0]}))
    pts = set(line_points(graph, bounds))
    missing = verts
    if pts:
        def successors(w):
            if w in pts:
                return None
            return [e.source for i in range(graph.k) for e in graph.out_edges(w, i)]
        near = near_targets(verts, successors, bounds.sample_depth)
        missing = [v for v in verts if v not in near]
    if missing:
        return unknown(f"{len(missing)} sampled vertices reach no sampled line point")
    return yes(Certificate("socle_essential",
                           {"bounded": True, "sample_depth": bounds.sample_depth,
                            "leaf_depth": bounds.leaf_depth,
                            "offset_radius": bounds.offset_radius}),
               note="bounded verdict")


def is_aperiodic(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Does some boundary path through every vertex avoid all periodicities?

    Exact on finite graphs without sources whenever the monoid is atomic
    (aperiodicity is then equivalent to a free shift action); a free action
    certifies yes on any graph without sources; graphs with sources get an
    unknown because the level/orbit machinery loses its footing there.
    """
    return _aperiodic(graph, acts_freely(graph, bounds),
                      functools.partial(is_atomic, graph, bounds))


def _aperiodic(graph, free: Tri, atomic: Callable[[], Tri]) -> Tri:
    """Aperiodicity derived from the freeness verdict ``free`` and, where
    freeness alone does not settle it, the atomicity verdict ``atomic()``."""
    if not graph.is_lazy and graph.has_sources():
        note = "graph has sources: aperiodicity verdict withheld"
        if free.is_no:  # only the periodic search decides on a graph with sources
            d = free.certificate.data
            note += (f"; periodic element {d['element']!r} with period "
                     f"{d['period']} exists in the monoid")
        return unknown(note)
    if free.is_yes:
        return yes(Certificate("free_action", {"inner": free}),
                   note="a free shift action forces aperiodicity")
    if atomic().is_yes and not graph.is_lazy:
        if free.is_no and free.certificate.kind == "periodic_pair":
            d = free.certificate.data
            return no(Certificate("periodic_atom",
                                  {"element": d["element"], "period": d["period"]}))
        return unknown("atomic graph but freeness undecided")
    if free.is_no:
        return unknown("a periodic element exists but the monoid is not known "
                       "to be atomic, which leaves aperiodicity open")
    return unknown("no decisive route within bounds")


def _proper_hs_sets(graph) -> List[Tuple[VertexId, ...]]:
    """The hereditary saturated sets other than V, each sorted, in the order
    of ``all_hs_subsets``; ValueError on a lazy graph or past the limit."""
    return [tuple(sorted(h, key=repr)) for h in all_hs_subsets(graph)
            if h != frozenset(graph.vertices)]


def is_strongly_aperiodic(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Is every quotient by a proper hereditary saturated set aperiodic?"""
    return _strongly_aperiodic(graph, bounds, functools.partial(is_aperiodic, graph, bounds))


def _strongly_aperiodic(graph, bounds: Bounds, own: Callable[[], Tri]) -> Tri:
    """Strong aperiodicity, with ``own()`` the aperiodicity verdict of the
    quotient by the empty set, which is the graph itself."""
    if graph.is_lazy or len(graph.vertices) > LATTICE_LIMIT:
        return unknown(f"strong aperiodicity needs a finite graph in the {LATTICE_LIMIT}-vertex lattice limit")
    try:
        subsets = _proper_hs_sets(graph)
    except SemigroupCapExceeded as exc:
        return unknown(f"strong aperiodicity: {exc}")
    parts = []
    for h in subsets:
        verdict = is_aperiodic(quotient_graph(graph, h), bounds) if h else own()
        if verdict.is_no:
            return no(Certificate("quotient_periodic", {"h": h, "inner": verdict}))
        parts.append((h, verdict))
    if all(v.is_yes for _, v in parts):
        return yes(Certificate("quotients_aperiodic", {"parts": tuple(parts)}))
    return unknown("some quotient verdict is unknown")


def is_semisimple(graph, bounds: Bounds = DEFAULT_BOUNDS) -> Tri:
    """Atomicity together with a free action.

    On a finite graph without sources this is always no: leaves force orbit
    revisits (not free) and their absence kills atomicity.
    """
    return _semisimple(is_atomic(graph, bounds), acts_freely(graph, bounds))


def _semisimple(atomic: Tri, free: Tri) -> Tri:
    return _tri_and(atomic, free, ("atomic", "freeAction"), "atomicity or freeness undecided")


# ---------------------------------------------------------------------------
# report


@dataclass
class ClassificationReport:
    """Everything the report command prints, verdicts plus witnesses."""

    name: str
    rank: int
    has_sources: bool
    cofinal: Tri
    atomic: Tri
    free_action: Tri
    aperiodic: Tri
    strongly_aperiodic: Tri
    graded_basic_ideal_simple: Tri
    simple: Tri
    semisimple: Tri
    line_points: List[VertexId]
    line_point_classes: int
    socle: List[VertexId]
    socle_essential: Tri
    atom_vertices: List[VertexId]
    periodic_witness: Optional[Tuple[TElement, Tuple[int, ...]]]
    lattice: Optional[List[Tuple[VertexId, ...]]]
    warnings: List[str] = field(default_factory=list)

    def verdicts(self) -> Dict[str, Tri]:
        return {"cofinal": self.cofinal, "atomic": self.atomic,
                "freeAction": self.free_action, "aperiodic": self.aperiodic,
                "stronglyAperiodic": self.strongly_aperiodic,
                "gradedBasicIdealSimple": self.graded_basic_ideal_simple,
                "simple": self.simple, "semisimple": self.semisimple,
                "socleEssential": self.socle_essential}


# the certificate kinds that decide each property a derived certificate
# names in its ``of`` field, yes and no alike
CERTIFYING_KINDS = {
    "cofinal": {"trivial_lattice", "proper_hs"},
    "aperiodic": {"free_action", "periodic_atom"},
    "atomic": {"atomic_closure", "not_atomic", "all_leaves_sampled", "no_atoms_sampled"},
    "freeAction": {"graded_translation", "free_multiplicative", "free_trace", "periodic_pair"},
}


def _certifies(graph, part: Tri, prop: str, value: str) -> bool:
    """Is ``part`` a ``value`` verdict on ``prop`` that replays?"""
    return (part.value == value and part.certificate is not None
            and part.certificate.kind in CERTIFYING_KINDS.get(prop, ())
            and replay(graph, part))


def _tri_and(a: Tri, b: Tri, of: Tuple[str, str],
             undecided: str = "conjunct undecided") -> Tri:
    """a and b, verdicts on the properties ``of``; bounded if a part is."""
    for part, prop in zip((a, b), of):
        if part.is_no:
            return no(Certificate("conjunction_fail", {"part": part, "of": prop}))
    if a.is_yes and b.is_yes:
        bounded = any(p.certificate.data.get("bounded") for p in (a, b))
        return yes(Certificate("conjunction", {"parts": (a, b), "of": of}),
                   note="bounded verdict" if bounded else "")
    return unknown(undecided)


def kp_report(graph, bounds: Bounds = DEFAULT_BOUNDS) -> ClassificationReport:
    """The full classification summary for one graph, aperiodicity and
    semisimplicity derived from its one freeness and atomicity verdicts; the
    structure the classifiers share is kept on the graph (``graph_fact``)."""
    warnings: List[str] = []
    has_src = False
    if not graph.is_lazy:
        rep = validate(graph)
        warnings.extend(rep.warnings)
        has_src = rep.has_sources
    cofinal = is_cofinal(graph)
    atomic = is_atomic(graph, bounds)
    free = acts_freely(graph, bounds)
    aper = _aperiodic(graph, free, lambda: atomic)
    strong = unknown("not computed") if graph.is_lazy or has_src \
        else _strongly_aperiodic(graph, bounds, lambda: aper)
    simple = _tri_and(cofinal, aper, ("cofinal", "aperiodic"))
    semi = _semisimple(atomic, free)
    try:
        pts = line_points(graph, bounds)
        classes = count_line_point_classes(graph, bounds)
        soc = socle_vertices(graph, bounds)
        ess = socle_essential(graph, bounds)
    except ValueError:
        pts, classes, soc = [], 0, []
        ess = unknown("line point scan failed")
    witness = None
    if free.is_no and free.certificate.kind == "periodic_pair":
        d = free.certificate.data
        witness = (d["element"], tuple(d["period"]))
    lattice_sets = None
    if not cofinal.is_unknown and len(graph.vertices) <= LATTICE_LIMIT:
        lattice_sets = [tuple(sorted(h, key=repr)) for h in all_hs_subsets(graph)]
    return ClassificationReport(
        name=getattr(graph, "name", ""), rank=graph.k, has_sources=has_src,
        cofinal=cofinal, atomic=atomic, free_action=free, aperiodic=aper,
        strongly_aperiodic=strong, graded_basic_ideal_simple=cofinal,
        simple=simple, semisimple=semi, line_points=pts,
        line_point_classes=classes, socle=soc, socle_essential=ess,
        atom_vertices=list(atoms(graph, bounds)), periodic_witness=witness,
        lattice=lattice_sets, warnings=warnings)


# ---------------------------------------------------------------------------
# certificate replay


@register_replayer("trivial_lattice", YES)
def _replay_trivial_lattice(graph, tri: Tri) -> bool:
    return not graph.is_lazy and not proper_vertex_closures(graph)


@register_replayer("proper_hs", NO)
def _replay_proper_hs(graph, tri: Tri) -> bool:
    h = set(tri.certificate.data["h"])
    return bool(h) and is_hereditary(graph, h) and h != set(graph.vertices) \
        and is_saturated(graph, h)


@register_replayer("free_action", YES)
def _replay_free_action(graph, tri: Tri) -> bool:
    return (graph.is_lazy or not graph.has_sources()) and \
        _certifies(graph, tri.certificate.data["inner"], "freeAction", YES)


@register_replayer("periodic_atom", NO)
def _replay_periodic_atom(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    a, p = d["element"], tuple(d["period"])
    if len(a.items) != 1 or len(p) != graph.k or not any(p):
        return False
    (v, _), _ = a.items[0]
    if not is_leaf(graph, v).is_yes:
        return False
    if not t_equal(graph, a, act(p, a)).is_yes:
        return False
    return is_atomic(graph).is_yes


@register_replayer("quotient_periodic", NO)
def _replay_quotient_periodic(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return tuple(d["h"]) in _proper_hs_sets(graph) and \
        _certifies(quotient_graph(graph, set(d["h"])), d["inner"], "aperiodic", NO)


@register_replayer("quotients_aperiodic", YES)
def _replay_quotients_aperiodic(graph, tri: Tri) -> bool:
    parts = tri.certificate.data["parts"]
    return [h for h, _ in parts] == _proper_hs_sets(graph) and all(
        _certifies(quotient_graph(graph, set(h)), verdict, "aperiodic", YES)
        for h, verdict in parts)


@register_replayer("conjunction", YES)
def _replay_conjunction(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    parts, of = d["parts"], d.get("of", ())
    return len(parts) == len(of) == 2 and all(
        _certifies(graph, p, prop, YES) for p, prop in zip(parts, of))


@register_replayer("conjunction_fail", NO)
def _replay_conjunction_fail(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    return _certifies(graph, d["part"], d.get("of"), NO)


@register_replayer("socle_essential", YES)
def _replay_socle_essential(graph, tri: Tri) -> bool:
    d = tri.certificate.data
    if not graph.is_lazy:
        return False
    bounds = replace(DEFAULT_BOUNDS, sample_depth=d["sample_depth"],
                     leaf_depth=d["leaf_depth"], offset_radius=d["offset_radius"])
    return socle_essential(graph, bounds).is_yes


@register_replayer("socle_gap", NO)
def _replay_socle_gap(graph, tri: Tri) -> bool:
    return socle_essential(graph).is_no
