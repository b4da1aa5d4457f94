"""Serialization: graph documents (JSON), report documents, element syntax,
and DOT export.

A graph document is JSON with fields ``format_version``, ``k``, ``vertices``
(strings), ``edges`` (objects with id/color/range/source) and ``squares``
(objects with lo/hi edge-id pairs).  Elements are written ``v(n1,...,nk)``
with an optional ``*coeff``, joined by ``+``.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .kgraph import Edge, KGraph, Square
from .monoid import TElement

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Raised when a document or element string does not parse."""


# ---------------------------------------------------------------------------
# graph documents


def graph_to_document(graph: KGraph) -> Dict[str, Any]:
    if graph.is_lazy:
        raise ParseError("lazy graphs have no finite document form")
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "k": graph.k,
        "vertices": [_fmt_id(v) for v in graph.vertices],
        "edges": [{"id": _fmt_id(e.id), "color": e.color,
                   "range": _fmt_id(e.range), "source": _fmt_id(e.source)}
                  for e in graph.edges],
        "squares": [{"lo": [_fmt_id(s.lo[0]), _fmt_id(s.lo[1])],
                     "hi": [_fmt_id(s.hi[0]), _fmt_id(s.hi[1])]}
                    for s in graph.squares],
    }


def _fmt_id(x: Any) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return "|".join(_fmt_id(p) for p in x)
    return str(x)


def graph_from_document(doc: Dict[str, Any]) -> KGraph:
    try:
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {version!r}")
        k = int(doc["k"])
        if k < 1:
            raise ParseError("k must be positive")
        vertices = [str(v) for v in doc["vertices"]]
        edges = []
        for e in doc["edges"]:
            color = int(e["color"])
            if not 0 <= color < k:
                raise ParseError(f"edge {e['id']!r} has color {color} "
                                 f"outside 0..{k - 1}")
            for end in ("range", "source"):
                if str(e[end]) not in set(vertices):
                    raise ParseError(f"edge {e['id']!r} {end} {e[end]!r} "
                                     "is not a vertex")
            edges.append(Edge(str(e["id"]), color, str(e["range"]),
                              str(e["source"])))
        ids = {e.id for e in edges}
        squares = []
        for s in doc["squares"]:
            lo, hi = tuple(map(str, s["lo"])), tuple(map(str, s["hi"]))
            if len(lo) != 2 or len(hi) != 2:
                raise ParseError(f"square {s!r} needs two edge ids on each side")
            for eid in lo + hi:
                if eid not in ids:
                    raise ParseError(f"square references unknown edge {eid!r}")
            squares.append(Square(lo, hi))
        return KGraph(k, vertices, edges, squares, name=str(doc.get("name", "")))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # duplicate ids included
        raise ParseError(f"malformed graph document: {exc}") from exc


def dump_graph(graph: KGraph) -> str:
    return json.dumps(graph_to_document(graph), indent=2, sort_keys=False)


def load_graph(text: str) -> KGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    return graph_from_document(doc)


# ---------------------------------------------------------------------------
# element syntax

_TERM = re.compile(r"^\s*(?P<v>[^()+*\s]+)\s*"
                   r"\(\s*(?P<vec>-?\d+(?:\s*,\s*-?\d+)*)\s*\)\s*"
                   r"(?:\*\s*(?P<c>\d+)\s*)?$")


def parse_element(text: str, k: int) -> TElement:
    """Parse ``v(n1,...,nk)*coeff + ...``; ``0`` denotes the zero element."""
    if text.strip() == "0":
        return TElement.zero()
    pairs: List[Tuple[Tuple[str, Tuple[int, ...]], int]] = []
    for term in text.split("+"):
        m = _TERM.match(term)
        if not m:
            raise ParseError(f"bad element term {term.strip()!r}")
        vec = tuple(int(x) for x in m.group("vec").split(","))
        if len(vec) != k:
            raise ParseError(f"term {term.strip()!r} has a degree of length "
                             f"{len(vec)}, expected {k}")
        coeff = int(m.group("c") or 1)
        if coeff < 1:
            raise ParseError(f"term {term.strip()!r} has coefficient < 1")
        pairs.append(((m.group("v"), vec), coeff))
    return TElement.from_pairs(pairs)


def format_element(a: TElement) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for (v, n), c in a.items:
        term = f"{_fmt_id(v)}({','.join(map(str, n))})"
        if c != 1:
            term += f"*{c}"
        parts.append(term)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# report documents


@dataclass
class ReportDocument:
    """Serializable classification report: verdicts with certificates,
    the bounds used, and per-property timings."""

    format_version: int
    graph: str
    rank: int
    has_sources: bool
    properties: Dict[str, Dict[str, Any]]
    bounds: Dict[str, int]
    timings: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ReportDocument":
        try:
            doc = json.loads(text)
            return cls(**doc)
        except (json.JSONDecodeError, TypeError) as exc:
            raise ParseError(f"bad report document: {exc}") from exc


def report_to_document(report, bounds, timings: Optional[Dict[str, float]] = None
                       ) -> ReportDocument:
    """Flatten a classification report into its document form."""
    props = {}
    for name, tri in report.verdicts().items():
        entry: Dict[str, Any] = {"verdict": tri.value}
        if tri.certificate is not None:
            entry["certificate"] = tri.certificate.kind
            entry["certificate_data"] = {k: repr(v)
                                         for k, v in tri.certificate.data.items()}
        if tri.note:
            entry["note"] = tri.note
        props[name] = entry
    extras: Dict[str, Any] = {
        "atoms": [_fmt_id(v) for v in report.atom_vertices],
        "linePoints": [_fmt_id(v) for v in report.line_points],
        "linePointClasses": report.line_point_classes,
        "socle": [_fmt_id(v) for v in report.socle],
    }
    if report.periodic_witness is not None:
        a, p = report.periodic_witness
        extras["periodicWitness"] = {"element": format_element(a),
                                     "period": list(p)}
    if report.lattice is not None:
        extras["lattice"] = [sorted(_fmt_id(v) for v in h)
                             for h in report.lattice]
    return ReportDocument(
        format_version=FORMAT_VERSION,
        graph=report.name,
        rank=report.rank,
        has_sources=report.has_sources,
        properties=props,
        bounds={f.name: getattr(bounds, f.name)
                for f in bounds.__dataclass_fields__.values()},
        timings=timings or {},
        extras=extras,
        warnings=list(report.warnings),
    )


# ---------------------------------------------------------------------------
# DOT export

_DOT_COLORS = ["blue", "red", "darkgreen", "orange", "purple", "brown"]


def to_dot(graph: KGraph) -> str:
    """A DOT digraph; arrows point range -> source and carry the color
    index as an attribute."""
    lines = [f'digraph "{graph.name or "kgraph"}" {{']
    for v in graph.vertices:
        lines.append(f'  "{_fmt_id(v)}";')
    for e in graph.edges:
        style = _DOT_COLORS[e.color % len(_DOT_COLORS)]
        lines.append(f'  "{_fmt_id(e.range)}" -> "{_fmt_id(e.source)}" '
                     f'[label="{_fmt_id(e.id)}", color={style}, '
                     f'colorindex={e.color}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
