"""Command line interface.

Commands: validate, eq, classify, gen, export-dot, lattice, closure,
linepoints.  Structured output (``--format structured``) is a single JSON
document on stdout; logs and errors go to stderr.

Exit codes: 0 ok/yes, 1 parse or usage error, 2 invalid graph, 3 no,
4 unknown, 5 unknown under ``--strict``.

Default search bounds may be overridden by environment variables named
``KGRAPHS_<FIELD>`` (e.g. ``KGRAPHS_REWRITE=32``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

from . import classify, docio, families, lattice
from .kgraph import KGraph, validate
from .monoid import DEFAULT_BOUNDS, Bounds, TElement, t_equal

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NO = 3
EXIT_UNKNOWN = 4
EXIT_STRICT_UNKNOWN = 5


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(payload: Dict[str, Any], fmt: str, text_lines: List[str]) -> None:
    if fmt == "structured":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _count(raw: str) -> int:
    """A nonnegative integer, the one form every bound and depth takes."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {raw!r}")
    return int(raw)


def bounds_from_env(base: Bounds = DEFAULT_BOUNDS) -> Bounds:
    """``base`` with KGRAPHS_<FIELD> overrides; a value that is not a
    nonnegative integer is a parse error."""
    overrides = {}
    for f in base.__dataclass_fields__:
        name = f"KGRAPHS_{f.upper()}"
        raw = os.environ.get(name)
        if raw is not None:
            try:
                overrides[f] = _count(raw)
            except argparse.ArgumentTypeError as exc:
                raise docio.ParseError(f"{name} {exc}") from None
    return replace(base, **overrides) if overrides else base


def _load(path: str) -> KGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return docio.load_graph(fh.read())


class InvalidGraph(Exception):
    """A graph document that parses but is not a k-graph."""


def _resolve_graph(path: str):
    """A file path, or the name of a built-in family (lazy ones included).
    A document that ``validate`` rejects raises :class:`InvalidGraph`."""
    if path in families.FAMILIES:
        return families.FAMILIES[path]()
    g = _load(path)
    errors = validate(g).errors
    if errors:
        raise InvalidGraph("; ".join(errors))
    return g


def _vertex_ids(g, names: List[str], depth: int) -> List[Any]:
    """Vertex ids by printed name, looked up over the sampled window of a
    lazy graph; an unknown name is a parse error."""
    known = {docio._fmt_id(v): v for v in g.sample_vertices(depth)}
    for name in names:
        if name not in known:
            raise docio.ParseError(f"unknown vertex {name!r}")
    return [known[name] for name in names]


def _parse_element(g, text: str, depth: int) -> TElement:
    a = docio.parse_element(text, g.k)
    ids = _vertex_ids(g, [v for (v, _), _ in a.items], depth)
    return TElement.from_pairs([((u, n), c) for u, ((_, n), c) in zip(ids, a.items)])


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    g = _load(args.graph)
    rep = validate(g)
    payload = {"ok": rep.ok, "errors": rep.errors, "warnings": rep.warnings,
               "hasSources": rep.has_sources, "rank": rep.rank,
               "vertices": rep.n_vertices, "edges": rep.n_edges}
    lines = [f"{'valid' if rep.ok else 'INVALID'}: rank {rep.rank}, "
             f"{rep.n_vertices} vertices, {rep.n_edges} edges"]
    lines += [f"error: {e}" for e in rep.errors]
    lines += [f"warning: {w}" for w in rep.warnings]
    _emit(payload, args.format, lines)
    return EXIT_OK if rep.ok else EXIT_INVALID


def cmd_eq(args) -> int:
    bounds = bounds_from_env()
    g = _resolve_graph(args.graph)
    a = _parse_element(g, args.a, bounds.sample_depth)
    b = _parse_element(g, args.b, bounds.sample_depth)
    if args.bound is not None:
        bounds = replace(bounds, rewrite=args.bound, push=args.bound)
    tri = t_equal(g, a, b, bounds=bounds)
    cert = tri.certificate.kind if tri.certificate else None
    payload = {"verdict": tri.value, "certificate": cert, "note": tri.note}
    _emit(payload, args.format,
          [f"{tri.value.capitalize()}"
           + (f" [{cert}]" if cert else "")
           + (f" ({tri.note})" if tri.note else "")])
    return {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[tri.value]


def cmd_classify(args) -> int:
    bounds = bounds_from_env()
    g = _resolve_graph(args.graph)
    if args.depth is not None:
        bounds = replace(bounds, sample_depth=args.depth)
    if args.bound is not None:
        bounds = replace(bounds, rewrite=args.bound, push=args.bound)
    t0 = time.perf_counter()
    report = classify.kp_report(g, bounds)
    doc = docio.report_to_document(report, bounds,
                                   {"total": time.perf_counter() - t0})
    if args.format == "structured":
        print(doc.to_json())
    else:
        print(f"graph {doc.graph or args.graph}: rank {doc.rank}"
              + (", has sources" if doc.has_sources else ""))
        for name, entry in doc.properties.items():
            line = f"  {name}: {entry['verdict']}"
            if entry.get("certificate"):
                line += f" [{entry['certificate']}]"
            if entry.get("note"):
                line += f" ({entry['note']})"
            print(line)
        for w in doc.warnings:
            print(f"  warning: {w}")
    if args.strict and any(e["verdict"] == "unknown"
                           for e in doc.properties.values()):
        return EXIT_STRICT_UNKNOWN
    return EXIT_OK


def cmd_gen(args) -> int:
    fn = families.FAMILIES.get(args.family)
    if fn is None:
        _log(f"unknown family {args.family!r}; known: "
             + ", ".join(sorted(families.FAMILIES)))
        return EXIT_PARSE
    g = fn()
    if getattr(g, "is_lazy", False):
        _log(f"family {args.family!r} is infinite and has no document form")
        return EXIT_PARSE
    text = docio.dump_graph(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _log(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    g = _resolve_graph(args.graph)
    if getattr(g, "is_lazy", False):
        _log("cannot export an infinite graph")
        return EXIT_PARSE
    text = docio.to_dot(g)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _log(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_lattice(args) -> int:
    g = _resolve_graph(args.graph)
    try:
        sets = lattice.all_hs_subsets(g)
    except ValueError as exc:  # a lazy family, or more than LATTICE_LIMIT vertices
        _log(str(exc) if g.is_lazy else f"unknown: {exc}")
        return EXIT_PARSE if g.is_lazy else EXIT_UNKNOWN
    listed = [sorted(docio._fmt_id(v) for v in h) for h in sets]
    _emit({"count": len(sets), "sets": listed}, args.format,
          [f"{len(sets)} hereditary saturated sets:"]
          + ["  {" + ", ".join(h) + "}" for h in listed])
    return EXIT_OK


def cmd_closure(args) -> int:
    g = _resolve_graph(args.graph)
    seeds = _vertex_ids(g, args.vertices, args.depth)
    closure = lattice.saturated_hereditary_closure(g, seeds, depth=args.depth)
    listed = sorted(docio._fmt_id(v) for v in closure)
    _emit({"closure": listed, "truncated": bool(g.is_lazy)}, args.format,
          ["{" + ", ".join(listed) + "}"
           + (" (truncated to the sampled window)" if g.is_lazy else "")])
    return EXIT_OK


def cmd_linepoints(args) -> int:
    bounds = bounds_from_env()
    g = _resolve_graph(args.graph)
    if args.depth is not None:
        bounds = replace(bounds, sample_depth=args.depth)
    try:
        points = classify.line_points(g, bounds)
        classes = classify.count_line_point_classes(g, bounds)
    except ValueError as exc:  # an orbit branches past the leaf depth
        _log(f"unknown: {exc}")
        return EXIT_UNKNOWN
    listed = [docio._fmt_id(v) for v in points]
    _emit({"linePoints": listed, "classes": classes}, args.format,
          [f"{len(listed)} line points in {classes} classes:"]
          + [f"  {s}" for s in listed])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kgraphs",
        description="Higher-rank graph monoids: validation, equality, "
                    "classification, lattices, exports.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=["text", "structured"],
                        default="text")

    sp = sub.add_parser("validate", help="check a graph document")
    sp.add_argument("graph")
    common(sp)
    sp.set_defaults(fn=cmd_validate)

    sp = sub.add_parser("eq", help="decide equality in the graded monoid")
    sp.add_argument("graph")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--bound", type=_count, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_eq)

    sp = sub.add_parser("classify", help="full property report")
    sp.add_argument("graph")
    sp.add_argument("--bound", type=_count, default=None)
    sp.add_argument("--depth", type=_count, default=None)
    sp.add_argument("--strict", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("gen", help="write a built-in family as a document")
    sp.add_argument("family")
    sp.add_argument("out", nargs="?", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("export-dot", help="export a graph to DOT")
    sp.add_argument("graph")
    sp.add_argument("out", nargs="?", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_export_dot)

    sp = sub.add_parser("lattice", help="all hereditary saturated sets")
    sp.add_argument("graph")
    common(sp)
    sp.set_defaults(fn=cmd_lattice)

    sp = sub.add_parser("closure", help="hereditary saturated closure")
    sp.add_argument("graph")
    sp.add_argument("vertices", nargs="+")
    sp.add_argument("--depth", type=_count, default=6)
    common(sp)
    sp.set_defaults(fn=cmd_closure)

    sp = sub.add_parser("linepoints", help="sampled line points")
    sp.add_argument("graph")
    sp.add_argument("--depth", type=_count, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_linepoints)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # after --help, or argparse's 2 for a usage error
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (OSError, docio.ParseError) as exc:
        _log(f"parse error: {exc}")
        return EXIT_PARSE
    except InvalidGraph as exc:
        _log(f"invalid graph: {exc}")
        return EXIT_INVALID
    except lattice.SemigroupCapExceeded as exc:
        _log(f"unknown: {exc}")
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
