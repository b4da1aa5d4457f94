"""Helpers only the tests use: a bounded forward rewriting closure, common
reducts built on it, a reference rewrite search on FreeElements, the
disjoint union of two finite graphs, and seeded pullbacks with sources."""

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

from kgraphs import families
from kgraphs.intlinalg import lattice_member
from kgraphs.kgraph import Edge, KGraph, Square
from kgraphs.rewrite import DEFAULT_NODE_CAP, FreeElement, StepLabel, successors
from kgraphs.tri import Certificate, Tri, no, unknown, yes


def reachable(graph, elem: FreeElement, bound: int,
              node_cap: int = DEFAULT_NODE_CAP) -> Tuple[Dict[FreeElement, List[StepLabel]], bool]:
    """Forward closure of ``elem`` under at most ``bound`` steps.

    Returns (mapping element -> derivation trace, complete) where complete
    means the closure saturated before hitting either bound.
    """
    traces: Dict[FreeElement, List[StepLabel]] = {elem: []}
    frontier = [elem]
    for _ in range(bound):
        if not frontier:
            return traces, True
        nxt = []
        for cur in frontier:
            for succ, label in successors(graph, cur):
                if succ not in traces:
                    traces[succ] = traces[cur] + [label]
                    nxt.append(succ)
                    if len(traces) > node_cap:
                        return traces, False
        frontier = nxt
    return traces, not frontier


def common_reduct(graph, a: FreeElement, b: FreeElement, bound: int,
                  node_cap: int = DEFAULT_NODE_CAP):
    """A common forward reduct of a and b within the bound, if one exists.

    Returns (gamma, trace_a, trace_b) or None.  On graphs without sources a
    common reduct exists if and only if the elements are congruent; with
    sources the absence of a common reduct decides nothing.
    """
    ra, _ = reachable(graph, a, bound, node_cap)
    rb, _ = reachable(graph, b, bound, node_cap)
    meet = set(ra) & set(rb)
    if not meet:
        return None
    gamma = min(meet, key=lambda e: (len(ra[e]) + len(rb[e]), repr(e)))
    return gamma, ra[gamma], rb[gamma]


def _ref_expansion(graph, gen, color) -> Optional[FreeElement]:
    edges = graph.out_edges(gen, color)
    if not edges:
        return None
    return FreeElement.from_pairs(Counter(e.source for e in edges).items())


def neighbors_reference(graph, elem: FreeElement) -> List[Tuple[FreeElement, StepLabel]]:
    """Successors (generators in repr order, then colors), then predecessors
    (every vertex and color on a finite graph, in-edge ranges in repr order
    on a lazy one), each step built with FreeElement arithmetic."""
    out = []
    for gen, _ in elem.items:
        for color in range(graph.k):
            exp = _ref_expansion(graph, gen, color)
            rest = None if exp is None else elem.subtract(FreeElement.single(gen))
            if rest is not None:
                out.append((rest + exp, (+1, gen, color)))
    if not graph.is_lazy:
        cands = [(v, i) for v in graph.vertices for i in range(graph.k)]
    elif graph.supports_in_edges:
        cands = sorted({(e.range, color) for gen, _ in elem.items for color in range(graph.k)
                        for e in graph.in_edges(gen, color)}, key=repr)
    else:
        cands = []
    for gen, color in cands:
        exp = _ref_expansion(graph, gen, color)
        rest = None if exp is None else elem.subtract(exp)
        if rest is not None:
            out.append((rest + FreeElement.single(gen), (-1, gen, color)))
    return out


def _ref_invariant_separates(graph, a: FreeElement, b: FreeElement) -> bool:
    verts, idx = graph.vertices, graph.vertex_index
    rels = []
    for v in verts:
        for color in range(graph.k):
            exp = _ref_expansion(graph, v, color)
            if exp is not None:
                vec = [0] * len(verts)
                vec[idx[v]] -= 1
                for g, n in exp.items:
                    vec[idx[g]] += n
                rels.append(vec)
    diff = [0] * len(verts)
    for g, n in a.items:
        diff[idx[g]] += n
    for g, n in b.items:
        diff[idx[g]] -= n
    return not lattice_member(rels, diff)


def congruent_reference(graph, a: FreeElement, b: FreeElement, bound: int = 16,
                        node_cap: int = DEFAULT_NODE_CAP) -> Tri:
    """``rewrite.congruent`` as a search over FreeElement states, each step
    a Counter turned into a repr-sorted FreeElement: the same bidirectional
    search, smaller frontier first, with the same certificates."""
    if a == b:
        return yes(Certificate("rewrite_chain", {"start": a, "end": b, "steps": []}))
    if a.is_zero() or b.is_zero():
        return no(Certificate("zero_class", {"left": a, "right": b}))
    parent_a: Dict[FreeElement, Optional[Tuple[FreeElement, StepLabel]]] = {a: None}
    parent_b: Dict[FreeElement, Optional[Tuple[FreeElement, StepLabel]]] = {b: None}
    frontier_a, frontier_b = [a], [b]
    closed_a = closed_b = False

    def chain_from(parents, cur) -> List[StepLabel]:
        labels = []
        while parents[cur] is not None:
            cur, label = parents[cur]
            labels.append(label)
        return labels[::-1]

    for _ in range(bound):
        if closed_a or closed_b or (not frontier_a and not frontier_b):
            break
        if frontier_a and (not frontier_b or len(frontier_a) <= len(frontier_b)):
            side, parents, other, frontier = "a", parent_a, parent_b, frontier_a
        else:
            side, parents, other, frontier = "b", parent_b, parent_a, frontier_b
        nxt = []
        for cur in frontier:
            for succ, label in neighbors_reference(graph, cur):
                if succ in other:
                    parents.setdefault(succ, (cur, label))
                    back = [(-d, g, c) for d, g, c in reversed(chain_from(parent_b, succ))]
                    return yes(Certificate("rewrite_chain", {
                        "start": a, "end": b, "steps": chain_from(parent_a, succ) + back}))
                if succ not in parents:
                    parents[succ] = (cur, label)
                    nxt.append(succ)
                    if len(parents) > node_cap:
                        return unknown(f"node cap {node_cap} hit")
        if side == "a":
            frontier_a, closed_a = nxt, not nxt
        else:
            frontier_b, closed_b = nxt, not nxt
    if closed_a or closed_b:
        return no(Certificate("component_separation",
                              {"left": a, "right": b,
                               "closed_side": "left" if closed_a else "right",
                               "component_size": len(parent_a if closed_a else parent_b)}))
    if not graph.is_lazy and _ref_invariant_separates(graph, a, b):
        return no(Certificate("integer_invariant", {"left": a, "right": b}))
    return unknown(f"no connection within {bound} rounds")


def disjoint_union(a: KGraph, b: KGraph, tags: Tuple[str, str] = ("L", "R")) -> KGraph:
    """Side-by-side union of two finite graphs of the same rank."""
    if a.k != b.k:
        raise ValueError("ranks differ")

    def remap(g: KGraph, t: str):
        vs = [(t, v) for v in g.vertices]
        es = [Edge((t, e.id), e.color, (t, e.range), (t, e.source)) for e in g.edges]
        sq = [Square(((t, s.lo[0]), (t, s.lo[1])), ((t, s.hi[0]), (t, s.hi[1])))
              for s in g.squares]
        return vs, es, sq

    va, ea, sa = remap(a, tags[0])
    vb, eb, sb = remap(b, tags[1])
    return KGraph(a.k, va + vb, ea + eb, sa + sb, name=f"{a.name}+{b.name}")


def sink_pullbacks(count: int = 8) -> List[KGraph]:
    """Pullbacks of seeded digraphs on 5 to 12 vertices in which one or two
    vertices emit no arrow, so the rank-2 graphs have sources."""
    graphs = []
    for i in range(count):
        n = 5 + i % 8
        rng = random.Random(105 + i)
        verts = [f"v{j}" for j in range(n)]
        sinks = set(rng.sample(verts, 1 + n % 2))
        arrows = [(f"a{j}.{r}", v, rng.choice(verts))
                  for j, v in enumerate(verts) if v not in sinks for r in range(1 + j % 2)]
        graphs.append(families.pullback_2graph(verts, arrows, name=f"pullback{n}-sinks#{i}"))
    return graphs
