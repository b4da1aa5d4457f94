"""Helpers only the tests use: a bounded forward rewriting closure, common
reducts built on it, the disjoint union of two finite graphs, and seeded
pullbacks with sources."""

import random
from typing import Dict, List, Tuple

from kgraphs import families
from kgraphs.kgraph import Edge, KGraph, Square
from kgraphs.rewrite import DEFAULT_NODE_CAP, FreeElement, StepLabel, successors


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
