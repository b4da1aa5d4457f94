"""Paths in a rank-k graph, in color-block normal form.

A path is stored as its range vertex plus an edge list read from the range
end, with all color-0 edges first, then color-1, and so on.  The square set
makes any two factorizations of the same path equal after resorting, so the
normal form is a canonical representative and path equality is plain
structural equality.  All resorting goes through ``graph.swap_pair``, which
applies one factorization square to an adjacent two-color pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import degrees as dg
from .kgraph import Edge, GraphLike, VertexId


@dataclass(frozen=True)
class Path:
    range: VertexId
    edges: Tuple[Edge, ...]

    @property
    def source(self) -> VertexId:
        return self.edges[-1].source if self.edges else self.range

    def degree(self, k: int) -> Tuple[int, ...]:
        d = [0] * k
        for e in self.edges:
            d[e.color] += 1
        return tuple(d)

    def __repr__(self) -> str:
        if not self.edges:
            return f"Path({self.range!r})"
        return "Path(" + ".".join(str(e.id) for e in self.edges) + ")"


def _check_composable(edges: Sequence[Edge], range_v: VertexId) -> None:
    at = range_v
    for e in edges:
        if e.range != at:
            raise ValueError(f"edge {e.id!r} has range {e.range!r}, expected {at!r}")
        at = e.source


def normalize(graph: GraphLike, range_v: VertexId, edges: Sequence[Edge]) -> Path:
    """Resort an edge list into ascending color blocks via squares.

    Fixes the leftmost color inversion each pass; the inversion count drops
    by one per swap, so this terminates, and uniqueness of factorization
    makes the result independent of the strategy.
    """
    _check_composable(edges, range_v)
    seq: List[Edge] = list(edges)
    while True:
        for p in range(len(seq) - 1):
            if seq[p].color > seq[p + 1].color:
                seq[p], seq[p + 1] = graph.swap_pair(seq[p], seq[p + 1])
                break
        else:
            return Path(range_v, tuple(seq))


def compose(graph: GraphLike, p: Path, q: Path) -> Path:
    """The concatenation p.q (requires source(p) == range(q)), normalized."""
    if p.source != q.range:
        raise ValueError(f"cannot compose: source {p.source!r} != range {q.range!r}")
    return normalize(graph, p.range, p.edges + q.edges)


def _split_first(graph: GraphLike, p: Path, color: int) -> Tuple[Edge, Path]:
    """Rewrite p = e.p' with e the leading color-``color`` edge."""
    idx = next((t for t, e in enumerate(p.edges) if e.color == color), None)
    if idx is None:
        raise ValueError(f"path has no color-{color} edge left")
    seq = list(p.edges)
    for t in range(idx, 0, -1):
        seq[t - 1], seq[t] = graph.swap_pair(seq[t - 1], seq[t])
    head, rest = seq[0], seq[1:]
    return head, Path(head.source, tuple(rest))


def factor(graph: GraphLike, p: Path, m: Sequence[int]) -> Tuple[Path, Path]:
    """Split p into (p(0, m), p(m, d(p))): unique head of degree m plus tail."""
    k = graph.k
    m = dg.validate_vec(tuple(m), k, "degree")
    d = p.degree(k)
    if not (dg.is_nonneg(m) and dg.leq(m, d)):
        raise ValueError(f"degree {m} not between 0 and {d}")
    head_edges: List[Edge] = []
    rest = p
    for color in range(k):
        for _ in range(m[color]):
            e, rest = _split_first(graph, rest, color)
            head_edges.append(e)
    return Path(p.range, tuple(head_edges)), rest


def segment(graph: GraphLike, p: Path, m: Sequence[int], n: Sequence[int]) -> Path:
    """The middle piece p(m, n) for m <= n <= d(p)."""
    m = dg.validate_vec(tuple(m), graph.k, "m")
    n = dg.validate_vec(tuple(n), graph.k, "n")
    if not dg.leq(m, n):
        raise ValueError(f"need m <= n, got {m}, {n}")
    _, tail = factor(graph, p, m)
    head, _ = factor(graph, tail, dg.sub(n, m))
    return head


def enumerate_paths(graph: GraphLike, v: VertexId, n: Sequence[int]) -> List[Path]:
    """All paths of degree n with range v (the set vL^n), in normal form.

    Walks edges color block by color block, which enumerates each path
    exactly once because normal forms are unique.
    """
    k = graph.k
    n = dg.validate_vec(tuple(n), k, "degree")
    if not dg.is_nonneg(n):
        raise ValueError(f"degree must be nonnegative, got {n}")
    results: List[Path] = []

    def walk(at: VertexId, color: int, left: int, acc: List[Edge]) -> None:
        if left == 0:
            color += 1
            if color == k:
                results.append(Path(v, tuple(acc)))
                return
            left = n[color]
            if left == 0:
                walk(at, color, 0, acc)
                return
        for e in graph.out_edges(at, color):
            acc.append(e)
            walk(e.source, color, left - 1, acc)
            acc.pop()

    walk(v, 0, n[0], [])
    return results


def mce(graph: GraphLike, lam: Path, mu: Path) -> List[Path]:
    """Minimal common extensions: paths tau of degree d(lam) v d(mu) with
    tau(0, d(lam)) = lam and tau(0, d(mu)) = mu."""
    k = graph.k
    if lam.range != mu.range:
        return []
    dl, dm = lam.degree(k), mu.degree(k)
    top = dg.join(dl, dm)
    out: List[Path] = []
    for xi in enumerate_paths(graph, lam.source, dg.sub(top, dl)):
        tau = compose(graph, lam, xi)
        head, _ = factor(graph, tau, dm)
        if head == mu:
            out.append(tau)
    return out


def lambda_min(graph: GraphLike, lam: Path, mu: Path) -> List[Tuple[Path, Path]]:
    """Pairs (alpha, beta) with lam.alpha = mu.beta a minimal common extension."""
    k = graph.k
    dl, dm = lam.degree(k), mu.degree(k)
    pairs = []
    for tau in mce(graph, lam, mu):
        _, alpha = factor(graph, tau, dl)
        _, beta = factor(graph, tau, dm)
        pairs.append((alpha, beta))
    return pairs


def ext(graph: GraphLike, lam: Path, others: Sequence[Path]) -> List[Path]:
    """Extensions of lam toward a finite set: all alpha such that lam.alpha
    is a minimal common extension of lam and some member of ``others``."""
    seen = set()
    out: List[Path] = []
    for mu in others:
        for alpha, _ in lambda_min(graph, lam, mu):
            key = (alpha.range, tuple(e.id for e in alpha.edges))
            if key not in seen:
                seen.add(key)
                out.append(alpha)
    return out
