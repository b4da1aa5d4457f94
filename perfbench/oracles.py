"""Correctness oracles, computed apart from kgraphs.

The oracles read a graph's data (vertices, colored edges) and an element's
terms, and decide the same questions with plain Python integers and sets:
no numpy, no sympy and no kgraphs procedure.  Each check returns a list of
failure messages; an empty list means the output passed.

The one check these oracles leave to kgraphs is certificate replay
(``kgraphs.replay``), which is by design the package's own independent
verifier; ``worker.py`` replays every yes/no verdict.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

YES, NO, UNKNOWN = "yes", "no", "unknown"

Vec = Tuple[int, ...]


# ---------------------------------------------------------------------------
# graph data


class GraphData:
    """A finite graph's skeleton: vertices, rank, and for each (vertex, color)
    the multiset of sources of the edges with that range."""

    def __init__(self, graph):
        self.k = graph.k
        self.vertices = list(graph.vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.out: Dict[Tuple[object, int], List[object]] = {}
        for e in graph.edges:
            self.out.setdefault((e.range, e.color), []).append(e.source)
        self._powers: Dict[Tuple[int, int], List[List[int]]] = {}
        self._reach_rows = None

    def sources(self, v, color: int) -> List[object]:
        return self.out.get((v, color), [])

    def has_sources(self) -> bool:
        return any(not self.sources(v, i) for v in self.vertices for i in range(self.k))

    # -- integer level vectors ----------------------------------------

    def _matrix(self, color: int) -> List[List[int]]:
        n = len(self.vertices)
        a = [[0] * n for _ in range(n)]
        for v in self.vertices:
            for s in self.sources(v, color):
                a[self.index[v]][self.index[s]] += 1
        return a

    def _power(self, color: int, e: int) -> List[List[int]]:
        key = (color, e)
        if key not in self._powers:
            n = len(self.vertices)
            if e == 0:
                self._powers[key] = [[int(i == j) for j in range(n)] for i in range(n)]
            else:
                self._powers[key] = _matmul(self._power(color, e - 1), self._matrix(color))
        return self._powers[key]

    def push_row(self, row: List[int], degree: Vec) -> List[int]:
        """row . A_degree, with A_n = prod_i A_i^{n_i} (paths by range, source)."""
        for color, e in enumerate(degree):
            if e:
                row = _vecmat(row, self._power(color, e))
        return row

    def level_vector(self, terms, level: Vec) -> List[int]:
        """The level-``level`` vector of a sum of generators v(n) <= level."""
        acc = [0] * len(self.vertices)
        for (v, n), c in terms:
            unit = [0] * len(self.vertices)
            unit[self.index[v]] = c
            row = self.push_row(unit, tuple(t - x for t, x in zip(level, n)))
            acc = [p + q for p, q in zip(acc, row)]
        return acc

    # -- reachability and closures ------------------------------------

    def source_rows(self) -> List[Dict[object, FrozenSet[object]]]:
        """For every degree n != 0, the map v -> s(v Lambda^n), up to
        duplicates: the boolean path semigroup, closed under products."""
        if self._reach_rows is None:
            gens = [{v: frozenset(self.sources(v, i)) for v in self.vertices}
                    for i in range(self.k)]
            seen = {}
            frontier = []
            for g in gens:
                key = tuple(sorted((repr(v), tuple(sorted(map(repr, s))))
                                   for v, s in g.items()))
                if key not in seen:
                    seen[key] = g
                    frontier.append(g)
            while frontier:
                nxt = []
                for state in frontier:
                    for g in gens:
                        prod = {v: frozenset(w for u in state[v] for w in g[u])
                                for v in self.vertices}
                        key = tuple(sorted((repr(v), tuple(sorted(map(repr, s))))
                                           for v, s in prod.items()))
                        if key not in seen:
                            seen[key] = prod
                            nxt.append(prod)
                frontier = nxt
            self._reach_rows = list(seen.values())
        return self._reach_rows

    def hereditary(self, xs: Iterable[object]) -> Set[object]:
        out = set(xs)
        todo = list(out)
        while todo:
            v = todo.pop()
            for i in range(self.k):
                for s in self.sources(v, i):
                    if s not in out:
                        out.add(s)
                        todo.append(s)
        return out

    def closure(self, xs: Iterable[object]) -> FrozenSet[object]:
        """Smallest hereditary set containing xs that also holds every vertex
        some nonempty s(v Lambda^n) of which it contains."""
        x = self.hereditary(xs)
        rows = self.source_rows()
        changed = True
        while changed:
            changed = False
            for v in self.vertices:
                if v not in x and any(r[v] and r[v] <= x for r in rows):
                    x |= self.hereditary([v])
                    changed = True
        return frozenset(x)

    def leaves(self) -> List[object]:
        """Vertices from which exactly one edge of each color leaves at every
        reachable vertex."""
        out = []
        for v in self.vertices:
            reach = self.hereditary([v])
            if all(len(self.sources(w, i)) == 1 for w in reach for i in range(self.k)):
                out.append(v)
        return out


def _matmul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _vecmat(v: List[int], m: List[List[int]]) -> List[int]:
    return [sum(v[i] * m[i][j] for i in range(len(v)) if v[i]) for j in range(len(m[0]))]


def _join(vecs: Iterable[Vec], k: int) -> Vec:
    out = None
    for n in vecs:
        out = tuple(n) if out is None else tuple(max(p, q) for p, q in zip(out, n))
    return out if out is not None else (0,) * k


# ---------------------------------------------------------------------------
# equality and order


def level_equal(data: GraphData, a, b) -> bool:
    """Equality in the graded monoid of a finite graph without sources.

    Push both elements to the join t of their offsets and on by the diagonal
    exponent (|V|, ..., |V|): the kernels of the push maps are stable from
    there, so the two level vectors agree exactly when the elements do.
    """
    k = data.k
    t = _join([n for (_, n), _ in a.items + b.items], k)
    t = tuple(x + len(data.vertices) for x in t)
    return data.level_vector(a.items, t) == data.level_vector(b.items, t)


def graded_keys(a) -> Counter:
    """Class keys n - v of grid and delta families, whose vertex ids are
    their lattice points."""
    keys: Counter = Counter()
    for (v, n), c in a.items:
        keys[tuple(x - y for x, y in zip(n, v))] += c
    return keys


def shift(p: Sequence[int], a) -> Tuple:
    """The terms of act(p, a): every offset translated by p."""
    return tuple(((v, tuple(x + y for x, y in zip(n, p))), c) for (v, n), c in a.items)


class _Terms:
    """Just enough of an element for the level oracle: a tuple of terms."""

    def __init__(self, items):
        self.items = tuple(items)


def check_equal_verdict(verdict: str, built_equal: bool, truth=None) -> List[str]:
    """An equality verdict against what is known: pairs built equal by
    applying relations are never 'no'; a decided truth must be matched."""
    fails = []
    if built_equal and verdict == NO:
        fails.append("pair built equal by relations got 'no'")
    if truth is not None and verdict != UNKNOWN and (verdict == YES) != truth:
        fails.append(f"verdict {verdict} but the oracle says equal={truth}")
    return fails


def check_leq_verdict(verdict: str) -> List[str]:
    """t_leq(a, a + c) must be yes wherever order is decided."""
    return [] if verdict == YES else [f"t_leq(a, a + c) gave {verdict}"]


def check_membership(verdict: str, v, h: FrozenSet[object]) -> List[str]:
    """v(n) lies in the ideal of a hereditary saturated h exactly when v is in h."""
    want = YES if v in h else NO
    return [] if verdict == want else [f"membership of {v!r} gave {verdict}, want {want}"]


def check_closure(got: Iterable[object], want: FrozenSet[object]) -> List[str]:
    got = frozenset(got)
    return [] if got == want else [f"closure {sorted(map(repr, got))} != {sorted(map(repr, want))}"]


# ---------------------------------------------------------------------------
# classification reports


def multiplicatively_independent(a: int, b: int) -> bool:
    """True when a, b >= 2 are not powers of a common integer."""
    fa, fb = _factor(a), _factor(b)
    if set(fa) != set(fb):
        return True
    p = next(iter(fa))
    return any(fa[q] * fb[p] != fb[q] * fa[p] for q in fa)


def _factor(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def tri_and(a: str, b: str) -> str:
    if NO in (a, b):
        return NO
    return YES if a == b == YES else UNKNOWN


def check_report(graph, report) -> List[str]:
    """Every property of a finite graph's classification report that can be
    decided apart from kgraphs."""
    v = {name: t.value for name, t in report.verdicts().items()}
    fails = []
    if v["simple"] != tri_and(v["cofinal"], v["aperiodic"]):
        fails.append(f"simple={v['simple']} but cofinal={v['cofinal']}, "
                     f"aperiodic={v['aperiodic']}")
    if v["freeAction"] == YES and v["aperiodic"] == NO:
        fails.append("free action but not aperiodic")
    if graph.is_lazy:
        return fails
    data = GraphData(graph)
    everything = frozenset(data.vertices)
    cofinal = all(data.closure([u]) == everything for u in data.vertices)
    if v["cofinal"] != UNKNOWN and (v["cofinal"] == YES) != cofinal:
        fails.append(f"cofinal={v['cofinal']} but the closure check says {cofinal}")
    if data.has_sources():
        return fails
    atomic = data.closure(data.leaves()) == everything
    if v["atomic"] != UNKNOWN and (v["atomic"] == YES) != atomic:
        fails.append(f"atomic={v['atomic']} but the closure of the leaves says {atomic}")
    if v["semisimple"] != NO:
        fails.append(f"semisimple={v['semisimple']} on a finite graph without sources")
    if len(data.vertices) == 1 and data.k == 2:
        counts = [len(data.sources(data.vertices[0], i)) for i in range(2)]
        free = min(counts) >= 2 and multiplicatively_independent(*counts)
        if v["freeAction"] != (YES if free else NO):
            fails.append(f"freeAction={v['freeAction']} with loop counts {counts}")
    if report.periodic_witness is not None:
        a, p = report.periodic_witness
        if not any(p) or not level_equal(data, a, _Terms(shift(p, a))):
            fails.append(f"periodic witness {a!r} with period {p} is not periodic")
    return fails
