"""The four workloads: seeded inputs, the operations run on them, and the
checks each output must pass.

kgraphs is reached only through its public functions, always looked up on
the module at call time so that the traced run's wrappers see every call.
Every input is made from the workload seed; a round is the same list of
operations each time it runs.
"""

from __future__ import annotations

import random
import re
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import kgraphs
from kgraphs import classify as kc
from kgraphs import docio, families
from kgraphs import lattice as kl
from kgraphs import monoid as km
from kgraphs.monoid import Bounds, TElement

import oracles

# Search bounds, written out value by value so that a change to the
# package defaults cannot change the work measured.
BOUNDS = Bounds(push=16, rewrite=24, node_cap=20000, offset_radius=4,
                period_radius=4, support=2, coeff=4, leaf_depth=64,
                sample_depth=6)
# Interactive queries cap the rewrite search lower, so that a search ending
# in `unknown` stays a small part of a round.
QUERY_BOUNDS = Bounds(push=16, rewrite=8, node_cap=500, offset_radius=4,
                      period_radius=4, support=2, coeff=4, leaf_depth=64,
                      sample_depth=6)


def bounds_env(bounds: Bounds) -> Dict[str, str]:
    """The same bounds for the CLI, one KGRAPHS_<FIELD> per field."""
    return {f"KGRAPHS_{name.upper()}": str(getattr(bounds, name))
            for name in bounds.__dataclass_fields__}


# ---------------------------------------------------------------------------
# operations


class Op:
    """One timed library call.  ``prepare`` runs untimed before it (fresh
    inputs), ``run`` is timed, ``check`` and ``verdicts`` run untimed."""

    name = "op"

    def prepare(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, result) -> List[str]:
        return []

    def verdicts(self, result) -> List[Tuple[object, object]]:
        """(graph, Tri) pairs whose yes/no verdicts must replay."""
        return []

    def release(self) -> None:
        """Drop what ``prepare`` made."""


class ClassifyOp(Op):
    """kp_report on a graph object no earlier operation has touched."""

    def __init__(self, name: str, factory: Callable[[], object]):
        self.name = name
        self.factory = factory
        self.graph = None

    def prepare(self) -> None:
        self.graph = self.factory()

    def run(self):
        return kc.kp_report(self.graph, BOUNDS)

    def check(self, report) -> List[str]:
        return oracles.check_report(self.graph, report)

    def verdicts(self, report):
        return [(self.graph, t) for t in report.verdicts().values()]

    def release(self) -> None:
        self.graph = None


class QueryOp(Op):
    """One interactive call on a warm, reused graph."""

    def __init__(self, name: str, graph, call: Callable[[], object],
                 check: Callable[[object], List[str]], verdict: bool = True):
        self.name = name
        self.graph = graph
        self.call = call
        self._check = check
        self._verdict = verdict

    def run(self):
        return self.call()

    def check(self, result) -> List[str]:
        return self._check(result)

    def verdicts(self, result):
        return [(self.graph, result)] if self._verdict else []


class CliOp:
    """One ``python -m kgraphs.cli`` run in a fresh process.

    ``expect(returncode, stdout)`` returns failure messages.  ``fault``
    names a known program fault that makes the run fail today.
    """

    def __init__(self, name: str, args: Sequence[str],
                 expect: Callable[[int, str], List[str]],
                 env: Optional[Dict[str, str]] = None, fault: str = ""):
        self.name = name
        self.args = list(args)
        self.expect = expect
        self.env = env or {}
        self.fault = fault


def expect_exit(code: int) -> Callable[[int, str], List[str]]:
    def check(rc: int, out: str) -> List[str]:
        return [] if rc == code else [f"exit {rc}, want {code}"]
    return check


EXIT_OF = {"yes": 0, "no": 3, "unknown": 4}

_VERDICT_LINE = re.compile(r"^  (\w+): (yes|no|unknown)\b", re.M)


def expect_report(report) -> Callable[[int, str], List[str]]:
    """`kgraphs classify` must print the library's verdicts and exit 0."""
    want = {name: t.value for name, t in report.verdicts().items()}

    def check(rc: int, out: str) -> List[str]:
        got = dict(_VERDICT_LINE.findall(out))
        fails = [] if rc == 0 else [f"exit {rc}, want 0"]
        if got != want:
            fails.append(f"printed verdicts {got} != library verdicts {want}")
        return fails
    return check


# ---------------------------------------------------------------------------
# seeded inputs


def skeleton_pullback(skeleton: int, n: int, sinks: int = 0) -> kgraphs.KGraph:
    """Pullback of the digraph numbered ``skeleton`` on n vertices: vertex i
    has 1 + i % 2 out-arrows (range sense) to targets drawn from the number,
    except for ``sinks`` vertices that have none and so are sources of the
    rank-2 graph."""
    rng = random.Random(skeleton)
    verts = [f"v{i}" for i in range(n)]
    sink_set = set(rng.sample(verts, sinks))
    arrows: List[Tuple[str, str, str]] = []
    for i, v in enumerate(verts):
        if v in sink_set:
            continue
        for _ in range(1 + i % 2):
            arrows.append((f"a{len(arrows)}", v, rng.choice(verts)))
    return families.pullback_2graph(verts, arrows, name=f"pullback{n}s{sinks}#{skeleton}")


def disguise(graph: kgraphs.KGraph, seed: int) -> kgraphs.KGraph:
    """The same colored skeleton with the factorization squares of a rank-2
    graph re-paired at random among the two-color paths that share their
    endpoints.

    Any such pairing is again a rank-2 graph, and a different one.  Its
    monoid, and so the work of every decision procedure, depends on the
    skeleton alone: the seed changes the graph handed to the program, not
    the size of the job.  (Drawing skeletons from the seed made per-seed
    medians differ by 20-35 %, more than any usable bound.)
    """
    if graph.k != 2:
        return graph
    rng = random.Random(seed)
    groups: Dict[Tuple[object, object], List[kgraphs.Square]] = {}
    for sq in graph.squares:
        ends = (graph.edge_by_id[sq.lo[0]].range, graph.edge_by_id[sq.lo[1]].source)
        groups.setdefault(ends, []).append(sq)
    squares = []
    for group in groups.values():
        his = [sq.hi for sq in group]
        rng.shuffle(his)
        squares += [kgraphs.Square(sq.lo, hi) for sq, hi in zip(group, his)]
    return kgraphs.KGraph(graph.k, graph.vertices, graph.edges, squares, name=graph.name)


def _disguised(rng: random.Random, name: str, factory: Callable[[], kgraphs.KGraph]):
    seed = rng.randrange(1 << 30)
    return ClassifyOp(name, lambda: disguise(factory(), seed))


FIXTURES = ("cycle4", "loop-pair-tail", "looptail", "one-vertex-3x2",
            "one-vertex-3x3")
RANDOM_2GRAPHS = 18
SINK_PULLBACKS = 20
# A graph classified in well under 0.1 s is timed this many times a round,
# each time on a fresh object: one millisecond call varies by 10-20 % from
# one timing to the next, and its median over a run needs more than the
# two or three timings that two or three rounds give.
LIGHT_REPS = 3
QUERY_SETS = 5      # sets of library calls in one round of `queries`


class Workload:
    """A seeded round of library operations and CLI runs.  An operation
    listed more than once is timed that many times a round."""

    def __init__(self, ops: List[Op], cli: List[CliOp], warm: bool = False):
        self.ops = ops
        self.cli = cli
        self.warm = warm            # run the library ops once during set-up


def classify_finite(seed: int) -> Workload:
    """Fixtures as they are; the first random_2graph draws and a band of
    pullbacks with 8 to 16 vertices, each in a seeded disguise.  All but
    the pullbacks with 11 or more vertices are light."""
    rng = random.Random(seed)
    light: List[Op] = [ClassifyOp(name, families.FAMILIES[name]) for name in FIXTURES]
    for s in range(RANDOM_2GRAPHS):
        light.append(_disguised(rng, f"random_2graph({s})",
                                lambda s=s: families.random_2graph(s)))
    heavy: List[Op] = []
    for n in range(8, 17):
        (light if n <= 10 else heavy).append(
            _disguised(rng, f"pullback{n}", lambda n=n: skeleton_pullback(n, n)))
    ops = light * LIGHT_REPS + heavy
    rng.shuffle(ops)
    cli = [_cli_classify("cycle4", BOUNDS)]
    return Workload(ops, cli * 4)


def classify_sources(seed: int) -> Workload:
    """fan3, arrow, and pullbacks of digraphs with one or two sinks, each
    in a seeded disguise.  All but fan3 are light."""
    rng = random.Random(seed)
    fan3 = _disguised(rng, "fan3", families.fan_3color)
    light: List[Op] = [_disguised(rng, "arrow", families.arrow_pullback)]
    for i in range(SINK_PULLBACKS):
        n, sinks = 3 + i % 6, 1 + i % 2
        light.append(_disguised(rng, f"pullback{n}-sink{sinks}#{i}",
                                lambda i=i, n=n, sinks=sinks: skeleton_pullback(i, n, sinks)))
    ops = light * LIGHT_REPS + [fan3]
    rng.shuffle(ops)
    cli = [_cli_classify("arrow", BOUNDS)]
    return Workload(ops, cli * 4)


def classify_lazy(seed: int) -> Workload:
    """The infinite families; the seed only orders them."""
    rng = random.Random(seed)
    ops: List[Op] = [ClassifyOp("grid2", families.grid),
                     ClassifyOp("delta2", families.delta),
                     ClassifyOp("bratteli", families.rank2_bratteli)]
    rng.shuffle(ops)
    # Two cold runs a round, not four: a round already takes some 15 s, and
    # the bratteli runs vary little.
    cli = [_cli_classify("bratteli", BOUNDS)]
    return Workload(ops, cli * 2)


def _cli_classify(family: str, bounds: Bounds) -> CliOp:
    report = kc.kp_report(families.FAMILIES[family](), bounds)
    return CliOp(f"classify {family}", ["classify", family],
                 expect_report(report), env=bounds_env(bounds))


# ---------------------------------------------------------------------------
# queries


class Elements:
    """Random elements of one graph and pairs made equal by relations."""

    def __init__(self, rng: random.Random, graph, vertices: Sequence[object]):
        self.rng = rng
        self.graph = graph
        self.vertices = list(vertices)

    def element(self) -> TElement:
        """Two generators v(n) with random vertices and offsets in [0, 2]^k.
        A fixed size keeps the work of a round alike from seed to seed."""
        rng, k = self.rng, self.graph.k
        return TElement.from_pairs(
            [((rng.choice(self.vertices), tuple(rng.randint(0, 2) for _ in range(k))), 1)
             for _ in range(2)])

    def expand(self, a: TElement, moves: int) -> TElement:
        """Apply ``moves`` defining relations v(n) -> sum of s(e)(n + e_i)
        over the color-i edges e with range v."""
        g, k = self.graph, self.graph.k
        for _ in range(moves):
            options = [((v, n), i) for (v, n), _ in a.items for i in range(k)
                       if g.out_edges(v, i)]
            if not options:
                break
            (v, n), i = self.rng.choice(options)
            up = tuple(x + (j == i) for j, x in enumerate(n))
            terms = [((w, m), c - ((w, m) == (v, n))) for (w, m), c in a.items]
            terms += [((e.source, up), 1) for e in g.out_edges(v, i)]
            a = TElement.from_pairs(terms)
        return a

    def unequal_pair(self, equal: Callable[[TElement, TElement], bool]
                     ) -> Tuple[TElement, TElement]:
        while True:
            a, b = self.element(), self.element()
            if not equal(a, b):
                return a, b

    def equal_pair(self) -> Tuple[TElement, TElement]:
        """One and two relation steps away from a common element."""
        a = self.element()
        return self.expand(a, 1), self.expand(a, 2)


def _teq(g, a, b, built: bool, truth=None) -> QueryOp:
    return QueryOp("t_equal", g, lambda: km.t_equal(g, a, b, bounds=QUERY_BOUNDS),
                   lambda t: oracles.check_equal_verdict(t.value, built, truth))


def _mcong(g, a, b, built: bool, truth=None) -> QueryOp:
    return QueryOp("m_congruent", g, lambda: km.m_congruent(g, a, b, bounds=QUERY_BOUNDS),
                   lambda t: oracles.check_equal_verdict(t.value, built, truth))


def _tleq(g, a, b) -> QueryOp:
    return QueryOp("t_leq", g, lambda: km.t_leq(g, a, b, bounds=QUERY_BOUNDS),
                   lambda t: oracles.check_leq_verdict(t.value))


def _add_queries(rng: random.Random, ops: List[Op], no_src, with_src, grid2, delta2,
                 bratteli) -> None:
    """One set of library calls: equality, order, closure and membership."""
    # Every pair is built equal or drawn until the oracle calls it unequal,
    # so each seed asks for the same mix of yes and no answers.
    for g in no_src.values():
        el = Elements(rng, g, g.vertices)
        data = oracles.GraphData(g)
        for _ in range(10):
            a, b = el.equal_pair()
            ops.append(_teq(g, a, b, True, oracles.level_equal(data, a, b)))
            a, b = el.unequal_pair(lambda x, y: oracles.level_equal(data, x, y))
            ops.append(_teq(g, a, b, False, False))
        for _ in range(6):
            a = el.element()
            ops.append(_tleq(g, a, a + el.element()))
    grid_pts = [(i, j) for i in range(4) for j in range(4)]
    delta_pts = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    for g, pts in ((grid2, grid_pts), (delta2, delta_pts)):
        el = Elements(rng, g, pts)
        for _ in range(8):
            a, b = el.equal_pair()
            ops.append(_teq(g, a, b, True, oracles.graded_keys(a) == oracles.graded_keys(b)))
            a, b = el.unequal_pair(lambda x, y: oracles.graded_keys(x) == oracles.graded_keys(y))
            ops.append(_teq(g, a, b, False, False))
        for _ in range(4):
            a = el.element()
            ops.append(_tleq(g, a, a + el.element()))
    # Off the level and graded routes only pairs built equal are seeded:
    # whether a random pair's search ends early or at a bound varies too
    # much from seed to seed.  One fixed pair stands for the searches that
    # end at a bound.
    rewrite_graphs = [(g, g.vertices) for g in with_src.values()]
    rewrite_graphs.append((bratteli, [(n, j) for n in range(3) for j in range(1 << n)]))
    for g, verts in rewrite_graphs:
        el = Elements(rng, g, verts)
        for _ in range(24):
            a, b = el.equal_pair()
            ops.append(_teq(g, a, b, True))
    fan3 = with_src["fan3"]
    ops.append(_teq(fan3, TElement.gen("x", (0, 0, 0), 2),
                    TElement.from_pairs([((v, (0, 0, 0)), 1) for v in "uvw"]), False))

    # The offset-free vertex monoid: images of built-equal pairs, searched
    # by rewriting on the finite graph itself, and one fixed pair that only
    # the integer relation-lattice invariant separates.  Every relation of
    # one-vertex-3x3 trades v for 3v, so the parity of the coefficient never
    # changes and v != 2v.
    for g in list(no_src.values()) + list(with_src.values()):
        el = Elements(rng, g, g.vertices)
        for _ in range(2):
            a, b = el.equal_pair()
            ops.append(_mcong(g, km.forget(a), km.forget(b), True))
    one = no_src["one-vertex-3x3"]
    ops.append(_mcong(one, km.MElement.single("v"), km.MElement.single("v", 2), False, False))

    for g in list(no_src.values()) + list(with_src.values()):
        data = oracles.GraphData(g)
        for _ in range(6):
            v = rng.choice(g.vertices)
            ops.append(QueryOp(
                "closure", g,
                lambda g=g, v=v: kl.saturated_hereditary_closure(g, [v]),
                lambda got, want=data.closure([v]): oracles.check_closure(got, want),
                verdict=False))
            h = data.closure([rng.choice(g.vertices)])
            v = rng.choice(g.vertices)
            a = TElement.gen(v, tuple(rng.randint(0, 2) for _ in range(g.k)))
            ops.append(QueryOp(
                "ideal_membership", g,
                lambda g=g, a=a, h=h: kl.ideal_membership(g, a, h),
                lambda t, v=v, h=h: oracles.check_membership(t.value, v, h)))


def queries(seed: int, outdir: str) -> Workload:
    """Seeded single decisions on warm, reused graphs."""
    rng = random.Random(seed)
    no_src = {"cycle4": families.cycle_pullback(), "looptail": families.looptail(),
              "one-vertex-3x3": families.one_vertex_3x3(),
              "pullback6": disguise(skeleton_pullback(6, 6), rng.randrange(1 << 30))}
    with_src = {"arrow": families.arrow_pullback(), "fan3": families.fan_3color(),
                "pullback5-sink": disguise(skeleton_pullback(5, 5, 1), rng.randrange(1 << 30))}
    grid2, delta2, bratteli = families.grid(), families.delta(), families.rank2_bratteli()
    ops: List[Op] = []
    for _ in range(QUERY_SETS):
        _add_queries(rng, ops, no_src, with_src, grid2, delta2, bratteli)
    rng.shuffle(ops)
    return Workload(ops, _query_cli(rng, no_src["cycle4"], outdir), warm=True)


def _query_cli(rng: random.Random, cycle4, outdir: str) -> List[CliOp]:
    env = bounds_env(QUERY_BOUNDS)
    el = Elements(rng, cycle4, cycle4.vertices)
    data = oracles.GraphData(cycle4)
    a, b = el.equal_pair()
    c, d = el.unequal_pair(lambda x, y: oracles.level_equal(data, x, y))
    out = []
    for x, y in ((a, b), (c, d)):
        verdict = km.t_equal(cycle4, x, y, bounds=QUERY_BOUNDS).value
        truth = oracles.level_equal(data, x, y)
        if oracles.check_equal_verdict(verdict, False, truth):
            raise RuntimeError(f"library verdict {verdict} on {x!r} = {y!r} is wrong")
        out.append(CliOp(f"eq {verdict}", ["eq", "cycle4", docio.format_element(x),
                                           docio.format_element(y)],
                         expect_exit(EXIT_OF[verdict]), env=env))
    out.append(_cli_classify("loop-pair-tail", QUERY_BOUNDS))
    doc = f"{outdir}/cycle4.json"
    with open(doc, "w", encoding="utf-8") as fh:
        fh.write(docio.dump_graph(families.cycle_pullback()))
    out.append(CliOp("validate", ["validate", doc], expect_exit(0), env=env))
    out.append(CliOp("eq unknown vertex", ["eq", "cycle4", "nope(0,0)", "u(0,0)"],
                     expect_exit(1), env=env,
                     fault="KeyError traceback: cmd_eq does not check vertex names"))
    out.append(CliOp("eq bad bound", ["eq", "cycle4", "u(0,0)", "u(4,0)"],
                     expect_exit(1), env={**env, "KGRAPHS_REWRITE": "abc"},
                     fault="ValueError traceback from bounds_from_env"))
    out.append(CliOp("eq grid2", ["eq", "grid2", "0|0(0,0)", "0|0(1,0)"],
                     expect_exit(EXIT_OF["no"]), env=env,
                     fault="TypeError traceback: cmd_eq keeps string vertex ids "
                           "where grid2 has tuples"))
    return out


def build(name: str, seed: int, outdir: str) -> Workload:
    if name == "queries":
        return queries(seed, outdir)
    return {"classify_finite": classify_finite, "classify_sources": classify_sources,
            "classify_lazy": classify_lazy}[name](seed)

