import random

import pytest

from kgraphs import families
from kgraphs.kgraph import Edge, LazyKGraph


@pytest.fixture
def fan3():
    return families.fan_3color()


@pytest.fixture
def one_vertex_3x3():
    return families.one_vertex_3x3()


@pytest.fixture
def one_vertex_3x2():
    return families.one_vertex_3x2()


@pytest.fixture
def cycle4():
    return families.cycle_pullback()


@pytest.fixture
def arrow():
    return families.arrow_pullback()


@pytest.fixture
def loop_pair_tail():
    return families.loop_pair_tail()


@pytest.fixture
def looptail():
    return families.looptail()


@pytest.fixture
def grid2():
    return families.grid(2)


@pytest.fixture
def bratteli():
    return families.rank2_bratteli()


@pytest.fixture
def branching_chain():
    """A rank-1 lazy graph on the naturals: vertex n has one edge to n + 1
    below 10 and two from 10 on, so n is a leaf to depth 10 - n exactly."""
    def out(v, color):
        return [Edge((v, j), 0, v, v + 1) for j in range(1 if v < 10 else 2)]

    def swap(x, y):
        raise KeyError("a rank-1 graph has no squares")
    return LazyKGraph(1, out, swap, roots=[0], name="branching_chain")


@pytest.fixture
def cycles_3_to_13():
    """Disjoint directed cycles of lengths 3, 5, 7, 11 and 13: 39 vertices,
    no sources, and a reachability semigroup of lcm = 15015 states."""
    verts, arrows = [], []
    for n in (3, 5, 7, 11, 13):
        cycle = [f"c{n}.{i}" for i in range(n)]
        verts += cycle
        arrows += [(f"a{n}.{i}", v, cycle[(i + 1) % n]) for i, v in enumerate(cycle)]
    return families.pullback_2graph(verts, arrows)


@pytest.fixture
def skeleton_pullbacks():
    """Pullbacks of seeded digraphs on 5 to 16 vertices, vertex i having
    1 + i % 2 out-arrows in the range sense: sizes beyond the fixtures,
    some of them with singular color matrices and nontrivial lattices."""
    graphs = []
    for n in range(5, 17):
        rng = random.Random(n)
        verts = [f"v{i}" for i in range(n)]
        arrows = [(f"a{i}.{j}", v, rng.choice(verts))
                  for i, v in enumerate(verts) for j in range(1 + i % 2)]
        graphs.append(families.pullback_2graph(verts, arrows, name=f"pullback{n}"))
    return graphs
