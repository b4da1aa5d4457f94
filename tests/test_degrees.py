from hypothesis import given
from hypothesis import strategies as st

from kgraphs import degrees as dg

vecs = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))


def test_basic_ops():
    assert dg.zero(3) == (0, 0, 0)
    assert dg.unit(3, 1) == (0, 1, 0)
    assert dg.add((1, 2), (3, -1)) == (4, 1)
    assert dg.sub((1, 2), (3, -1)) == (-2, 3)
    assert dg.neg((1, -2)) == (-1, 2)
    assert dg.norm1((1, -2)) == 3


@given(vecs, vecs)
def test_join_meet_bracket(a, b):
    j, m = dg.join(a, b), tuple(map(min, a, b))
    assert dg.leq(m, a) and dg.leq(m, b)
    assert dg.leq(a, j) and dg.leq(b, j)
    assert dg.add(j, m) == dg.add(a, b)


@given(vecs)
def test_leq_reflexive_and_nonneg(a):
    assert dg.leq(a, a)
    assert dg.is_nonneg(a) == dg.leq(dg.zero(3), a)


def test_box_enumeration():
    pts = list(dg.box((0, 0), (2, 1)))
    assert len(pts) == 6
    assert set(pts) == {(i, j) for i in range(3) for j in range(2)}
