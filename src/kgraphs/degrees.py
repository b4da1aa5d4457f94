"""Small helpers for degree vectors in N^k and offsets in Z^k.

Degrees and offsets are plain tuples of ints of length k (the rank of the
graph).  Keeping them as tuples makes them hashable and cheap to compare;
these helpers centralise the componentwise arithmetic, and ``add``,
``sub``, ``join`` and ``leq`` raise ValueError on vectors of unequal
lengths instead of cutting the longer one short.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Iterator, Sequence, Tuple

Vec = Tuple[int, ...]


def zero(k: int) -> Vec:
    return (0,) * k


def unit(k: int, i: int) -> Vec:
    """Standard basis vector e_i (0-indexed color i)."""
    return tuple(1 if j == i else 0 for j in range(k))


def _pairwise(op, a: Vec, b: Vec):
    if len(a) != len(b):
        raise ValueError(f"vectors of unequal lengths: {a!r} and {b!r}")
    return map(op, a, b)


def add(a: Vec, b: Vec) -> Vec:
    return tuple(_pairwise(operator.add, a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(_pairwise(operator.sub, a, b))


def neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def join(a: Vec, b: Vec) -> Vec:
    """Componentwise maximum (least upper bound in the product order)."""
    return tuple(_pairwise(max, a, b))


def leq(a: Vec, b: Vec) -> bool:
    """Componentwise order a <= b."""
    return all(_pairwise(operator.le, a, b))


def is_nonneg(a: Vec) -> bool:
    return all(x >= 0 for x in a)


def norm1(a: Vec) -> int:
    return sum(abs(x) for x in a)


def box(lo: Vec, hi: Vec) -> Iterator[Vec]:
    """All vectors v with lo <= v <= hi, in lexicographic order."""
    return product(*(range(l, h + 1) for l, h in zip(lo, hi)))


def validate_vec(a: Sequence, k: int, name: str = "vector") -> Vec:
    if len(a) != k or not all(isinstance(x, int) for x in a):
        raise ValueError(f"{name} must be a length-{k} tuple of ints, got {a!r}")
    return tuple(a)
