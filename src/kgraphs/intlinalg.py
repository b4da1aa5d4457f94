"""Exact integer linear algebra: the one place that stores and multiplies
integer matrices.

A matrix is a tuple of row tuples of Python ints, so entries never
overflow, and a vector is a tuple of ints.  The boolean support of a
matrix is a tuple of row bitmasks: bit j of row i is set when entry (i, j)
is nonzero, which for a coordinate matrix means a path from vertex i to
vertex j.  The module owns:

- products: ``identity``, ``vecmat``, ``matmul``, and for boolean supports
  ``support`` and ``bool_vecmat``;
- a primitive integer ``kernel_basis`` by fraction-free Gauss-Jordan
  elimination, the one elimination here: a rank is the column count less
  the number of basis vectors;
- prime-exponent vectors: trial-division ``factorize``, ``exponent_matrix``
  and ``exponent_rank``;
- ``lattice_member``, membership in the sublattice of Z^m spanned by a list
  of integer vectors, by column reduction with unimodular operations.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Dict, List, Sequence, Tuple

Vector = Tuple[int, ...]
Matrix = Tuple[Vector, ...]


def lattice_member(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is ``target`` an integer combination of ``generators``?

    Each generator and the target are length-m integer vectors.  An empty
    generator list spans only the origin.
    """
    m = len(target)
    cols: List[List[int]] = [list(c) for c in generators if any(c)]
    for c in cols:
        if len(c) != m:
            raise ValueError("generator length mismatch")
    t = list(target)
    r = 0
    for i in range(m):
        # Gather a single pivot in row i among columns >= r by gcd steps.
        while True:
            nz = [j for j in range(r, len(cols)) if cols[j][i] != 0]
            if not nz:
                break
            j = min(nz, key=lambda j: abs(cols[j][i]))
            cols[r], cols[j] = cols[j], cols[r]
            done = True
            for j2 in range(r + 1, len(cols)):
                if cols[j2][i] != 0:
                    q = cols[j2][i] // cols[r][i]
                    for row in range(m):
                        cols[j2][row] -= q * cols[r][row]
                    if cols[j2][i] != 0:
                        done = False
            if done:
                break
        if r < len(cols) and cols[r][i] != 0:
            p = cols[r][i]
            if t[i] % p != 0:
                return False
            c = t[i] // p
            for row in range(m):
                t[row] -= c * cols[r][row]
            r += 1
        else:
            if t[i] != 0:
                return False
    return all(x == 0 for x in t)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def vecmat(x: Sequence[int], a: Matrix) -> Vector:
    """The row vector x times a; zero entries of x cost nothing."""
    out = [0] * len(a[0]) if a else []
    for xi, row in zip(x, a):
        if xi:
            out = [o + xi * r for o, r in zip(out, row)]
    return tuple(out)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def support(a: Matrix) -> Tuple[int, ...]:
    """Row i is the bitmask of the nonzero entries of row i of a."""
    return tuple(sum(1 << j for j, v in enumerate(row) if v) for row in a)


def bool_vecmat(mask: int, supp: Sequence[int]) -> int:
    """The boolean row vector ``mask`` times the boolean matrix ``supp``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= supp[low.bit_length() - 1]
        mask ^= low
    return out


def kernel_basis(a: Sequence[Sequence[int]], ncols: int) -> List[Vector]:
    """A basis over Q of the integer z with a z = 0, a with ``ncols`` columns
    (no rows: all of Z^ncols), one primitive z per free column.

    Fraction-free Gauss-Jordan elimination: each step replaces a row by an
    integer combination of it and the pivot row that clears the pivot
    column, divided by the gcd of its entries, so no rationals appear.  The
    vector of free column f has z[f] positive and every other free column
    0; each pivot row r then reads p_r z[c_r] + row_r[f] z[f] = 0.
    """
    rows = [_primitive(r) for r in a]
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"every row needs {ncols} entries")
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            q = row[c]
            if i != r and q:
                g = gcd(p, q)
                rows[i] = _primitive([(p // g) * x - (q // g) * y for x, y in zip(row, top)])
        pivots.append(c)
    scale = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        z = [0] * ncols
        z[f] = scale
        for r, c in enumerate(pivots):
            z[c] = -rows[r][f] * scale // rows[r][c]
        basis.append(tuple(_primitive(z)))
    return basis


def _primitive(v: Sequence[int]) -> List[int]:
    """v divided by the gcd of its entries (a zero vector stays zero)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else list(v)


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of n >= 1 by trial division: {prime: exponent}."""
    if n < 1:
        raise ValueError(f"factorize needs a positive integer, got {n}")
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def exponent_matrix(values: Sequence[int]) -> Matrix:
    """Row i holds the exponents of values[i] over the primes dividing any
    value, in increasing order.  A value of 1 gives a zero row."""
    facts = [factorize(v) for v in values]
    primes = sorted({p for f in facts for p in f})
    return tuple(tuple(f.get(p, 0) for p in primes) for f in facts)


def exponent_rank(values: Sequence[int]) -> int:
    """Rank over Q of the prime-exponent vectors of positive integers: their
    count less that of the independent relations prod values^z = 1."""
    return len(values) - len(kernel_basis(tuple(zip(*exponent_matrix(values))), len(values)))
