import os
import subprocess
import sys
from itertools import product
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphs.intlinalg import (exponent_rank, factorize, kernel_basis,
                               lattice_member, rank)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def brute_lattice_member(gens, target, coeff_bound=6):
    """Oracle: search integer coefficients in a box."""
    if not gens:
        return all(x == 0 for x in target)
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=len(gens)):
        combo = [sum(c * g[i] for c, g in zip(coeffs, gens))
                 for i in range(len(target))]
        if list(combo) == list(target):
            return True
    return False


small_vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=3), small_vec)
def test_lattice_member_matches_bruteforce(gens, target):
    got = lattice_member([list(g) for g in gens], list(target))
    want = brute_lattice_member(gens, target)
    if want:
        assert got
    elif not got:
        # brute force box may miss distant combinations only in one direction
        assert not want


def test_lattice_member_exact_cases():
    assert lattice_member([[2, 0], [0, 2]], [4, -6])
    assert not lattice_member([[2, 0], [0, 2]], [1, 0])
    assert lattice_member([[2, 3]], [-4, -6])
    assert not lattice_member([[2, 3]], [4, 5])
    assert lattice_member([], [0, 0])
    assert not lattice_member([], [1, 0])


def relation_bound(values):
    """No exponent of a relation needs to exceed this bound.

    The relations are spanned by Cramer vectors whose entries are r x r
    minors of the prime-exponent matrix, r < n its rank.  The exponents of
    v sum to at most log2(v), so by Hadamard's inequality a minor is at most
    the product of the r largest values of bit_length(v) - 1.
    """
    return prod(sorted(v.bit_length() - 1 for v in values)[1:])


def brute_exponent_rank(values):
    """Rank = n minus dimension of multiplicative relations a^x b^y ... = 1."""
    n = len(values)
    bound = relation_bound(values)
    relations = []
    for exps in product(range(-bound, bound + 1), repeat=n):
        if all(e == 0 for e in exps):
            continue
        num = den = 1
        for v, e in zip(values, exps):
            if e > 0:
                num *= v ** e
            else:
                den *= v ** (-e)
        if num == den:
            relations.append(exps)
    if not relations:
        return n
    return n - sympy.Matrix(relations).rank()


def test_exponent_rank_cases():
    assert exponent_rank([3, 2]) == 2
    assert exponent_rank([2, 4]) == 1
    assert exponent_rank([6, 10, 15]) == 3
    assert exponent_rank([2, 3, 6]) == 2
    assert exponent_rank([4, 8]) == 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=3))
@example([6, 8, 9])    # 6^6 = 8^2 * 9^3
@example([8, 9, 12])   # 12^6 = 8^4 * 9^3
def test_exponent_rank_matches_bruteforce(values):
    assert exponent_rank(values) == brute_exponent_rank(values)


small_matrix = st.integers(1, 4).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
    min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(small_matrix)
def test_rank_and_kernel_match_sympy(rows):
    ref = sympy.Matrix(rows)
    assert rank(rows) == ref.rank()
    basis = kernel_basis(rows, len(rows[0]))
    # sympy's vector of each free column, cleared of denominators, is primitive
    want = [v * lcm(*(int(x.q) for x in v)) for v in ref.nullspace()]
    assert basis == [tuple(int(x) for x in v) for v in want]
    assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in rows for z in basis)


def fraction_kernel_basis(a, ncols):
    """Reference: reduced row echelon form over Q, and for each free column
    the solution with that column 1 and the other free columns 0, cleared
    of denominators."""
    rows = [[Fraction(x) for x in r] for r in a]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        z = [Fraction(0)] * ncols
        z[free] = Fraction(1)
        for r, c in enumerate(pivots):
            z[c] = -rows[r][free]
        denom = lcm(*(x.denominator for x in z))
        basis.append(tuple(int(x * denom) for x in z))
    return basis


wider_matrix = st.integers(1, 7).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, 7, 30]), min_size=cols, max_size=cols),
    min_size=1, max_size=7))


@settings(max_examples=300, deadline=None)
@given(wider_matrix)
@example([[1, -2, 0, -2], [1, -3, -3, 0], [1, 0, 0, -5]])  # fan3's trace rows, up to sign
def test_kernel_vector_matches_fraction_elimination(rows):
    ncols = len(rows[0])
    basis, ref = kernel_basis(rows, ncols), fraction_kernel_basis(rows, ncols)
    # each vector fixes its free column and zeroes the others, so the two
    # agree up to scaling; primitive with that column positive, exactly
    assert basis == ref and all(gcd(*z) == 1 for z in basis)
    assert len(basis) == ncols - rank(rows)


def test_kernel_basis_takes_the_column_count():
    # no rows: every vector is in the kernel
    assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis([], 0) == []
    assert kernel_basis([[1, -2]], 2) == [(2, 1)]
    with pytest.raises(ValueError):
        kernel_basis([[1, 2]], 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200))
def test_factorize_matches_sympy(n):
    assert factorize(n) == sympy.factorint(n)


def test_no_numpy_or_sympy_at_run_time():
    script = (
        "import sys\n"
        "from kgraphs import TElement, families, kp_report, t_equal\n"
        "kp_report(families.cycle_pullback())\n"
        "kp_report(families.one_vertex_3x2())\n"
        "t_equal(families.cycle_pullback(), TElement.gen('u', (0, 0)), "
        "TElement.gen('z', (0, 0)))\n"
        "print(sorted({'numpy', 'sympy'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"
