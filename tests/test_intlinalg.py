import os
import subprocess
import sys
from itertools import product
from fractions import Fraction
from math import gcd, lcm, prod

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphs.intlinalg import (exponent_rank, factorize, kernel_vector,
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
    z = kernel_vector(rows)
    null = ref.nullspace()
    if not null:
        assert z is None
        return
    # the first sympy basis vector, cleared of denominators, is primitive
    want = null[0] * lcm(*(int(x.q) for x in null[0]))
    assert list(z) == [int(x) for x in want]
    assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in rows)


def fraction_kernel_vector(a):
    """Reference: reduced row echelon form over Q, the first free column
    set to 1 and the solution cleared of denominators."""
    rows = [[Fraction(x) for x in r] for r in a]
    ncols = len(rows[0]) if rows else 0
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
    free = next((c for c in range(ncols) if c not in pivots), None)
    if free is None:
        return None
    z = [Fraction(0)] * ncols
    z[free] = Fraction(1)
    for r, c in enumerate(pivots):
        z[c] = -rows[r][free]
    denom = lcm(*(x.denominator for x in z))
    return tuple(int(x * denom) for x in z)


wider_matrix = st.integers(1, 7).flatmap(lambda cols: st.lists(
    st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5, 7, 30]), min_size=cols, max_size=cols),
    min_size=1, max_size=7))


@settings(max_examples=300, deadline=None)
@given(wider_matrix)
@example([[1, -2, 0, -2], [1, -3, -3, 0], [1, 0, 0, -5]])  # fan3's trace rows, up to sign
def test_kernel_vector_matches_fraction_elimination(rows):
    z, ref = kernel_vector(rows), fraction_kernel_vector(rows)
    if ref is None:
        assert z is None
        return
    # both fix the first free column and zero the others, so they agree up
    # to scaling; primitive with that column positive, they agree exactly
    assert z == ref and gcd(*z) == 1


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
