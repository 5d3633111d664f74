"""Exact integer linear algebra kernel tests."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from logsod.intlinalg import (
    feasible_nonneg,
    hermite_row_basis,
    in_row_span,
    invariant_factors,
    nonneg_combination,
    rational_rank,
    separating_functional,
    smith_normal_form,
    solve_linear,
)
from oracles import rank


def mat_mul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
        for row in a
    ]


def diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


class TestHermite:
    def test_even_sum_lattice(self):
        assert hermite_row_basis([[2, 0], [1, 1], [0, 2]], 2) == [[1, 1], [0, 2]]

    def test_full_lattice(self):
        assert hermite_row_basis([[1, 0], [0, 1]], 2) == [[1, 0], [0, 1]]

    def test_single_generator(self):
        assert hermite_row_basis([[3]], 1) == [[3]]
        assert hermite_row_basis([[-4, 2]], 2) == [[4, -2]]

    def test_zero_rows_dropped(self):
        assert hermite_row_basis([[0, 0], [2, 4]], 2) == [[2, 4]]

    def test_canonical_shape(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h = hermite_row_basis(m, len(m[0]))
            pivots = []
            for row in h:
                nz = next(j for j, x in enumerate(row) if x != 0)
                assert row[nz] > 0
                pivots.append(nz)
            assert pivots == sorted(set(pivots))
            for i, row in enumerate(h):
                for above in h[:i]:
                    p = pivots[i]
                    assert 0 <= above[p] < row[p]

    def test_span_preserved(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            h = hermite_row_basis(m, len(m[0]))
            for row in m:
                assert in_row_span(h, row)
            for row in h:
                assert in_row_span(hermite_row_basis(m + [], len(m[0])), row)

    def test_membership(self):
        basis = hermite_row_basis([[2, 0], [1, 1], [0, 2]], 2)
        assert not in_row_span(basis, [1, 0])
        assert in_row_span(basis, [3, 1])
        assert in_row_span(basis, [0, 0])


class TestSmith:
    def test_transform_identity_and_factors(self):
        rng = random.Random(42)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            u, d, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(sympy.Matrix(u).det()) == 1
            assert abs(sympy.Matrix(v).det()) == 1
            diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a != 0 and b % a == 0
            expected = [int(x) for x in sympy_snf(sympy.Matrix(m)).diagonal()]
            got = [abs(x) for x in diag if x]
            want = sorted(abs(x) for x in expected if x)
            assert sorted(got) == want

    def test_frozen_small_cases(self):
        assert invariant_factors([[1, 1], [1, -1]]) == [2]
        assert invariant_factors([[2, 0], [0, 3]]) == [6]
        assert diagonal(smith_normal_form([[2, 0], [0, 3]])[1]) == [1, 6]
        assert invariant_factors([[1, 0], [0, 1]]) == []

    def test_mixed_root_lattice(self):
        rows = [[1, 1, -1], [0, 2, 0], [0, 0, 3]]
        assert diagonal(smith_normal_form(rows)[1]) == [1, 1, 6]
        assert invariant_factors(rows) == [6]


class TestSolve:
    def test_unique_solution(self):
        a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
        assert solve_linear(a, [Fraction(1), Fraction(3)]) == [
            Fraction(1, 2),
            Fraction(3, 2),
        ]

    def test_inconsistent(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert solve_linear(a, [Fraction(0), Fraction(1)]) is None

    def test_rank(self):
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0], [0, 1]]) == 2
        assert rational_rank([[0, 0]]) == 0


_entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


@st.composite
def systems(draw):
    """A matrix of ints or Fractions up to 5 x 6 and a right-hand side."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    return rows, [draw(_entries) for _ in range(m)]


@st.composite
def low_rank_rows(draw, entries):
    """Up to 6 rows of up to 6 entries, each row a combination of at most
    four base rows, so that ranks below full are common; the entries of
    the base rows and the coefficients come from `entries`."""
    m, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
    base = [[draw(entries) for _ in range(n)] for _ in range(k)]
    zero = 0 * draw(entries)
    rows = []
    for _ in range(m):
        coeffs = [draw(entries) for _ in base]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, base)), zero) for j in range(n)])
    return rows


# Small entries make zero pivots and row swaps common; large ones make the
# fraction-free entries grow.
_ints = st.one_of(st.integers(-2, 2), st.integers(-30, 30))


class TestRankAgainstOracle:
    """The fraction-free rank against the oracle's Fraction elimination."""

    @settings(max_examples=300, deadline=None)
    @given(low_rank_rows(_ints))
    def test_int_rows(self, rows):
        assert rational_rank(rows) == rank(rows)

    @settings(max_examples=300, deadline=None)
    @given(low_rank_rows(st.builds(Fraction, _ints, st.integers(1, 12))))
    def test_fraction_rows(self, rows):
        assert rational_rank(rows) == rank(rows)


class TestEliminationAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_rank(self, system):
        rows, _ = system
        assert rational_rank(rows) == sympy.Matrix(rows).rank()

    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_solve(self, system):
        rows, b = system
        a = sympy.Matrix(rows)
        consistent = a.rank() == a.row_join(sympy.Matrix(b)).rank()
        x = solve_linear(rows, b)
        assert (x is not None) == consistent
        if x is None:
            return
        assert all(isinstance(v, Fraction) for v in x)
        assert [sum(c * v for c, v in zip(row, x)) for row in rows] == b
        _, pivots = a.rref()
        assert all(v == 0 for j, v in enumerate(x) if j not in pivots)


class TestFeasibility:
    def test_cone_membership(self):
        assert nonneg_combination([(2, 0), (0, 2)], (1, 1)) == [
            Fraction(1, 2),
            Fraction(1, 2),
        ]
        assert nonneg_combination([(2, 0), (0, 2)], (-1, 0)) is None
        assert nonneg_combination([(1, 0), (1, 3)], (1, 1)) is not None
        assert nonneg_combination([(1, 0), (1, 3)], (0, 1)) is None

    def test_feasible_nonneg_roundtrip(self):
        rng = random.Random(3)
        for _ in range(30):
            cols = [
                tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)
            ]
            coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in cols]
            target = tuple(
                sum(c * v[k] for c, v in zip(coeffs, cols)) for k in range(3)
            )
            got = nonneg_combination(cols, target)
            assert got is not None
            rebuilt = tuple(
                sum(c * v[k] for c, v in zip(got, cols)) for k in range(3)
            )
            assert rebuilt == target
            assert all(c >= 0 for c in got)

    def test_separating_functional(self):
        w = separating_functional([(0, 2)], [(2, 0), (1, 1)], 2)
        assert w is not None
        assert sum(a * b for a, b in zip(w, (0, 2))) == 0
        assert sum(a * b for a, b in zip(w, (2, 0))) >= 1
        assert sum(a * b for a, b in zip(w, (1, 1))) >= 1

    def test_separating_functional_infeasible(self):
        assert separating_functional([(1, 1)], [(2, 0), (0, 2)], 2) is None
