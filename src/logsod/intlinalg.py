"""Exact integer and rational linear algebra at desk scale.

All routines work on plain python ints and fractions.Fraction; no floating
point anywhere.  Matrices are lists of row lists.  Sizes are expected to be
small (ranks <= 8 or so), so the implementations favour clarity and exactness
over asymptotics.  The rational routines take ints and Fractions alike,
so callers pass them as they have them.  Rank and solve read one
fraction-free (Bareiss) elimination of rows scaled to integers; only the
phase-1 simplex pivots in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

Rational = Union[int, Fraction]


def _nonzero(row: Sequence[int]) -> bool:
    return any(v != 0 for v in row)


def hermite_row_basis(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Canonical Hermite-form basis of the integer row span of `rows`.

    Returns echelon rows with strictly increasing pivot columns, positive
    pivots, and entries above each pivot reduced into [0, pivot).  The result
    is a basis of the subgroup of Z^ncols generated by the input rows and is
    unique for a given span, so outputs are reproducible.
    """
    pending = [list(map(int, r)) for r in rows if _nonzero(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        nz = [r for r in pending if r[col] != 0]
        zz = [r for r in pending if r[col] == 0]
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            reduced = [base]
            for r in nz[1:]:
                q = r[col] // base[col]
                rr = [a - q * b for a, b in zip(r, base)]
                if rr[col] != 0:
                    reduced.append(rr)
                elif _nonzero(rr):
                    zz.append(rr)
            nz = reduced
        if nz:
            pivot = nz[0]
            if pivot[col] < 0:
                pivot = [-v for v in pivot]
            basis.append(pivot)
        pending = [r for r in zz if _nonzero(r)]
    # reduce entries above each pivot for the canonical form; increasing
    # pivot order so later steps cannot disturb already-reduced columns
    for i in range(1, len(basis)):
        pc = next(j for j, v in enumerate(basis[i]) if v != 0)
        for k in range(i):
            q = basis[k][pc] // basis[i][pc]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return basis


def in_row_span(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the lattice spanned by an echelon basis.

    `basis` must come from hermite_row_basis (strictly increasing pivots).
    """
    v = list(map(int, vec))
    for row in basis:
        pc = next(j for j, x in enumerate(row) if x != 0)
        if v[pc] % row[pc] != 0:
            return False
        q = v[pc] // row[pc]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not _nonzero(v)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (U, D, V) with U*mat*V = D.

    U and V are unimodular; D is diagonal with d_1 | d_2 | ... and d_i >= 0.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    U = _identity(m)
    V = _identity(n)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        U[i] = [x - q * y for x, y in zip(U[i], U[j])]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in V:
            r[i] -= q * r[j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def pivot_smallest(t: int) -> bool:
        # move the first smallest nonzero entry of the block from (t, t) on
        # to (t, t); False when the block is zero
        pos = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pos is None or abs(a[i][j]) < abs(a[pos[0]][pos[1]])):
                    pos = (i, j)
        if pos is None:
            return False
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        return True

    t = 0
    while t < min(m, n) and pivot_smallest(t):
        while True:
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    row_op(i, t, a[i][t] // a[t][t])
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_op(j, t, a[t][j] // a[t][t])
            dirty = any(a[i][t] != 0 for i in range(t + 1, m)) or any(
                a[t][j] != 0 for j in range(t + 1, n)
            )
            if dirty:
                # a remainder became the new, strictly smaller pivot candidate
                pivot_smallest(t)
                continue
            # pivot must divide the rest of the block for the invariant chain
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row, then re-eliminate
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, a, V


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal entries of the Smith form that are at least 2."""
    _, d, _ = smith_normal_form(mat)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] > 1]


def _echelon(rows: Sequence[Sequence[Rational]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over the
    first `ncols` columns: each row is scaled to integers by the lcm of its
    denominators, and every division after that is exact, so the entries
    stay minors.  Returns the rows, pivot rows first, and the pivot columns:
    the leftmost columns independent of the columns before them."""
    a = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (den // v.denominator) for v in row])
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[col]
        for i in range(r + 1, len(a)):
            f = a[i][col]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(col)
    return a, pivots


def rational_rank(rows: Sequence[Sequence[Rational]]) -> int:
    """Rank over Q: the number of pivots of the fraction-free elimination."""
    return len(_echelon(rows, len(rows[0]) if rows else 0)[1])


def solve_linear(
    a_rows: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """One exact solution x of A x = b, or None if inconsistent: the
    fraction-free elimination of [A | b], then back-substitution with the
    free variables set to zero, so the output is deterministic."""
    n = len(a_rows[0]) if a_rows else 0
    a, pivots = _echelon([[*row, b[i]] for i, row in enumerate(a_rows)], n)
    if any(row[n] for row in a[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, col in reversed(list(zip(a, pivots))):
        x[col] = Fraction(row[n] - sum(row[j] * x[j] for j in range(col + 1, n)), row[col])
    return x


def feasible_nonneg(
    a_rows: Sequence[Sequence[Rational]], b: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """Exact phase-1 simplex: some x >= 0 with A x = b, or None.

    Bland's rule on a full tableau with artificial variables; all pivoting in
    Fraction arithmetic, so the feasibility verdict is exact.
    """
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    if m == 0:
        return []
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in a_rows[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        row += [Fraction(0)] * m + [rhs]
        row[n + i] = Fraction(1)
        tab.append(row)
    basis = list(range(n, n + m))
    # reduced-cost row for "minimize sum of artificials"
    z = [Fraction(0)] * (n + m + 1)
    for row in tab:
        z = [zz + v for zz, v in zip(z, row)]
    for j in range(n, n + m):
        z[j] -= 1
    while True:
        enter = next((j for j in range(n + m) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        best: Optional[Fraction] = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:  # phase-1 objective is bounded; defensive only
            raise ArithmeticError("unbounded phase-1 tableau")
        pe = tab[leave][enter]
        tab[leave] = [v / pe for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, tab[leave])]
        basis[leave] = enter
    if z[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return x


def nonneg_combination(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[Fraction]]:
    """Rational lambda >= 0 with sum(lambda_i * columns[i]) = target, or None."""
    if not columns:
        return [] if not _nonzero(target) else None
    dim = len(columns[0])
    return feasible_nonneg([[col[d] for col in columns] for d in range(dim)], list(target))


def separating_functional(
    zero_vecs: Sequence[Sequence[int]], pos_vecs: Sequence[Sequence[int]], dim: int
) -> Optional[list[Fraction]]:
    """Exact w with w.z = 0 for z in zero_vecs and w.v >= 1 for v in pos_vecs.

    Returns None when no such functional exists.  Encoded as a phase-1
    feasibility problem with w split into nonnegative parts and one surplus
    variable per inequality.
    """
    npos = len(pos_vecs)
    a_rows: list[list[int]] = []
    for zv in zero_vecs:
        a_rows.append(list(zv) + [-v for v in zv] + [0] * npos)
    for k, pv in enumerate(pos_vecs):
        row = list(pv) + [-v for v in pv] + [0] * npos
        row[2 * dim + k] = -1
        a_rows.append(row)
    b = [0] * len(zero_vecs) + [1] * npos
    sol = feasible_nonneg(a_rows, b)
    if sol is None:
        return None
    return [sol[i] - sol[dim + i] for i in range(dim)]
