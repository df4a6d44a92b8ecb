"""Tiny exact linear algebra over the rational scalars.

Matrices are lists of rows; rows are lists of scalars.  Everything is
fraction-exact, so rank and membership questions are decided, not
approximated.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import as_scalar


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [[as_scalar(x) for x in row] for row in rows]
    pivots = []
    lead = 0
    ncols = len(m[0]) if m else 0
    for r in range(len(m)):
        while lead < ncols:
            pivot_row = None
            for i in range(r, len(m)):
                if m[i][lead] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                lead += 1
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][lead]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][lead] != 0:
                    f = m[i][lead]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(lead)
            lead += 1
            break
        else:
            break
    nonzero = [row for row in m if any(x != 0 for x in row)]
    return nonzero, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref(rows)[0])


def nullspace(rows):
    """Basis rows of {x : A x = 0} for the matrix with the given rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pivot in zip(reduced, pivots):
            vec[pivot] = -row[free]
        basis.append(vec)
    return basis


def in_row_space(rows, vector) -> bool:
    """Whether the vector lies in the span of the rows."""
    base = [list(r) for r in rows if any(x != 0 for x in r)]
    if not any(x != 0 for x in vector):
        return True
    if not base:
        return False
    return rank(base) == rank(base + [list(vector)])


def subspace_equal(rows_a, rows_b) -> bool:
    ra = rank(rows_a) if rows_a else 0
    rb = rank(rows_b) if rows_b else 0
    if ra != rb:
        return False
    combined = [list(r) for r in rows_a] + [list(r) for r in rows_b]
    return rank(combined) == ra if combined else True
