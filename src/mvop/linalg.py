"""Small exact linear algebra on constant matrices (tuples of tuples)."""
from __future__ import annotations

from fractions import Fraction


def identity(m: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(m)) for i in range(m)
    )


def zeros(rows: int, cols: int | None = None):
    cols = rows if cols is None else cols
    return ((Fraction(0),) * cols,) * rows


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("dimension mismatch in matrix product")
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m))
        for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a))


def is_zero_matrix(a) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_inverse(a):
    """Exact Gauss-Jordan inverse; raises on singular input."""
    m = len(a)
    if any(len(row) != m for row in a):
        raise ValueError("inverse needs a square matrix")
    work = [list(row) + list(ident_row) for row, ident_row in zip(a, identity(m))]
    for col in range(m):
        pivot = next((r for r in range(col, m) if work[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv_p = Fraction(1) / Fraction(work[col][col])
        work[col] = [v * inv_p for v in work[col]]
        for r in range(m):
            if r == col or work[r][col] == 0:
                continue
            factor = work[r][col]
            work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[m:]) for row in work)


def determinant(a) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    m = len(a)
    work = [list(map(Fraction, row)) for row in a]
    det = Fraction(1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if work[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv_p = Fraction(1) / work[col][col]
        for r in range(col + 1, m):
            factor = work[r][col] * inv_p
            if factor == 0:
                continue
            work[r] = [v - factor * w for v, w in zip(work[r], work[col])]
    return det


def leading_principal_minors(a):
    m = len(a)
    return tuple(
        determinant(tuple(row[: k + 1] for row in a[: k + 1])) for k in range(m)
    )


def is_positive_definite(a) -> bool:
    """Sylvester criterion on an exactly symmetric matrix."""
    return all(d > 0 for d in leading_principal_minors(a))
