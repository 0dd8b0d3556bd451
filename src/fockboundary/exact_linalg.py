"""Small exact linear algebra over the rationals.

Matrices are lists of lists of Fractions (or ints).  Sizes here are
tiny (tens of columns), so plain fraction-free-enough Gaussian
elimination is adequate and keeps every verdict exact.
"""

from __future__ import annotations

from fractions import Fraction


def _as_rows(matrix):
    return [[Fraction(v) for v in row] for row in matrix]


class RowReducer:
    """Incremental reduced row echelon accumulator.  Feed rows one at a
    time; maintains pivot columns and fully reduced pivot rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []  # list of (pivot_col, row)

    def reduce_row(self, row):
        row = [Fraction(v) for v in row]
        for pivot_col, prow in self.rows:
            if row[pivot_col] != 0:
                factor = row[pivot_col]
                row = [a - factor * b for a, b in zip(row, prow)]
        return row

    def add_row(self, row):
        """Returns True if the row enlarged the span."""
        row = self.reduce_row(row)
        for col, v in enumerate(row):
            if v != 0:
                inv = 1 / v
                row = [a * inv for a in row]
                for k, (pc, prow) in enumerate(self.rows):
                    if prow[col] != 0:
                        f = prow[col]
                        self.rows[k] = (pc, [a - f * b for a, b in zip(prow, row)])
                self.rows.append((col, row))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)

    def nullspace(self):
        """Basis of the right nullspace, one vector per free column."""
        pivots = dict((pc, row) for pc, row in self.rows)
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.ncols
            vec[fc] = Fraction(1)
            for pc, row in self.rows:
                vec[pc] = -row[fc]
            basis.append(vec)
        return basis


def rank(matrix):
    rows = _as_rows(matrix)
    if not rows:
        return 0
    rr = RowReducer(len(rows[0]))
    for row in rows:
        rr.add_row(row)
    return rr.rank


def nullspace(matrix, ncols=None):
    rows = _as_rows(matrix)
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    rr = RowReducer(ncols)
    for row in rows:
        rr.add_row(row)
    return rr.nullspace()


def is_psd(matrix):
    """Exact PSD test for a rational symmetric matrix via recursive
    symmetric pivoting: a PSD matrix with a zero diagonal entry must
    have the whole corresponding row zero."""
    a = _as_rows(matrix)
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if a[i][j] != a[j][i]:
                return False
    active = list(range(n))
    while active:
        # choose a positive diagonal pivot if one exists
        pivot = None
        for i in active:
            if a[i][i] > 0:
                pivot = i
                break
            if a[i][i] < 0:
                return False
        if pivot is None:
            # all active diagonal entries are zero: need all rows zero
            for i in active:
                for j in active:
                    if a[i][j] != 0:
                        return False
            return True
        p = a[pivot][pivot]
        active.remove(pivot)
        prow = list(a[pivot])
        for i in active:
            f = a[i][pivot] / p
            for j in active:
                a[i][j] -= f * prow[j]
            a[i][pivot] = Fraction(0)
            a[pivot][i] = Fraction(0)
    return True


def span_equal(basis_a, basis_b):
    """Do two families of rational vectors span the same subspace?"""
    if not basis_a and not basis_b:
        return True
    ncols = len(basis_a[0]) if basis_a else len(basis_b[0])
    ra = RowReducer(ncols)
    for v in basis_a:
        ra.add_row(v)
    rb = RowReducer(ncols)
    for v in basis_b:
        rb.add_row(v)
    if ra.rank != rb.rank:
        return False
    for v in basis_b:
        if any(x != 0 for x in ra.reduce_row(v)):
            return False
    return True
