"""Small exact linear algebra over the rationals.

Matrices are lists of lists of Fractions (or ints).  Sizes here are
small (hundreds of columns, with few nonzero entries a row), so plain
Gaussian elimination on sparse rows is adequate and keeps every
verdict exact.
"""

from __future__ import annotations

from fractions import Fraction


def _as_rows(matrix):
    return [[Fraction(v) for v in row] for row in matrix]


def _sparse(row):
    """A row, a sequence or a dict of entries by column, as a dict of its
    nonzero entries by column."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: Fraction(v) for c, v in items if v}


def _subtract(row, f, other):
    """row -= f * other, in place, on sparse rows, keeping no zero."""
    for c, v in other.items():
        x = row.get(c, 0) - f * v
        if x:
            row[c] = x
        else:
            del row[c]


class RowReducer:
    """Incremental reduced row echelon accumulator.  Feed rows one at a
    time, each a sequence or a dict of entries by column; maintains the
    fully reduced pivot rows, each sparse, a dict of its nonzero entries
    by column, so a row costs its nonzero entries.  ``ncols`` is read by
    ``nullspace`` only."""

    def __init__(self, ncols=None):
        self.ncols = ncols
        self.pivots = {}  # pivot column -> row, 1 at the pivot column

    def reduce_row(self, row):
        """The row less the pivot rows: a dict of its nonzero entries."""
        row = _sparse(row)
        # a pivot row is 0 at every other pivot column, so one pass does
        for col in [c for c in row if c in self.pivots]:
            _subtract(row, row[col], self.pivots[col])
        return row

    def add_row(self, row):
        """Returns True if the row enlarged the span."""
        row = self.reduce_row(row)
        if not row:
            return False
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        for prow in self.pivots.values():
            if col in prow:
                _subtract(prow, prow[col], row)
        self.pivots[col] = row
        return True

    @property
    def rank(self):
        return len(self.pivots)

    def nullspace(self):
        """Basis of the right nullspace, one vector per free column."""
        basis = []
        for fc in range(self.ncols):
            if fc not in self.pivots:
                vec = [Fraction(0)] * self.ncols
                vec[fc] = Fraction(1)
                for pc, row in self.pivots.items():
                    vec[pc] = -row.get(fc, Fraction(0))
                basis.append(vec)
        return basis


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
    """Do two families of rational vectors, each a sequence or a dict of
    entries by column, span the same subspace?"""
    ra, rb = RowReducer(), RowReducer()
    for v in basis_a:
        ra.add_row(v)
    for v in basis_b:
        rb.add_row(v)
    return ra.rank == rb.rank and not any(ra.reduce_row(v) for v in basis_b)
