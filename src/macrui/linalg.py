"""Dense exact linear algebra over the scalar field Q(q, t)."""

from .errors import SingularSystemError
from .scalar import P_ONE, QTScalar, S_ZERO, over_common_denominator


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination of ``rows`` in place, pivoting on the first
    ``ncols`` columns.  The pivot row is the one at or below the current row,
    nonzero in the column, with the fewest terms in all (the first on a tie),
    so the cost of a solve hardly depends on the order of its rows.  Returns
    the pivot columns; later columns are carried along."""
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = min((r for r in range(rk, len(rows)) if not rows[r][col].is_zero()),
                    key=lambda r: sum(len(v.num.terms) + len(v.den.terms) for v in rows[r]),
                    default=None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = rows[rk][col].inverse()
        rows[rk] = [v * inv for v in rows[rk]]
        for r in range(len(rows)):
            if r == rk:
                continue
            factor = rows[r][col]
            if not factor.is_zero():
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[rk])]
        pivots.append(col)
    return pivots


def solve_square(matrix, columns):
    """Solve A x = b exactly for every right-hand side b in ``columns``, by
    one Gauss-Jordan pass with nonzero pivoting.

    ``matrix`` is a list of rows of QTScalar; each column a list of
    QTScalar.  Returns one solution per column.  Raises SingularSystemError
    when no unique solution exists.

    Each column is put over its own common denominator L first, the
    elimination runs on the numerators, and each unknown is divided by its
    column's L once at the end: over an integer matrix every step then meets
    integer denominators only.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or any(len(b) != n for b in columns):
        raise ValueError("solve_square needs a square system")
    cleared = [over_common_denominator(b) for b in columns]
    a = [list(row) + [QTScalar._raw(nums[i], P_ONE) for nums, _ in cleared]
         for i, row in enumerate(matrix)]
    if len(_row_reduce(a, n)) < n:
        raise SingularSystemError("the system has no unique solution")
    solutions = []
    for k, (_, den) in enumerate(cleared, start=n):
        x = [a[i][k] for i in range(n)]
        if den is not P_ONE:
            inv = QTScalar._raw(P_ONE, den)
            x = [v * inv for v in x]
        solutions.append(x)
    return solutions


def rank(matrix):
    """Rank of a matrix of QTScalar entries, by exact row reduction."""
    if not matrix:
        return 0
    rows = [list(r) for r in matrix]
    return len(_row_reduce(rows, len(rows[0])))


def vectors_rank(vectors):
    """Rank of a family of sparse vectors given as dicts key -> QTScalar."""
    keys = sorted({k for v in vectors for k in v})
    if not keys:
        return 0
    matrix = [[v.get(k, S_ZERO) for k in keys] for v in vectors]
    return rank(matrix)
