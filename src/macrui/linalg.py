"""Dense exact linear algebra over the scalar field Q(q, t)."""

from .errors import SingularSystemError
from .scalar import P_ONE, QTScalar, S_ZERO, over_common_denominator


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination of ``rows`` in place, pivoting on the first
    ``ncols`` columns with the first nonzero entry at or below the current
    row.  Returns the pivot columns; later columns are carried along."""
    pivots = []
    for col in range(ncols):
        rk = len(pivots)
        pivot = next((r for r in range(rk, len(rows)) if not rows[r][col].is_zero()),
                     None)
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


def solve_square(matrix, rhs):
    """Solve A x = b exactly by Gaussian elimination with nonzero pivoting.

    ``matrix`` is a list of rows of QTScalar; ``rhs`` a list of QTScalar.
    Raises SingularSystemError when no unique solution exists.

    The right-hand side is put over one common denominator L first, the
    elimination runs on its numerators, and each unknown is divided by L
    once at the end: over an integer matrix every step then meets integer
    denominators only.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_square needs a square system")
    nums, den = over_common_denominator(rhs)
    a = [list(row) + [QTScalar._raw(nums[i], P_ONE)] for i, row in enumerate(matrix)]
    if len(_row_reduce(a, n)) < n:
        raise SingularSystemError("the system has no unique solution")
    if den is P_ONE:
        return [a[i][n] for i in range(n)]
    inv = QTScalar._raw(P_ONE, den)
    return [a[i][n] * inv for i in range(n)]


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
