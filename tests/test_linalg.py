"""Dense exact linear algebra over Q(q, t): solving and rank."""

import pytest

from macrui import partitions as pt
from macrui.errors import SingularSystemError
from macrui.linalg import _row_reduce, rank, solve_square, vectors_rank
from macrui.polyring import VarSpace
from macrui.scalar import QTPolynomial, QTScalar, S_ONE, S_Q, S_T, S_ZERO, qt_ratio
from macrui.shifted import partition_point
from macrui.symfun import _cleared_products


def test_solve_square_three_by_three():
    a = [[S_Q, S_ONE, S_ZERO],
         [S_T, S_Q - S_T, S_ONE],
         [S_ONE, S_ZERO, qt_ratio(2)]]
    b = [S_ONE, S_Q * S_T, S_ONE - S_T]
    x = solve_square(a, [b])[0]
    assert len(x) == 3
    for row, rhs in zip(a, b):
        total = S_ZERO
        for coeff, value in zip(row, x):
            total = total + coeff * value
        assert total == rhs
    # the solution is not trivially polynomial: some entry has a denominator
    assert any(v.den.terms != S_ONE.num.terms for v in x)


def test_solve_square_singular():
    a = [[S_Q, S_T], [S_Q * S_Q, S_Q * S_T]]
    with pytest.raises(SingularSystemError):
        solve_square(a, [[S_ONE, S_ONE]])[0]
    with pytest.raises(SingularSystemError):
        solve_square([[S_ZERO, S_ONE], [S_ZERO, S_T]], [[S_ONE, S_ZERO]])[0]


def test_solve_square_needs_a_square_system():
    with pytest.raises(ValueError):
        solve_square([[S_ONE, S_Q]], [[S_ONE]])[0]
    with pytest.raises(ValueError):
        solve_square([[S_ONE, S_ZERO], [S_ZERO, S_ONE]], [[S_ONE]])[0]


def test_solve_square_solves_every_column():
    a = [[S_Q, S_ONE, S_ZERO],
         [S_T, S_Q - S_T, S_ONE],
         [S_ONE, S_ZERO, qt_ratio(2)]]
    columns = [[S_ONE, S_Q * S_T, S_ONE - S_T],
               [qt_ratio(1), S_ONE / S_Q, S_ZERO],  # a column with denominators
               [S_ZERO, S_ZERO, S_ZERO],
               [S_T, S_ZERO, S_Q]]
    solutions = solve_square(a, columns)
    assert len(solutions) == len(columns)
    for b, x in zip(columns, solutions):
        assert len(x) == 3
        for row, rhs in zip(a, b):
            total = S_ZERO
            for coeff, value in zip(row, x):
                total = total + coeff * value
            assert total == rhs
    assert all(v.is_zero() for v in solutions[2])
    # each column is solved as it would be alone
    for b, x in zip(columns, solutions):
        assert solve_square(a, [b]) == [x]


def test_solve_square_many_columns_singular_or_ragged():
    a = [[S_Q, S_T], [S_Q * S_Q, S_Q * S_T]]
    with pytest.raises(SingularSystemError):
        solve_square(a, [[S_ONE, S_ONE], [S_Q, S_ZERO]])
    with pytest.raises(ValueError):
        solve_square([[S_ONE, S_ZERO], [S_ZERO, S_ONE]], [[S_ONE, S_Q], [S_ONE]])


def test_rank_examples():
    # a zero column in front, and a third row dependent on the first two
    m = [[S_ZERO, S_Q, S_ONE, S_T],
         [S_ZERO, S_ONE, S_T, S_ZERO],
         [S_ZERO, S_Q + S_ONE, S_ONE + S_T, S_T]]
    assert rank(m) == 2
    assert rank([[S_ZERO, S_ZERO], [S_ZERO, S_ZERO]]) == 0
    assert rank([]) == 0
    assert rank([[S_ONE], [S_Q], [S_T]]) == 1


def test_vectors_rank_examples():
    assert vectors_rank([]) == 0
    assert vectors_rank([{}, {}]) == 0
    assert vectors_rank([{(1,): S_Q}, {(1,): S_T, (2,): S_ONE}]) == 2


def test_pivot_is_the_row_with_the_fewest_terms():
    big = QTScalar(QTPolynomial({(2, 0): 1, (0, 1): 1, (0, 0): 3}),
                   QTPolynomial({(1, 1): 1, (0, 0): 1}))
    rows = [[big, S_ONE], [S_T, S_ONE], [S_T + 1, S_ONE]]
    assert _row_reduce(rows, 1) == [0]
    # the row of t, scaled to a unit pivot, moved to the top
    assert rows[0] == [S_ONE, S_T.inverse()]


def test_solve_does_not_depend_on_the_row_order():
    # the weight-4 vanishing system, its points in partitions_up_to order and reversed
    basis = pt.partitions_up_to(4)
    matrix = [[v for _, v in _cleared_products("pstar", VarSpace.z(len(nu)), basis,
                                               partition_point(nu, len(nu)))]
              for nu in basis]
    columns = [[pt.hook_product(lam) if nu == lam else S_ZERO for nu in basis]
               for lam in pt.partitions_of(4)]
    forward = solve_square(matrix, columns)
    backward = solve_square(matrix[::-1], [b[::-1] for b in columns])
    assert ([[(v.num.terms, v.den.terms) for v in x] for x in forward]
            == [[(v.num.terms, v.den.terms) for v in x] for x in backward])
