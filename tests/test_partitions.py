"""Diagram combinatorics: conjugation, dominance, hooks, fat hooks."""

import pytest

from macrui import partitions as pt
from macrui.errors import InvalidPartitionError
from macrui.scalar import P_ONE, P_Q, P_T, QTPolynomial, QTScalar


def test_as_partition_rejects_bad_input():
    with pytest.raises(InvalidPartitionError):
        pt.as_partition((1, 2))
    with pytest.raises(InvalidPartitionError):
        pt.as_partition((2, 0))


def test_non_integer_parts_are_refused_not_truncated():
    for lam in ((2.7, 1), (2.0,), (1, "1"), "21"):
        with pytest.raises(InvalidPartitionError, match="must be integers"):
            pt.as_partition(lam)
    with pytest.raises(InvalidPartitionError, match="must be integers"):
        pt.hook_product((2.9,))


def test_conjugate_examples():
    assert pt.conjugate((3, 1)) == (2, 1, 1)
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_up_to_8():
    for d in range(9):
        for lam in pt.partitions_of(d):
            assert pt.conjugate(pt.conjugate(lam)) == lam


def test_dominance_examples():
    assert pt.dominance_leq((2, 2), (3, 1))
    assert not pt.dominance_leq((3, 1), (2, 2))
    assert pt.dominance_leq((4,), (4,))
    with pytest.raises(InvalidPartitionError):
        pt.dominance_leq((1,), (2,))


def test_arm_leg_examples():
    assert pt.arm_leg((2,), (1, 1)) == (1, 0, 0, 0)
    assert pt.arm_leg((1, 1), (1, 1)) == (0, 1, 0, 0)
    assert pt.arm_leg((1,), (1, 1)) == (0, 0, 0, 0)
    with pytest.raises(InvalidPartitionError):
        pt.arm_leg((2,), (2, 1))


def test_hook_product_examples():
    assert pt.hook_product((1,)) == QTScalar(P_Q - P_ONE)
    t = QTScalar(P_T)
    q = QTScalar(P_Q)
    q2 = QTScalar(QTPolynomial.monomial(2, 0))
    one = QTScalar(P_ONE)
    assert pt.hook_product((2,)) == t * (q2 - one) * (q - one)
    assert pt.hook_product((1, 1)) == q * (q - t) * (q - one)


def test_fat_hook_examples():
    assert not pt.in_fat_hook((2, 2), 1, 1)
    assert pt.in_fat_hook((), 0, 0)
    assert pt.in_fat_hook((5, 1, 1), 2, 1)


def test_fat_hook_conjugation_symmetry():
    for d in range(9):
        for lam in pt.partitions_of(d):
            for n in range(4):
                for m in range(4):
                    assert pt.in_fat_hook(lam, n, m) == pt.in_fat_hook(
                        pt.conjugate(lam), m, n)


def test_enumeration_examples():
    assert pt.partitions_of(4, fat_hook=(1, 1)) == [
        (4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)]
    assert pt.partitions_of(0) == [()]
    assert len(pt.partitions_of(3)) == 3
    # descending lexicographic order
    assert pt.partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert pt.partitions_of(5, max_length=2) == [(5,), (4, 1), (3, 2)]


def test_diagram_trace_identity_up_to_6():
    for d in range(7):
        for lam in pt.partitions_of(d):
            lhs, rhs = pt.conjugation_sum_identity(lam)
            assert lhs == rhs


def test_n_stat_as_box_sums():
    for d in range(9):
        for lam in pt.partitions_of(d):
            lsum = sum(pt.arm_leg(lam, b)[3] for b in pt.boxes(lam))
            asum = sum(pt.arm_leg(lam, b)[2] for b in pt.boxes(lam))
            assert pt.n_stat(lam) == lsum
            assert pt.n_stat(pt.conjugate(lam)) == asum


def is_horizontal_strip(lam, mu):
    """True iff mu <= lam and lam/mu has at most one box per column."""
    if not pt.contains(mu, lam):
        return False
    for i in range(1, len(lam) + 1):
        if not (pt.part(lam, i + 1) <= pt.part(mu, i) <= pt.part(lam, i)):
            return False
    return True


def test_horizontal_strips():
    assert set(pt.horizontal_strips_below((2, 1))) == {(2, 1), (2,), (1, 1), (1,)}
    assert pt.horizontal_strips_below(()) == [()]
    assert is_horizontal_strip((2, 1), (1,))
    assert is_horizontal_strip((2, 2), (2,))  # one full row is a strip
    assert not is_horizontal_strip((2, 2), (1, 1))  # two boxes share a column
    for lam in pt.partitions_up_to(6):
        want = [mu for mu in pt.subpartitions(lam) if is_horizontal_strip(lam, mu)]
        assert sorted(pt.horizontal_strips_below(lam)) == sorted(want), lam


def test_subpartitions():
    assert set(pt.subpartitions((2, 1))) == {(), (1,), (2,), (1, 1), (2, 1)}
