"""The cleared sums against the routes they replaced.

``over_common_denominator`` joins denominators that are equal up to an
integer factor by the lcm of their contents; the reference joins every new
denominator with a gcd.  ``linear_combination`` sums its Z[q, t] numerators
as Kronecker-packed integers; the reference adds them as term dicts.
``solve_square`` eliminates on the numerators of a right-hand side put over
one common denominator; the reference is Gauss-Jordan on the right-hand side
as given.  ``macdonald_m_expansion`` sums u_nu c_{nu mu} over one common
denominator; the reference adds the products one at a time.  Each pair must
agree exactly.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from macrui import partitions as pt, scalar
from macrui.errors import SingularSystemError
from macrui.linalg import _row_reduce, solve_square
from macrui.macdonald import (_mr_monomial_expansion, macdonald_m_expansion,
                              macdonald_p_expansion)
from macrui.operators import mr_eigenvalue
from macrui.polyring import (MultiPoly, VarSpace, _pack, _unpack,
                             linear_combination)
from macrui.scalar import (P_ONE, QTPolynomial, QTScalar, S_ONE, S_ZERO,
                           _as_scalar, over_common_denominator, qt_gcd)
from macrui.symfun import (SymExpansion, _cleared_representatives,
                           _power_in_monomial_matrix, from_monomial_expansion,
                           monomial_symmetric)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# the reference routes
# ---------------------------------------------------------------------------

def reference_over_common_denominator(scalars):
    scalars = list(scalars)
    den = P_ONE
    for c in scalars:
        d = c.den
        if d.terms == P_ONE.terms or d.terms == den.terms:
            continue
        den = d if den.terms == P_ONE.terms else den * d.exact_divide(qt_gcd(den, d))
    return [c.num if c.den.terms == den.terms else c.num * den.exact_divide(c.den)
            for c in scalars], den


def reference_linear_combination(space, pairs):
    items = [(_as_scalar(c), poly) for c, poly in pairs]
    items = [(c, poly) for c, poly in items if not (c.is_zero() or poly.is_zero())]
    mults, den = reference_over_common_denominator(c for c, _ in items)
    acc = {}
    for mult, (_, poly) in zip(mults, items):
        for e, v in poly.terms.items():
            contrib = v.num * mult
            s = acc.get(e)
            acc[e] = contrib if s is None else s + contrib
    terms = {}
    for e, num in acc.items():
        val = QTScalar(num, den)
        if not val.is_zero():
            terms[e] = val
    return MultiPoly._raw(space, terms)


def reference_solve_square(matrix, rhs):
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if len(_row_reduce(a, n)) < n:
        raise SingularSystemError("the system has no unique solution")
    return [a[i][n] for i in range(n)]


def reference_m_expansion(lam, N):
    parts = pt.partitions_of(pt.weight(lam), max_length=N)
    clam = mr_eigenvalue(lam)
    u = {lam: S_ONE}
    for mu in parts[parts.index(lam) + 1:]:
        s = S_ZERO
        for nu, unu in u.items():
            c = _mr_monomial_expansion(nu, N).get(mu)
            if c is not None:
                s = s + unu * c
        if not s.is_zero():
            u[mu] = s / (clam - mr_eigenvalue(mu))
    return u


def _same(a, b):
    """Equal values with equal representations, denominators included."""
    assert a == b
    assert [(c.num.terms, c.den.terms) for c in a] == [(c.num.terms, c.den.terms) for c in b]


# ---------------------------------------------------------------------------
# common denominators
# ---------------------------------------------------------------------------

def test_common_denominator_of_p_coefficients_matches_reference():
    for d in range(1, 6):
        for lam in pt.partitions_of(d):
            coeffs = list(macdonald_p_expansion(lam).coeffs.values())
            nums, den = over_common_denominator(coeffs)
            ref_nums, ref_den = reference_over_common_denominator(coeffs)
            assert den.terms == ref_den.terms, lam
            assert [n.terms for n in nums] == [n.terms for n in ref_nums], lam


def test_p_coefficients_share_a_primitive_denominator_up_to_content():
    # the case the content join is for: the p-coefficients of P_(3,1,1)
    # have the denominators 4, 5, 6, 8, 12 and 120 times one primitive part
    prim = QTPolynomial({(3, 0): 1, (2, 1): -1, (1, 3): -1, (0, 4): 1})
    contents = set()
    for c in macdonald_p_expansion((3, 1, 1)).coeffs.values():
        k = c.den.exact_divide(prim)
        assert len(k.terms) == 1 and (0, 0) in k.terms
        contents.add(k.terms[(0, 0)])
    assert contents == {4, 5, 6, 8, 12, 120}
    assert over_common_denominator(macdonald_p_expansion((3, 1, 1)).coeffs.values())[1] \
        == prim * 120


def test_content_join_takes_no_gcd(monkeypatch):
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    monkeypatch.setattr(scalar, "qt_gcd", counted("qt_gcd", scalar.qt_gcd))
    monkeypatch.setattr(scalar, "_gcd_cofactors",
                        counted("_gcd_cofactors", scalar._gcd_cofactors))
    prim = QTPolynomial({(3, 0): 1, (2, 1): -1, (1, 3): -1, (0, 4): 1})
    num = QTPolynomial({(1, 1): 1, (0, 0): 1})
    scalars = [QTScalar._raw(num * k, prim * c) for k, c in ((1, 4), (3, 5), (1, 6), (7, 120))]
    scalars += [S_ONE, QTScalar._raw(num, P_ONE * 9)]
    nums, den = over_common_denominator(scalars)
    assert calls == []
    assert den == prim * 360
    for n, c in zip(nums, scalars):
        assert QTScalar(n, den) == c


@settings(max_examples=80, deadline=None)
@given(st.lists(st.builds(lambda n, d, k: QTScalar(n, d * k),
                          st.sampled_from([P_ONE, QTPolynomial({(1, 0): 2, (0, 1): -3}),
                                           QTPolynomial({(2, 1): 1, (0, 0): 5})]),
                          st.sampled_from([P_ONE, QTPolynomial({(1, 0): 1, (0, 0): -1}),
                                           QTPolynomial({(1, 0): 1, (0, 1): -1}),
                                           QTPolynomial({(2, 0): 1, (0, 0): -1})]),
                          st.integers(min_value=-12, max_value=12).filter(bool)),
                max_size=6))
def test_common_denominator_matches_reference(scalars):
    nums, den = over_common_denominator(scalars)
    ref_nums, ref_den = reference_over_common_denominator(scalars)
    assert den.terms == ref_den.terms
    assert [n.terms for n in nums] == [n.terms for n in ref_nums]


# ---------------------------------------------------------------------------
# packed numerator sums
# ---------------------------------------------------------------------------

Z2 = VarSpace.z(2)

big_or_small = st.one_of(st.integers(min_value=-5, max_value=5),
                         st.integers(min_value=2 ** 64, max_value=2 ** 90),
                         st.integers(min_value=-2 ** 90, max_value=-2 ** 64))
# gaps between the exponents, so the packed sums have runs of zero digits
gapped = st.sampled_from([0, 1, 2, 9, 23])


@st.composite
def qt_polys(draw, max_terms=4, coeffs=big_or_small):
    return QTPolynomial({(draw(gapped), draw(gapped)): draw(coeffs)
                         for _ in range(draw(st.integers(min_value=0, max_value=max_terms)))})


@st.composite
def den_free_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = (draw(st.integers(min_value=0, max_value=3)), draw(gapped))
        terms[e] = QTScalar(draw(qt_polys()))
    return MultiPoly(Z2, terms)


@st.composite
def combinations(draw):
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # small denominators keep the gcds of the reference routes cheap
        den = draw(qt_polys(max_terms=2, coeffs=st.integers(min_value=-5, max_value=5))
                   .filter(lambda p: not p.is_zero()))
        c, poly = QTScalar(draw(qt_polys()), den), draw(den_free_polys())
        pairs.append((c, poly))
        if draw(st.booleans()):  # a pair that cancels this one exactly
            pairs.append((-c, poly) if draw(st.booleans()) else (c, -poly))
    return pairs


@settings(max_examples=100, deadline=None)
@given(combinations())
def test_packed_sum_matches_dict_sum(pairs):
    got = linear_combination(Z2, pairs)
    assert got == reference_linear_combination(Z2, pairs)
    direct = MultiPoly.zero(Z2)
    for c, poly in pairs:
        direct = direct + poly.scale(c)
    assert got == direct


@settings(max_examples=150, deadline=None)
@given(qt_polys(max_terms=8), st.integers(min_value=1, max_value=30))
def test_pack_round_trip(p, stride):
    stride = max(stride, 1 + max((a for a, _ in p.terms), default=0))
    bits = max(map(abs, p.terms.values()), default=0).bit_length() + 2
    assert _unpack(_pack(p.terms, bits, stride), bits, stride) == p.terms


def test_packed_sum_edge_cases():
    x1 = MultiPoly.variable(Z2, 0)
    assert linear_combination(Z2, []).is_zero()
    assert linear_combination(Z2, [(S_ZERO, x1), (S_ONE, MultiPoly.zero(Z2))]).is_zero()
    huge = QTScalar(QTPolynomial({(40, 0): 2 ** 100, (0, 7): -(2 ** 100) + 1}),
                    QTPolynomial({(1, 0): 3, (0, 0): -1}))
    assert linear_combination(Z2, [(huge, x1), (-huge, x1)]).is_zero()
    assert linear_combination(Z2, [(huge, x1), (S_ONE, x1)]) == x1.scale(huge + 1)


def test_packed_sum_matches_dict_sum_on_the_super_restriction():
    for d in (3, 4, 5):
        for lam in pt.partitions_of(d):
            pairs = []
            for mu, c in macdonald_p_expansion(lam).coeffs.items():
                s_mu, cleared = _cleared_representatives(mu, 2, 2)
                pairs.append((c / s_mu, cleared))
            space = VarSpace.xy(2, 2)
            got = linear_combination(space, pairs)
            want = reference_linear_combination(space, pairs)
            assert got == want, lam
            _same(list(got.terms.values()), [want.terms[e] for e in got.terms])


def test_packed_sum_matches_dict_sum_on_monomial_renderings():
    for lam in pt.partitions_of(5):
        e = SymExpansion("m", 5, macdonald_m_expansion(lam, 5))
        pairs = [(c, monomial_symmetric(mu, 5)) for mu, c in e.coeffs.items()]
        assert from_monomial_expansion(e) == reference_linear_combination(VarSpace.z(5), pairs)


# ---------------------------------------------------------------------------
# solves with a cleared right-hand side
# ---------------------------------------------------------------------------

def test_solve_square_matches_reference_on_the_m_to_p_systems():
    for d in range(1, 7):
        mus, table = _power_in_monomial_matrix(d)
        matrix = [[table[mu].get(lam, S_ZERO) for mu in mus] for lam in mus]
        for lam in mus:
            coeffs = macdonald_m_expansion(lam, d)
            rhs = [coeffs.get(nu, S_ZERO) for nu in mus]
            _same(solve_square(matrix, rhs), reference_solve_square(matrix, rhs))


def _random_scalar(rng):
    def poly():
        return QTPolynomial({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                             for _ in range(rng.randint(0, 3))})
    den = poly()
    while den.is_zero():
        den = poly()
    return QTScalar(poly(), den)


def test_solve_square_matches_reference_on_random_systems():
    rng = random.Random(20070)
    solved = 0
    for _ in range(40):
        matrix = [[_random_scalar(rng) for _ in range(3)] for _ in range(3)]
        rhs = [_random_scalar(rng) for _ in range(3)]
        try:
            want = reference_solve_square(matrix, rhs)
        except SingularSystemError:
            try:
                solve_square(matrix, rhs)
            except SingularSystemError:
                continue
            raise AssertionError("the cleared solve found a solution of a singular system")
        _same(solve_square(matrix, rhs), want)
        solved += 1
    assert solved >= 30


# ---------------------------------------------------------------------------
# the triangular eigen-solve
# ---------------------------------------------------------------------------

def test_m_expansion_matches_the_per_term_sum():
    for d in range(1, 7):
        for N in sorted({d, max(d - 2, 1)}):
            for lam in pt.partitions_of(d, max_length=N):
                got = macdonald_m_expansion(lam, N)
                want = reference_m_expansion(lam, N)
                assert list(got) == list(want), (lam, N)
                _same(list(got.values()), list(want.values()))


# ---------------------------------------------------------------------------
# the gcds the super path makes
# ---------------------------------------------------------------------------

COUNT_PROBE = """
import macrui
from macrui import partitions as pt, scalar
calls = 0
gcd_cofactors = scalar._gcd_cofactors
def counted(a, b):
    global calls
    if len(a.terms) > 1 and len(b.terms) > 1:
        calls += 1
    return gcd_cofactors(a, b)
scalar._gcd_cofactors = counted
for lam in pt.partitions_of(5):
    macrui.super_macdonald(lam, 2, 2)
print(calls)
"""


def test_super_restriction_gcd_count_is_pinned():
    # non-monomial gcds of the seven super restrictions of weight 5 at
    # (2, 2), in a fresh process so that no cache is warm; 427 before the
    # cleared sums, and a rise here means a reduction came back
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", COUNT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == 305
