"""Exact arithmetic in the coefficient field Q(q, t).

Values are fractions of sparse integer polynomials in the two parameters
q and t, kept fully reduced so that equality of values is equality of
representations.  The gcds that reduce them come from an in-house heuristic
gcd (GCDHEU); sympy's gcd finishes the rare pairs on which it gives up, and
is imported only then.  The normalization convention: numerator and denominator
share no common factor (including integer content), and the denominator's
lexicographically leading term (q before t) has a positive coefficient.
Zero is stored as 0/1.

All values are immutable after construction and safe to share.
"""

import heapq
import math
import operator

from .errors import ScalarDivisionError, SpecialParameterError


# ---------------------------------------------------------------------------
# public polynomial type
# ---------------------------------------------------------------------------

def _as_int(x, what):
    """x as an int, for a type that is an integer (``operator.index``); a
    float, a Fraction or any other non-integer type is refused, never
    truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


class QTPolynomial:
    """Sparse polynomial in q, t with arbitrary-precision integer coefficients.

    ``terms`` maps (q_exponent, t_exponent) to a nonzero integer; exponents
    are nonnegative.  Treat instances as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                a, b = (_as_int(x, "an exponent") for x in key)
                if a < 0 or b < 0:
                    raise ValueError("exponents must be nonnegative")
                c = _as_int(c, "a coefficient")
                if c:
                    clean[(a, b)] = c
        self.terms = clean

    @classmethod
    def _raw(cls, terms):
        obj = object.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def from_int(cls, n):
        n = _as_int(n, "an integer constant")
        return cls._raw({(0, 0): n} if n else {})

    @classmethod
    def monomial(cls, qexp, texp, coeff=1):
        qexp, texp = _as_int(qexp, "an exponent"), _as_int(texp, "an exponent")
        if qexp < 0 or texp < 0:
            raise ValueError("exponents must be nonnegative")
        coeff = _as_int(coeff, "a coefficient")
        return cls._raw({(qexp, texp): coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QTPolynomial.from_int(other)
        if not isinstance(other, QTPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals the int it holds, so it hashes like that int
        if not self.terms:
            return 0
        if len(self.terms) == 1 and (0, 0) in self.terms:
            return hash(self.terms[(0, 0)])
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return QTPolynomial._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, QTPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            other = QTPolynomial.from_int(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QTPolynomial._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, QTPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            other = QTPolynomial.from_int(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return QTPolynomial._raw(out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, QTPolynomial):
            if not isinstance(other, int):
                return NotImplemented
            if other == 0:
                return P_ZERO
            return QTPolynomial._raw({e: c * other for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            q1, t1 = e1
            for e2, c2 in b.items():
                e = (q1 + e2[0], t1 + e2[1])
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return QTPolynomial._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = P_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, q0, t0):
        from fractions import Fraction
        q0, t0 = Fraction(q0), Fraction(t0)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * q0 ** a * t0 ** b
        return total

    def swap_qt(self):
        return QTPolynomial._raw({(b, a): c for (a, b), c in self.terms.items()})

    def exact_divide(self, other):
        """Quotient self/other when the division is exact; ValueError otherwise."""
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        quo = _quotient(self.terms, other.terms)
        if quo is None:
            raise ValueError("not divisible")
        return QTPolynomial._raw(quo)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if a:
                factors.append("q" if a == 1 else f"q^{a}")
            if b:
                factors.append("t" if b == 1 else f"t^{b}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"QTPolynomial({self})"


P_ZERO = QTPolynomial._raw({})
P_ONE = QTPolynomial._raw({(0, 0): 1})
P_Q = QTPolynomial._raw({(1, 0): 1})
P_T = QTPolynomial._raw({(0, 1): 1})


def qt_gcd(a, b):
    """A greatest common divisor in Z[q, t], content-and-sign normalized.

    The result exactly divides both inputs; its lexicographically leading
    coefficient is positive.  Raises ValueError for gcd(0, 0).

    Computed by the heuristic gcd ``_heugcd``; on the rare pairs where that
    gives up, sympy's gcd (``dmp_inner_gcd``, whose last resort is a
    remainder sequence) finishes, and only then is sympy imported.
    """
    return _gcd_cofactors(a, b)[0]


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for g = qt_gcd(a, b): the cofactors are the quotients
    of the exact divisions that accept g.

    The shortcuts and the exponent deflation are those of sympy's sparse
    ``PolyElement.cofactors``, so g is the gcd sympy gives, sign-normalized.
    """
    fa, fb = a.terms, b.terms
    if not fa and not fb:
        raise ValueError("gcd(0, 0) is undefined")
    if not fa or not fb:
        g, cf, cg = (fb, {}, {(0, 0): 1}) if fb else (fa, {(0, 0): 1}, {})
    elif len(fa) == 1 or len(fb) == 1:  # a monomial: gcd of exponents and coefficients
        g = {tuple(map(min, zip(*fa, *fb))): math.gcd(*fa.values(), *fb.values())}
        cf, cg = _quotient(fa, g), _quotient(fb, g)
    else:
        # deflate: (q^J0, t^J1) -> (q, t), with J the gcd of the exponents
        J = tuple(math.gcd(*exps) or 1 for exps in zip(*fa, *fb))
        if J != (1, 1):
            fa, fb = ({(k[0] // J[0], k[1] // J[1]): c for k, c in f.items()}
                      for f in (fa, fb))
        out = _heugcd(fa, fb, 0)
        if out is None:
            g, cf, cg = _fallback_cofactors(a.terms, b.terms)
        elif J != (1, 1):
            g, cf, cg = ({(k[0] * J[0], k[1] * J[1]): c for k, c in f.items()}
                         for f in out)
        else:
            g, cf, cg = out
    if g[max(g)] < 0:
        g, cf, cg = ({k: -c for k, c in f.items()} for f in (g, cf, cg))
    return QTPolynomial._raw(g), QTPolynomial._raw(cf), QTPolynomial._raw(cg)


def _heugcd(f, g, var):
    """Heuristic gcd (GCDHEU: Char, Geddes and Gonnet 1989) of nonzero terms
    dicts: (h, f/h, g/h), or None when it gives up.

    ``var`` is the first variable still present (0: q, 1: t, 2: none, so f
    and g are integers); the exponents before it are 0.  The variable is
    evaluated at an integer xi and the images' gcd taken by recursion.  A
    candidate rebuilt from the balanced base-xi digits of an image (the gcd,
    then each cofactor) is accepted only if it divides f and g exactly.
    Step for step this is sympy's ``heugcd``: its choice and growth of xi,
    its 6 tries, and its sign and content conventions at every level.
    """
    if var == 2:
        a, b = f[(0, 0)], g[(0, 0)]
        h = math.gcd(a, b)
        return {(0, 0): h}, {(0, 0): a // h}, {(0, 0): b // h}
    content = math.gcd(*f.values(), *g.values())
    if content != 1:
        f, g = ({k: c // content for k, c in p.items()} for p in (f, g))
    f_norm, g_norm = max(map(abs, f.values())), max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    for _ in range(6):
        ff, gg = _evaluated(f, var, xi), _evaluated(g, var, xi)
        if ff and gg:
            images = _heugcd(ff, gg, var + 1)
            if images is None:
                return None
            for route, image in enumerate(images):
                p = _interpolated(image, var, xi)
                if route == 0:  # the primitive part of the gcd image
                    d = math.gcd(*p.values())
                    h = p if d == 1 else {k: v // d for k, v in p.items()}
                else:  # p is a candidate cofactor of f (route 1) or g (route 2)
                    h = _quotient((f, g)[route - 1], p)
                cf = h and _quotient(f, h)
                cg = cf and _quotient(g, h)
                if cg:
                    if content != 1:
                        h = {k: c * content for k, c in h.items()}
                    return h, cf, cg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluated(f, var, xi):
    """f with variable ``var`` set to xi, zero terms dropped."""
    out = {}
    for k, c in f.items():
        key = (0, k[1]) if var == 0 else (0, 0)
        out[key] = out.get(key, 0) + c * xi ** k[var]
    return {k: c for k, c in out.items() if c}


def _interpolated(image, var, xi):
    """The polynomial whose coefficients of (variable ``var``)^i are the
    balanced base-xi digits i of the coefficients of ``image``, negated if
    needed for a positive leading coefficient."""
    out, half = {}, xi // 2
    for k, c in image.items():
        i = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(i, k[1]) if var == 0 else (0, i)] = d
            c = (c - d) // xi
            i += 1
    return {k: -c for k, c in out.items()} if out[max(out)] < 0 else out


def _fallback_cofactors(fa, fb):
    """(g, fa/g, fb/g) from sympy's dense gcd, for the pairs on which the
    heuristic gives up.  The one place that imports sympy."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    R = ring("q,t", ZZ)[0]
    out = R.dmp_inner_gcd(R.from_dict(fa), R.from_dict(fb))
    return [{(int(k[0]), int(k[1])): int(c) for k, c in p.to_dict().items()}
            for p in out]


def _quotient(f, h):
    """f / h for terms dicts (h nonzero) when h divides f exactly in Z[q, t],
    else None.  Lexicographic division, q before t."""
    if len(h) == 1:  # a monomial divides term by term
        (e0, e1), c = next(iter(h.items()))
        if c == 1 and not (e0 or e1):
            return f
        if any(k[0] < e0 or k[1] < e1 or v % c for k, v in f.items()):
            return None
        return {(k[0] - e0, k[1] - e1): v // c for k, v in f.items()}
    ge = max(h)
    gc = h[ge]
    gtail = [(e, c) for e, c in h.items() if e != ge]
    rem = dict(f)
    quo = {}
    heap = [(-e[0], -e[1]) for e in rem]
    heapq.heapify(heap)
    while heap:
        k = heapq.heappop(heap)
        e = (-k[0], -k[1])
        c = rem.pop(e, 0)
        if not c:
            continue
        if e[0] < ge[0] or e[1] < ge[1] or c % gc:
            return None
        qe = (e[0] - ge[0], e[1] - ge[1])
        qc = c // gc
        quo[qe] = quo.get(qe, 0) + qc
        for te, tc in gtail:
            ke = (qe[0] + te[0], qe[1] + te[1])
            s = rem.get(ke, 0) - qc * tc
            if s:
                if ke not in rem:
                    heapq.heappush(heap, (-ke[0], -ke[1]))
                rem[ke] = s
            elif ke in rem:
                del rem[ke]
    return {e: c for e, c in quo.items() if c}


def _is_unit(p):
    """True for the polynomials 1 and -1."""
    return len(p.terms) == 1 and p.terms.get((0, 0)) in (1, -1)


def _split_content(terms):
    """(k, p) with terms = k * p, k > 0 the integer content."""
    k = math.gcd(*terms.values())
    return k, (terms if k == 1 else {e: c // k for e, c in terms.items()})


def over_common_denominator(scalars):
    """The numerators of ``scalars`` over L, and L: the least common multiple
    of their denominators, with positive leading coefficient.

    L is kept as content * primitive part.  A denominator whose primitive
    part is L's, or 1, joins by the lcm of the integer contents with no gcd
    and no polynomial division; only a new primitive part costs a gcd.
    """
    scalars = list(scalars)
    splits = [_split_content(c.den.terms) for c in scalars]
    content, prim = 1, P_ONE.terms
    for (k, p), c in zip(splits, scalars):
        if p == prim or p == P_ONE.terms:
            content = math.lcm(content, k)
        elif prim == P_ONE.terms:
            content, prim = math.lcm(content, k), p
        else:
            den = _times(prim, content)
            content, prim = _split_content(
                (den * c.den.exact_divide(qt_gcd(den, c.den))).terms)
    den = _times(prim, content)
    nums = []
    for (k, p), c in zip(splits, scalars):
        if p == prim:
            nums.append(c.num if k == content else c.num * (content // k))
        elif p == P_ONE.terms:
            nums.append(c.num * _times(prim, content // k))
        else:
            nums.append(c.num * den.exact_divide(c.den))
    return nums, den


def _times(prim, k):
    """The polynomial k * prim, for a primitive terms dict."""
    if k == 1:
        return P_ONE if prim == P_ONE.terms else QTPolynomial._raw(prim)
    return QTPolynomial._raw({e: c * k for e, c in prim.items()})


# ---------------------------------------------------------------------------
# fraction field
# ---------------------------------------------------------------------------

class QTScalar:
    """An element of the field Q(q, t), stored as a reduced fraction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        # an int becomes a constant polynomial; any other non-polynomial
        # (a float, a Fraction) is refused by from_int with a ValueError
        if not isinstance(num, QTPolynomial):
            num = QTPolynomial.from_int(num)
        if den is None:
            den = P_ONE
        elif not isinstance(den, QTPolynomial):
            den = QTPolynomial.from_int(den)
        if den.is_zero():
            raise ScalarDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = P_ZERO, P_ONE
            return
        if den.terms != P_ONE.terms:
            _, num, den = _gcd_cofactors(num, den)
        if den.terms == P_ONE.terms:
            den = P_ONE
        elif den.terms[max(den.terms)] < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    @classmethod
    def _raw(cls, num, den):
        obj = object.__new__(cls)
        obj.num, obj.den = num, den
        return obj

    @classmethod
    def from_int(cls, n):
        return cls._raw(QTPolynomial.from_int(n), P_ONE)

    @classmethod
    def from_fraction(cls, fr):
        from fractions import Fraction
        fr = Fraction(fr)
        return cls(QTPolynomial.from_int(fr.numerator),
                   QTPolynomial.from_int(fr.denominator))

    def is_zero(self):
        return not self.num.terms

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num.terms == other.num.terms and self.den.terms == other.den.terms

    def __hash__(self):
        # a polynomial value equals its numerator (and a constant its int),
        # so it hashes like that numerator
        if self.den.terms == P_ONE.terms:
            return hash(self.num)
        return hash((frozenset(self.num.terms.items()),
                     frozenset(self.den.terms.items())))

    def __neg__(self):
        return QTScalar._raw(-self.num, self.den)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        d1, d2 = self.den, other.den
        if d1 is P_ONE and d2 is P_ONE:
            return QTScalar._raw(self.num + other.num, P_ONE)
        if d1.terms == d2.terms:
            num = self.num + other.num
            if num.is_zero():
                return S_ZERO
            _, num, den = _gcd_cofactors(num, d1)
            return QTScalar._raw(num, P_ONE if den.terms == P_ONE.terms else den)
        # reduced addition: only gcd(d1, d2) and gcd(num, that) are needed
        g = P_ONE if (d1 is P_ONE or d2 is P_ONE) else qt_gcd(d1, d2)
        if g.terms == P_ONE.terms:
            num = self.num * d2 + other.num * d1
            if num.is_zero():
                return S_ZERO
            return QTScalar._raw(num, d1 * d2)
        d2r = d2.exact_divide(g)
        num = self.num * d2r + other.num * d1.exact_divide(g)
        if num.is_zero():
            return S_ZERO
        den = d1 * d2r
        h = qt_gcd(num, g)
        if h.terms != P_ONE.terms:
            num, den = num.exact_divide(h), den.exact_divide(h)
        return QTScalar._raw(num, P_ONE if den.terms == P_ONE.terms else den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return S_ZERO
        if self.den is P_ONE and other.den is P_ONE:
            return QTScalar._raw(self.num * other.num, P_ONE)
        # cross-cancellation keeps the product reduced without a final gcd;
        # a numerator of +-1 (as inverse() gives) has nothing to cancel
        n1, d2 = self.num, other.den
        if d2 is not P_ONE and not _is_unit(n1):
            _, n1, d2 = _gcd_cofactors(n1, d2)
        n2, d1 = other.num, self.den
        if d1 is not P_ONE and not _is_unit(n2):
            _, n2, d1 = _gcd_cofactors(n2, d1)
        den = d1 * d2
        if den.terms == P_ONE.terms:
            den = P_ONE
        return QTScalar._raw(n1 * n2, den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ScalarDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den.terms[max(den.terms)] < 0:
            num, den = -num, -den
        if den.terms == P_ONE.terms:
            den = P_ONE
        return QTScalar._raw(num, den)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ScalarDivisionError("division by zero scalar")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return S_ONE
        den = self.den ** k
        if den.terms == P_ONE.terms:
            den = P_ONE
        return QTScalar._raw(self.num ** k, den)

    def evaluate(self, q0, t0):
        """Exact rational value at q=q0, t=t0; raises on a vanishing denominator."""
        dv = self.den.evaluate(q0, t0)
        if dv == 0:
            raise SpecialParameterError(
                f"denominator vanishes at q={q0}, t={t0}: special parameters")
        return self.num.evaluate(q0, t0) / dv

    def swap_qt(self):
        num, den = self.num.swap_qt(), self.den.swap_qt()
        if den.terms == P_ONE.terms:
            return QTScalar._raw(num, P_ONE)
        if den.terms[max(den.terms)] < 0:
            num, den = -num, -den
        return QTScalar._raw(num, den)

    def __str__(self):
        if self.den is P_ONE or self.den.terms == P_ONE.terms:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"QTScalar({self})"


S_ZERO = QTScalar._raw(P_ZERO, P_ONE)
S_ONE = QTScalar._raw(P_ONE, P_ONE)
S_Q = QTScalar._raw(P_Q, P_ONE)
S_T = QTScalar._raw(P_T, P_ONE)


def _coerce(x):
    """x as a QTScalar: an int, a QTPolynomial or a QTScalar; NotImplemented
    for any other type, so an operator can hand it back to Python."""
    if isinstance(x, QTScalar):
        return x
    if isinstance(x, int):
        return QTScalar.from_int(x)
    if isinstance(x, QTPolynomial):
        return QTScalar._raw(x, P_ONE)
    return NotImplemented


def _as_scalar(x):
    """``_coerce`` for the places that take a scalar as data rather than as an
    operand: a float, a Fraction or any other type is refused with a
    ValueError, never truncated."""
    c = _coerce(x)
    if c is NotImplemented:
        raise ValueError(f"a scalar must be an int, a QTPolynomial or a QTScalar, "
                         f"got {x!r}")
    return c


def over_irreducible(s, p):
    """The reduced scalar s / p, for p irreducible and primitive in Z[q, t]
    (such as 1 - q or 1 - t).

    Since s is reduced and Z[q, t] is a UFD, gcd(s.num, s.den * p) is 1 or
    p up to sign, so one trial division by p decides it and no gcd is taken.
    """
    if s.is_zero():
        return s
    try:
        return QTScalar._raw(s.num.exact_divide(p), s.den)
    except ValueError:
        pass
    num, den = s.num, s.den * p
    if den.terms[max(den.terms)] < 0:
        num, den = -num, -den
    return QTScalar._raw(num, den)


def qt_monomial(qexp, texp=0):
    """The scalar q^qexp * t^texp; exponents may be negative."""
    nq, nt = max(qexp, 0), max(texp, 0)
    dq, dt = max(-qexp, 0), max(-texp, 0)
    return QTScalar._raw(QTPolynomial.monomial(nq, nt),
                         P_ONE if not (dq or dt) else QTPolynomial.monomial(dq, dt))


def q_pow(r):
    """The scalar q^r for r >= 0."""
    return QTScalar._raw(QTPolynomial.monomial(r, 0), P_ONE)


def t_pow(r):
    """The scalar t^r for r >= 0."""
    return QTScalar._raw(QTPolynomial.monomial(0, r), P_ONE)


def one_minus_q(r=1):
    """The polynomial scalar 1 - q^r."""
    return QTScalar(P_ONE - QTPolynomial.monomial(r, 0))


def one_minus_t(r=1):
    """The polynomial scalar 1 - t^r."""
    return QTScalar(P_ONE - QTPolynomial.monomial(0, r))


def qt_ratio(r):
    """The scalar (1 - q^r) / (1 - t^r)."""
    return one_minus_q(r) / one_minus_t(r)


def qt_eval(s, q0, t0):
    """Exact rational value of a scalar at rational parameters."""
    return s.evaluate(q0, t0)
