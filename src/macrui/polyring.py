"""Sparse multivariate polynomials over the exact field Q(q, t).

A polynomial lives in a declared variable space: either z_1..z_N, or two
blocks x_1..x_n, y_1..y_m.  Terms map exponent vectors (tuples) to nonzero
QTScalar coefficients.  Exponents are nonnegative; Laurent monomials are
not supported, so operator applications clear denominators and divide
exactly at the end.

Values are immutable by convention: never mutate ``terms`` after
construction.
"""

from __future__ import annotations

import heapq

from .errors import NonDivisibleError, SpaceMismatchError
from .scalar import (P_ONE, P_ZERO, QTScalar, S_ONE, S_ZERO, _coerce,
                     over_common_denominator)


class VarSpace:
    """A declared variable alphabet: z_1..z_N, or x_1..x_n plus y_1..y_m."""

    __slots__ = ("kind", "n", "m")

    def __init__(self, kind, n, m=0):
        if kind not in ("z", "xy"):
            raise ValueError("kind must be 'z' or 'xy'")
        if n < 0 or m < 0:
            raise ValueError("variable counts must be nonnegative")
        if kind == "z" and m:
            raise ValueError("a z-space has a single block")
        self.kind = kind
        self.n = n
        self.m = m

    @classmethod
    def z(cls, N):
        return cls("z", N)

    @classmethod
    def xy(cls, n, m):
        return cls("xy", n, m)

    @property
    def dim(self):
        return self.n + self.m

    def x_indices(self):
        return range(self.n)

    def y_indices(self):
        return range(self.n, self.n + self.m)

    def var_name(self, i):
        if self.kind == "z":
            return f"z{i + 1}"
        return f"x{i + 1}" if i < self.n else f"y{i - self.n + 1}"

    def __eq__(self, other):
        return (isinstance(other, VarSpace) and self.kind == other.kind
                and self.n == other.n and self.m == other.m)

    def __hash__(self):
        return hash((self.kind, self.n, self.m))

    def __repr__(self):
        if self.kind == "z":
            return f"VarSpace.z({self.n})"
        return f"VarSpace.xy({self.n}, {self.m})"


def _grlex_heapkey(e):
    # min-heap key whose minimum is the graded-lex maximum
    return (-sum(e), tuple(-x for x in e))


class MultiPoly:
    """Sparse polynomial with QTScalar coefficients in a fixed VarSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != space.dim:
                    raise ValueError(f"exponent vector {e} does not fit {space!r}")
                if any(x < 0 for x in e):
                    raise ValueError("exponents must be nonnegative")
                c = _coerce(c)
                if not c.is_zero():
                    clean[e] = c
        self.space = space
        self.terms = clean

    @classmethod
    def _raw(cls, space, terms):
        obj = object.__new__(cls)
        obj.space = space
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, space):
        return cls._raw(space, {})

    @classmethod
    def constant(cls, space, c):
        c = _coerce(c)
        if c.is_zero():
            return cls.zero(space)
        return cls._raw(space, {(0,) * space.dim: c})

    @classmethod
    def one(cls, space):
        return cls.constant(space, S_ONE)

    @classmethod
    def variable(cls, space, i, power=1):
        e = [0] * space.dim
        e[i] = power
        return cls._raw(space, {tuple(e): S_ONE})

    @classmethod
    def binomial(cls, space, i, j, cj):
        """The binomial v_i + cj * v_j."""
        e1 = [0] * space.dim
        e1[i] = 1
        e2 = [0] * space.dim
        e2[j] = 1
        return cls._raw(space, {tuple(e1): S_ONE, tuple(e2): _coerce(cj)})

    # -- basic ring operations ------------------------------------------------

    def _check_space(self, other):
        if self.space != other.space:
            raise SpaceMismatchError(f"{self.space!r} vs {other.space!r}")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.space == other.space and self.terms == other.terms
        if isinstance(other, (int, QTScalar)):
            return self == MultiPoly.constant(self.space, other)
        return NotImplemented

    def __neg__(self):
        return MultiPoly._raw(self.space, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, QTScalar)):
            other = MultiPoly.constant(self.space, other)
        self._check_space(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return MultiPoly._raw(self.space, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, QTScalar)):
            other = MultiPoly.constant(self.space, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, QTScalar)):
            return self.scale(other)
        self._check_space(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    if not c.is_zero():
                        out[e] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return MultiPoly._raw(self.space, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = _coerce(c)
        if c.is_zero():
            return MultiPoly.zero(self.space)
        return MultiPoly._raw(self.space, {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.one(self.space)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure queries ----------------------------------------------------

    def degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_component(self, d):
        return MultiPoly._raw(self.space,
                              {e: c for e, c in self.terms.items() if sum(e) == d})

    def leading_exponent(self, order="grlex"):
        """Largest exponent vector under graded-lex (default) or pure lex order."""
        if not self.terms:
            return None
        if order == "grlex":
            return max(self.terms, key=lambda e: (sum(e), e))
        if order == "lex":
            return max(self.terms)
        raise ValueError(f"unknown order {order!r}")

    def coefficient(self, e):
        return self.terms.get(tuple(e), S_ZERO)

    def constant_term(self):
        return self.terms.get((0,) * self.space.dim, S_ZERO)

    # -- substitution and maps -------------------------------------------------

    def substitute(self, bindings):
        """Replace variables simultaneously.

        ``bindings`` maps a variable index to either a QTScalar constant
        or a pair (target_index, QTScalar factor) meaning v_i -> factor * v_target.
        Unbound variables are unchanged.
        """
        norm = {}
        for i, v in bindings.items():
            if isinstance(v, tuple):
                norm[i] = (v[0], _coerce(v[1]))
            else:
                norm[i] = _coerce(v)
        out = {}
        for e, c in self.terms.items():
            factor = c
            ne = list(e)
            for i, v in norm.items():
                k = e[i]
                if k == 0:
                    continue
                ne[i] -= k
                if isinstance(v, tuple):
                    j, s = v
                    factor = factor * s ** k
                    ne[j] += k
                else:
                    factor = factor * v ** k
            if factor.is_zero():
                continue
            key = tuple(ne)
            s = out.get(key)
            if s is None:
                out[key] = factor
            else:
                s = s + factor
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
        return MultiPoly._raw(self.space, out)

    def shift_variable(self, i, factor):
        """Scale one variable: terms with v_i^k are multiplied by factor^k."""
        factor = _coerce(factor)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            out[e] = c * factor ** k if k else c
        return MultiPoly._raw(self.space, out)

    def swap_variables(self, i, j):
        out = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[i], ne[j] = ne[j], ne[i]
            out[tuple(ne)] = c
        return MultiPoly._raw(self.space, out)

    def swap_parameters(self):
        """Exchange the roles of q and t in every coefficient."""
        return MultiPoly._raw(self.space,
                              {e: c.swap_qt() for e, c in self.terms.items()})

    def evaluate(self, point):
        """Full evaluation at a list of QTScalar coordinates."""
        if len(point) != self.space.dim:
            raise ValueError("point length does not match the space")
        point = [_coerce(p) for p in point]
        values = []
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x ** k
            values.append(v)
        nums, den = over_common_denominator(values)
        return QTScalar(sum(nums, P_ZERO), den)

    # -- symmetry -------------------------------------------------------------

    def _block(self, block):
        if block == "all":
            if self.space.kind != "z":
                raise ValueError("'all' symmetry applies to z-spaces")
            return list(range(self.space.dim))
        if block == "x":
            return list(self.space.x_indices())
        if block == "y":
            if self.space.kind != "xy":
                raise ValueError("'y' block needs an xy-space")
            return list(self.space.y_indices())
        raise ValueError(f"unknown block {block!r}")

    def is_symmetric(self, block="all"):
        """Invariance under all adjacent transpositions of the block."""
        idx = self._block(block)
        for a, b in zip(idx, idx[1:]):
            if self.swap_variables(a, b) != self:
                return False
        return True

    # -- exact division ---------------------------------------------------------

    def exact_divide(self, divisor):
        """Quotient self / divisor when exact.

        Raises NonDivisibleError carrying the nonzero remainder otherwise.
        Uses graded-lex long division by the single divisor.
        """
        self._check_space(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        glead = divisor.leading_exponent("grlex")
        gc = divisor.terms[glead]
        gtail = [(e, c) for e, c in divisor.terms.items() if e != glead]
        rem_out = {}
        quo = {}
        work = dict(self.terms)
        heap = [_grlex_heapkey(e) for e in work]
        heapq.heapify(heap)
        seen = set(work)
        while heap:
            key = heapq.heappop(heap)
            e = tuple(-x for x in key[1])
            c = work.pop(e, None)
            if c is None:
                continue
            if all(x >= y for x, y in zip(e, glead)):
                qe = tuple(x - y for x, y in zip(e, glead))
                qc = c / gc
                prev = quo.get(qe)
                quo[qe] = qc if prev is None else prev + qc
                for te, tc in gtail:
                    ke = tuple(x + y for x, y in zip(qe, te))
                    s = work.get(ke, S_ZERO) - qc * tc
                    if s.is_zero():
                        work.pop(ke, None)
                    else:
                        if ke not in work:
                            heapq.heappush(heap, _grlex_heapkey(ke))
                        work[ke] = s
            else:
                rem_out[e] = c
        if rem_out:
            raise NonDivisibleError(
                "polynomial division left a remainder",
                remainder=MultiPoly._raw(self.space, rem_out))
        return MultiPoly._raw(self.space,
                              {e: c for e, c in quo.items() if not c.is_zero()})

    # -- display ----------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                self.space.var_name(i) + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k)
            cs = str(c)
            if not mono:
                parts.append(f"({cs})" if ("+" in cs or " - " in cs) else cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            elif "+" in cs or " " in cs or "/" in cs:
                parts.append(f"({cs})*{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def linear_combination(space, pairs):
    """Exact sum of scalar * polynomial, assembled over one cleared denominator.

    The polynomials must carry denominator-free coefficients (as basis
    elements here always do); the scalars may be arbitrary.  The numerators
    are summed in Z[q, t] over the least common denominator, and each
    distinct output numerator is reduced once.
    """
    items = [(_coerce(c), poly) for c, poly in pairs]
    items = [(c, poly) for c, poly in items if not (c.is_zero() or poly.is_zero())]
    mults, den = over_common_denominator(c for c, _ in items)
    acc = {}
    for mult, (_, poly) in zip(mults, items):
        for e, v in poly.terms.items():
            if v.den.terms != P_ONE.terms:
                raise ValueError("linear_combination needs denominator-free coefficients")
            contrib = v.num * mult
            s = acc.get(e)
            acc[e] = contrib if s is None else s + contrib
    memo = {}  # a symmetric result repeats each numerator across an orbit
    terms = {}
    for e, num in acc.items():
        val = memo.get(num)
        if val is None:
            val = memo[num] = QTScalar(num, den)
        if not val.is_zero():
            terms[e] = val
    return MultiPoly._raw(space, terms)


def poly_arith(f, g, op):
    """Ring arithmetic dispatch: op in {'add', 'sub', 'mul'}."""
    if op == "add":
        return f + g
    if op == "sub":
        return f - g
    if op == "mul":
        return f * g
    raise ValueError(f"unknown operation {op!r}")

