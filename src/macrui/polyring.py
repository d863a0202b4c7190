"""Sparse multivariate polynomials over the exact field Q(q, t).

A polynomial lives in a declared variable space: either z_1..z_N, or two
blocks x_1..x_n, y_1..y_m, with at most 64 variables in all.  Terms map
exponent vectors (tuples) to nonzero QTScalar coefficients.  Exponents are
nonnegative; Laurent monomials are not supported, so operator applications
clear denominators and divide exactly at the end.

The term-dict routines below (add and subtract into, scale, shift,
transpose, multiply by v_i + c v_j, divide by v_i - v_j, and the divided
difference (f - s_ij f)/(v_i - v_j)) work over any coefficient ring:
``MultiPoly`` runs them on QTScalar coefficients and the operator engine on
Z[q, t] numerators.  Division by v_i - v_j is the only
polynomial division in the library: every operator denominator is a product
of such hyperplane binomials.

Values are immutable by convention: never mutate ``terms`` after
construction.
"""

from .errors import SpaceMismatchError
from .scalar import (P_ONE, QTPolynomial, QTScalar, S_ONE, S_ZERO,
                     _as_int, _as_scalar, over_common_denominator)


# Every N-variable object is built in a VarSpace, so this cap bounds the
# exponent vectors and the orbit enumerations before anything is allocated.
_MAX_VARIABLES = 64


class VarSpace:
    """A declared variable alphabet: z_1..z_N, or x_1..x_n plus y_1..y_m."""

    __slots__ = ("kind", "n", "m")

    def __init__(self, kind, n, m=0):
        if kind not in ("z", "xy"):
            raise ValueError("kind must be 'z' or 'xy'")
        n, m = _as_int(n, "a variable count"), _as_int(m, "a variable count")
        if n < 0 or m < 0:
            raise ValueError("variable counts must be nonnegative")
        if n + m > _MAX_VARIABLES:
            raise ValueError(f"at most {_MAX_VARIABLES} variables are supported, "
                             f"got {n + m}")
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


# ---------------------------------------------------------------------------
# term-dict routines over any coefficient ring
# ---------------------------------------------------------------------------

def _add_into(acc, other):
    """acc += other, in place."""
    for e, c in other.items():
        s = acc.get(e)
        if s is None:
            acc[e] = c
        else:
            s = s + c
            if s.is_zero():
                del acc[e]
            else:
                acc[e] = s


def _sub_into(acc, other):
    """acc -= other, in place."""
    for e, c in other.items():
        s = acc.get(e)
        if s is None:
            acc[e] = -c
        else:
            s = s - c
            if s.is_zero():
                del acc[e]
            else:
                acc[e] = s


def _scale(terms, c):
    return {e: v * c for e, v in terms.items()}


def _shift(terms, i, factor):
    """Multiply the coefficient of each term by factor^{exponent of v_i}."""
    powers = {k: factor ** k for k in {e[i] for e in terms}}
    return {e: c * powers[e[i]] if e[i] else c for e, c in terms.items()}


def _transpose(terms, i, j):
    """Exchange the exponents of v_i and v_j."""
    out = {}
    for e, c in terms.items():
        ne = list(e)
        ne[i], ne[j] = ne[j], ne[i]
        out[tuple(ne)] = c
    return out


def _mul_binomial(terms, i, j, c):
    """Multiply by the binomial v_i + c v_j."""
    out = {e[:i] + (e[i] + 1,) + e[i + 1:]: v for e, v in terms.items()}
    if c == -1:
        _sub_into(out, {e[:j] + (e[j] + 1,) + e[j + 1:]: v for e, v in terms.items()})
    else:
        _add_into(out, {e[:j] + (e[j] + 1,) + e[j + 1:]: v * c for e, v in terms.items()})
    return out


def _lines(terms, i, j):
    """Group the terms into lines, for i < j: the terms that agree outside
    (i, j) and in s = e_i + e_j.  Maps the exponent with e_i = 0, e_j = s to
    the list of the s + 1 coefficients f_k of v_i^{s-k} v_j^k (None if
    absent)."""
    lines = {}
    for e, c in terms.items():
        s = e[i] + e[j]
        key = e[:i] + (0,) + e[i + 1:j] + (s,) + e[j + 1:]
        line = lines.get(key)
        if line is None:
            line = lines[key] = [None] * (s + 1)
        line[e[j]] = c
    return lines


def _div_difference(terms, i, j):
    """Divide by v_i - v_j, for i < j.

    With f_k the coefficient of v_i^{s-k} v_j^k on a line, the quotient
    coefficient of v_i^{s-1-k} v_j^k is the running sum f_0 + ... + f_k, and
    the full sum f_0 + ... + f_s is the remainder at v_j^s: f with v_i = v_j
    substituted.  Returns (quotient, remainder), the remainder None when it
    is zero.
    """
    quo, rem = {}, {}
    for key, line in _lines(terms, i, j).items():
        s = len(line) - 1
        ne = list(key)
        g = None
        for k, f in enumerate(line):
            if g is not None:
                f = g if f is None else f + g
            if f is not None:
                if f.is_zero():
                    f = None
                elif k == s:
                    rem[key] = f
                else:
                    ne[i], ne[j] = s - 1 - k, k
                    quo[tuple(ne)] = f
            g = f
    return quo, (rem or None)


def _divided_difference(terms, i, j):
    """(f - s_ij f)/(v_i - v_j), for i < j, where s_ij exchanges v_i and v_j.

    Always a polynomial, and symmetric in v_i and v_j.  With f_k the
    coefficient of v_i^{s-k} v_j^k on a line, the quotient coefficient of
    v_i^{s-1-k} v_j^k is the running sum of f_l - f_{s-l} over l <= k.  It
    is unchanged by k -> s-1-k, so only the first half of each line is
    summed.
    """
    quo = {}
    for key, line in _lines(terms, i, j).items():
        s = len(line) - 1
        ne = list(key)
        g = None
        for k in range((s + 1) // 2):
            a, b = line[k], line[s - k]
            if a is not None:
                g = a if g is None else g + a
            if b is not None:
                g = -b if g is None else g - b
            if g is None:
                continue
            if g.is_zero():
                g = None
                continue
            ne[i], ne[j] = s - 1 - k, k
            quo[tuple(ne)] = g
            ne[i], ne[j] = k, s - 1 - k
            quo[tuple(ne)] = g
    return quo


# the operands that +, -, * and == take as constant polynomials, on either
# side: each of them returns NotImplemented for a MultiPoly, so ``q + z1``
# reaches MultiPoly.__radd__
_CONSTANTS = (int, QTPolynomial, QTScalar)


class MultiPoly:
    """Sparse polynomial with QTScalar coefficients in a fixed VarSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                e = tuple(_as_int(x, "an exponent") for x in e)
                if len(e) != space.dim:
                    raise ValueError(f"exponent vector {e} does not fit {space!r}")
                if any(x < 0 for x in e):
                    raise ValueError("exponents must be nonnegative")
                c = _as_scalar(c)
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
        c = _as_scalar(c)
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
        if isinstance(other, _CONSTANTS):
            return self == MultiPoly.constant(self.space, other)
        return NotImplemented

    def __neg__(self):
        return MultiPoly._raw(self.space, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, _CONSTANTS):
            other = MultiPoly.constant(self.space, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        _add_into(out, other.terms)
        return MultiPoly._raw(self.space, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _CONSTANTS):
            other = MultiPoly.constant(self.space, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        _sub_into(out, other.terms)
        return MultiPoly._raw(self.space, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _CONSTANTS):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_space(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:  # no two term products meet, so nothing is summed
            [(e1, c1)] = a.items()
            return MultiPoly._raw(self.space, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2
                                               for e2, c2 in b.items()})
        # as the operator engine does: each factor over its common
        # denominator, the Z[q, t] numerators multiplied and summed term by
        # term, and each distinct sum reduced once over the two denominators
        (a, da), (b, db) = _cleared(a), _cleared(b)
        out = {}
        for e1, c1 in a.items():
            _add_into(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2
                            for e2, c2 in b.items()})
        den = da * db
        if den.terms == P_ONE.terms:  # the sums are already reduced
            return MultiPoly._raw(self.space, {e: QTScalar._raw(c, P_ONE) for e, c in out.items()})
        return MultiPoly._raw(self.space, _reduce_each(out, lambda c: QTScalar(c, den)))

    __rmul__ = __mul__

    def scale(self, c):
        c = _as_scalar(c)
        if c.is_zero():
            return MultiPoly.zero(self.space)
        return MultiPoly._raw(self.space, _scale(self.terms, c))

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
                norm[i] = (v[0], _as_scalar(v[1]))
            else:
                norm[i] = _as_scalar(v)
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
        return MultiPoly._raw(self.space, _shift(self.terms, i, _as_scalar(factor)))

    def swap_variables(self, i, j):
        return MultiPoly._raw(self.space, _transpose(self.terms, i, j))

    def swap_parameters(self):
        """Exchange the roles of q and t in every coefficient."""
        return MultiPoly._raw(self.space,
                              {e: c.swap_qt() for e, c in self.terms.items()})

    def evaluate(self, point):
        """Full evaluation at a list of QTScalar coordinates."""
        if len(point) != self.space.dim:
            raise ValueError("point length does not match the space")
        point = [_as_scalar(p) for p in point]
        values = []
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x ** k
            values.append((v, {(): S_ONE}))
        return _combination(values).get((), S_ZERO)

    # -- symmetry -------------------------------------------------------------

    def _block(self, block):
        if not isinstance(block, str):
            return list(block)
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
        """Invariance under all adjacent transpositions of the block: "all",
        "x", "y", or a list of variable indices."""
        idx = self._block(block)
        for a, b in zip(idx, idx[1:]):
            if self.swap_variables(a, b) != self:
                return False
        return True

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
    elements here always do); the scalars may be arbitrary.  This is
    ``_combination`` on the term dicts, vectors keyed by exponent.
    """
    items = [(_as_scalar(c), poly) for c, poly in pairs]
    return MultiPoly._raw(space, _combination(
        (c, poly.terms) for c, poly in items if not poly.is_zero()))


# ---------------------------------------------------------------------------
# cleared combinations: every change of basis sums through here
# ---------------------------------------------------------------------------

def _cleared(coeffs):
    """The values of the dict ``coeffs`` over their least common denominator
    L: the pair (key -> Z[q, t] numerator, L)."""
    nums, den = over_common_denominator(coeffs.values())
    return dict(zip(coeffs, nums)), den


def _combination(pairs, den=P_ONE):
    """The sum of scalar * vector over the pairs, divided by ``den``.

    A vector is a dict from any keys to denominator-free QTScalars, and
    ``den`` a nonzero polynomial in Z[q, t].  The scalars are put over their
    least common denominator L, and the numerators are summed over L * den
    by ``_numerator_sums``.  Returns key -> reduced sum, for the keys whose
    sum is nonzero.
    """
    pairs = [(c, vector) for c, vector in pairs if not c.is_zero()]
    mults, common = over_common_denominator(c for c, _ in pairs)
    return _numerator_sums(zip(mults, (vector for _, vector in pairs)), common * den)


def _numerator_sums(pairs, den):
    """key -> (sum over the pairs of mult * vector[key]) / den, reduced, for
    multipliers in Z[q, t] and vectors of denominator-free QTScalars.

    The sums run on Kronecker-packed integers, q^a t^b ->
    2^(bits * (a + stride * b)).  ``stride`` exceeds the q-degree of every
    product, and 2^(bits - 2) exceeds every output coefficient: it is at
    most the sum over the pairs of the largest multiplier coefficient times
    the largest 1-norm of a vector entry.  So the balanced base-2^bits
    digits of a packed sum are its coefficients.
    """
    pairs = list(pairs)
    stride, bound = 1, 0
    for mult, vector in pairs:
        if any(v.den.terms != P_ONE.terms for v in vector.values()):
            raise ValueError("a cleared combination needs denominator-free vectors")
        vs = [v.num.terms for v in vector.values()]
        stride = max(stride, 1 + max(a for a, _ in mult.terms)
                     + max((a for v in vs for a, _ in v), default=0))
        bound += (max(map(abs, mult.terms.values()))
                  * max((sum(map(abs, v.values())) for v in vs), default=0))
    bits = bound.bit_length() + 2
    acc = {}
    for mult, vector in pairs:
        pm = _pack(mult.terms, bits, stride)
        for key, v in vector.items():
            contrib = pm * _pack(v.num.terms, bits, stride)
            s = acc.get(key)
            acc[key] = contrib if s is None else s + contrib
    return _reduce_each(acc, lambda packed: QTScalar(
        QTPolynomial._raw(_unpack(packed, bits, stride)), den))


def _reduce_each(sums, reduce):
    """key -> reduce(sum) for the nonzero sums, each distinct sum reduced
    once: a symmetric result repeats each numerator across an orbit."""
    memo, out = {}, {}
    for key, s in sums.items():
        if s:
            value = memo.get(s)
            if value is None:
                value = memo[s] = reduce(s)
            out[key] = value
    return out


def _pack(terms, bits, stride):
    """The integer sum of c * 2^(bits * (a + stride * b)) over the terms."""
    return sum(c << bits * (a + stride * b) for (a, b), c in terms.items())


def _unpack(n, bits, stride):
    """The terms dict that ``_pack`` maps to n: its balanced base-2^bits digits."""
    terms, k = {}, 0
    half, base = 1 << (bits - 1), 1 << bits
    while n:
        d = n & (base - 1)
        if d >= half:
            d -= base
        if d:
            terms[divmod(k, stride)[::-1]] = d
        n = (n - d) >> bits
        k += 1
    return terms
