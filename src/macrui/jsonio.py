"""Deterministic JSON forms of scalars and polynomials.

Scalars serialize numerator and denominator as lists of
[q_exponent, t_exponent, coefficient-as-decimal-string] triples sorted by
(q_exponent, t_exponent); polynomials as a term list of {"exp", "coeff"}
with exponents in block order.  All emitters sort, so equal values produce
identical bytes.  ``write_result`` is the one writer of a CLI result.  The
readers check the schema and raise MalformedInputError on input that does
not match it.
"""

import json
import re
import sys

from .errors import MalformedInputError
from .polyring import MultiPoly, VarSpace
from .scalar import QTPolynomial, QTScalar


def _field(data, key, what):
    if not isinstance(data, dict):
        raise MalformedInputError(f"{what} must be a JSON object, got {data!r}")
    if key not in data:
        raise MalformedInputError(f"{what} has no {key!r} field")
    return data[key]


def _array(data, what):
    if not isinstance(data, list):
        raise MalformedInputError(f"{what} must be a JSON array, got {data!r}")
    return data


def _int(x, what, minimum=None):
    """An integer given as a JSON number or a decimal string: an optional
    sign and ASCII digits, nothing else."""
    if (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+", x)):
        try:
            v = int(x)
        except ValueError:  # a string above the interpreter's digit limit
            pass
        else:
            if minimum is None or v >= minimum:
                return v
    bound = "" if minimum is None else f" >= {minimum}"
    raise MalformedInputError(f"{what} must be an integer{bound}, got {x!r}")


def qtpoly_to_json(p):
    return [[a, b, str(c)] for (a, b), c in sorted(p.terms.items())]


def qtpoly_from_json(data):
    terms = {}
    for term in _array(data, "a q,t polynomial"):
        if not isinstance(term, list) or len(term) != 3:
            raise MalformedInputError(
                f"q,t polynomial terms are [q_exponent, t_exponent, coefficient], got {term!r}")
        a, b, c = term
        exp = (_int(a, "a q exponent", 0), _int(b, "a t exponent", 0))
        if exp in terms:
            raise MalformedInputError(f"a q,t polynomial has two terms at {list(exp)}")
        terms[exp] = _int(c, "a coefficient")
    return QTPolynomial(terms)


def scalar_to_json(s):
    return {"num": qtpoly_to_json(s.num), "den": qtpoly_to_json(s.den)}


def scalar_from_json(data):
    return QTScalar(qtpoly_from_json(_field(data, "num", "a scalar")),
                    qtpoly_from_json(_field(data, "den", "a scalar")))


def space_to_json(space):
    if space.kind == "z":
        return {"kind": "z", "N": space.n}
    return {"kind": "xy", "n": space.n, "m": space.m}


def space_from_json(data):
    kind = _field(data, "kind", "a space")
    if kind == "z":
        return VarSpace.z(_int(_field(data, "N", "a z-space"), "N", 0))
    if kind == "xy":
        return VarSpace.xy(_int(_field(data, "n", "an xy-space"), "n", 0),
                           _int(_field(data, "m", "an xy-space"), "m", 0))
    raise MalformedInputError(f"unknown space kind {kind!r}")


def poly_to_json(f):
    terms = [{"exp": list(e), "coeff": scalar_to_json(c)}
             for e, c in sorted(f.terms.items())]
    return {"space": space_to_json(f.space), "terms": terms}


def poly_from_json(data):
    space = space_from_json(_field(data, "space", "a polynomial"))
    terms = {}
    for t in _array(_field(data, "terms", "a polynomial"), "polynomial terms"):
        exp = tuple(_int(x, "an exponent", 0)
                    for x in _array(_field(t, "exp", "a term"), "an exponent vector"))
        if len(exp) != space.dim:
            raise MalformedInputError(f"exponent vector {list(exp)} does not fit {space!r}")
        if exp in terms:
            raise MalformedInputError(f"a polynomial has two terms at {list(exp)}")
        terms[exp] = scalar_from_json(_field(t, "coeff", "a term"))
    return MultiPoly(space, terms)


def _dumps(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


_TERM = len('{"coeff":,"exp":[]}')  # the bytes of a term around its values


def write_result(request, value, at=None, note=None, ready=None):
    """Write a CLI result to stdout: the bytes of ``_dumps`` of {"note",
    "request", "result"} and a newline, "note" only when given.

    ``value`` is a MultiPoly, a QTScalar or a verify report.  With ``at`` =
    (q0, t0) each coefficient is written as str(c.evaluate(q0, t0)) and the
    point as "at".  A polynomial is written one term at a time, and each
    distinct coefficient object is serialized once.  Everything is
    serialized before the first byte, so a failed evaluation writes nothing;
    then ``ready(size)``, when given, is called with the exact number of
    bytes about to be written, and may raise to write none of them.
    """
    if at is None:
        def coeff(c):
            return _dumps(scalar_to_json(c))
        point = ""
    else:
        q0, t0 = at

        def coeff(c):
            return _dumps(str(c.evaluate(q0, t0)))
        point = '"at":' + _dumps({"q": str(q0), "t": str(t0)}) + ","
    head = ('{' + ('' if note is None else '"note":' + _dumps(note) + ',')
            + '"request":' + _dumps(request) + ',"result":')
    written, exps, tail = {}, [], '}\n'  # written: id of a coefficient -> its bytes
    if isinstance(value, MultiPoly):
        for c in value.terms.values():
            if id(c) not in written:
                written[id(c)] = coeff(c)
        head += '{' + point + '"space":' + _dumps(space_to_json(value.space)) + ',"terms":['
        exps, tail = sorted(value.terms), ']}}\n'
    elif isinstance(value, QTScalar):
        head += coeff(value) if at is None else '{' + point + '"value":' + coeff(value) + '}'
    else:
        head += _dumps(value)

    def terms():
        """The coefficient bytes and exponent text of each term, in order."""
        for e in exps:
            yield written[id(value.terms[e])], ",".join(map(str, e))
    if ready is not None:
        ready(len(head) + len(tail) + max(len(exps) - 1, 0)
              + sum(_TERM + len(c) + len(e) for c, e in terms()))
    out = sys.stdout
    out.write(head)
    sep = ''
    for c, e in terms():
        out.write(f'{sep}{{"coeff":{c},"exp":[{e}]}}')
        sep = ','
    out.write(tail)
