"""Command-line interface.

Computes the library's objects, evaluates them at exact points, and runs
the verification suites, emitting deterministic JSON (default) or readable
text.  Identical requests produce byte-identical JSON.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import MacruiError, MalformedInputError, NonDivisibleError
from . import jsonio
from . import partitions as pt
from .macdonald import (macdonald_p_expansion, macdonald_polynomial, macdonald_tableau_sum,
                        skew_tableau_sum, super_macdonald, super_tableau_sum)
from .operators import apply_deformed_mr, apply_mr, mr_eigenvalue
from .polyring import _MAX_VARIABLES, VarSpace
from .shifted import (_check_variable_count, fat_hook_point, interpolation_by_branching,
                      interpolation_polynomial, interpolation_pstar_expansion,
                      partition_point, shifted_super_macdonald, shifted_super_tableau_sum)
from .symfun import expansion_value, monomial_symmetric
from .verify import SUITES, _WEIGHT_CEILINGS, run_suite


def parse_partition(text):
    """Comma-separated integers; the empty string is the empty partition."""
    if text is None or text.strip() == "":
        return ()
    try:
        parts = [jsonio._int(x, "a part") for x in text.split(",")]
    except MalformedInputError:
        raise MalformedInputError(
            f"a partition is comma-separated integers, got {text!r}") from None
    return pt.as_partition(parts)


def parse_at(text):
    """Exact rational parameters "q0,t0", for example "1/2,2"; the digits are
    ASCII with no underscores, the rule of ``jsonio._int``."""
    parts = [x.strip() for x in text.split(",")]
    if len(parts) == 2 and all(x.isascii() and "_" not in x for x in parts):
        try:
            return tuple(Fraction(x) for x in parts)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInputError(f"--at needs two exact rationals q0,t0, got {text!r}")


def _count(text):
    """An argparse type: an integer by the rule of ``jsonio._int``."""
    try:
        return jsonio._int(text, "a count")
    except MalformedInputError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _result(request, value, args, text=None):
    """Print a result and return exit code 0: its JSON, evaluated at --at
    when given (a malformed --at is refused in either format), or with
    --format text ``text()``, by default str(value)."""
    at = parse_at(args.at) if args.at else None
    if args.format == "text":
        print(str(value) if text is None else text())
        return 0
    off_hook = (request["verb"].startswith(("super", "shifted-super")) and value.is_zero()
                and not pt.in_fat_hook(tuple(request["lambda"]), request["n"], request["m"]))
    jsonio.write_result(request, value, at, "outside fat hook" if off_hook else None)
    return 0


def _parse_json(text, source):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{source} is not valid JSON: {exc}") from None


def _load_poly(args):
    if args.poly:
        return jsonio.poly_from_json(_parse_json(args.poly, "--poly"))
    if args.poly_file:
        with open(args.poly_file) as fh:
            return jsonio.poly_from_json(_parse_json(fh.read(), args.poly_file))
    return None


# Every construction verb: its library builder, the alphabet it renders in
# ("N": --N variables, by default l(lam) and at least |lam| for a shifted
# verb; "mu N": the same for the skew shape lam/mu; "n m": --n x- and --m
# y-variables), its ceiling on the weight of --lambda and its ceiling on the
# terms it renders.  ``eval`` keeps the weight ceiling of its --which.  Each
# ceiling is the largest request whose cold run finished within about a
# minute on a 2-vCPU host, Python 3.11 (the README lists the times); a
# larger request is refused before any work.
Construction = namedtuple("Construction", "builder alphabet weight terms")
_CONSTRUCTIONS = {
    "macdonald": Construction(macdonald_polynomial, "N", 8, 1331883),
    "macdonald-comb": Construction(macdonald_tableau_sum, "N", 18, 71876),
    "skew": Construction(skew_tableau_sum, "mu N", 15, 52689),
    "super": Construction(super_macdonald, "n m", 8, 100947),
    "super-comb": Construction(super_tableau_sum, "n m", 22, 38760),
    "shifted": Construction(interpolation_polynomial, "N", 7, 52119),
    "shifted-comb": Construction(interpolation_by_branching, "N", 7, 25689),
    "shifted-super": Construction(shifted_super_macdonald, "n m", 7, 27132),
    "shifted-super-comb": Construction(shifted_super_tableau_sum, "n m", 13, 12376),
}
_HELP = {"macdonald": "symmetric eigenfunction polynomial of a shape",
         "skew": "skew tableau-sum polynomial",
         "super": "two-alphabet restriction of the polynomial",
         "shifted": "interpolation polynomial of a shape",
         "shifted-super": "shifted two-alphabet polynomial"}

# The two operator verbs: the operator, the input --lambda names, its builder
# and alphabet, what the verb needs without --poly, and its ceilings on the
# variables and the input's degree.  The size is the input's terms times
# ``growth`` per variable, which the cost of one term was measured to exceed
# per added variable; its ceiling is that of --lambda 1 at the variable ceiling.
Operator = namedtuple("Operator",
                      "apply build source alphabet needs variables growth degree")
Operator.size = property(lambda op: op.variables * op.growth ** op.variables)
_OPERATORS = {
    "apply-mr": Operator(apply_mr, monomial_symmetric, "monomial", "N",
                         "--lambda or --poly/--poly-file", 17, 2, 3000),
    "apply-deformed-mr": Operator(apply_deformed_mr, _CONSTRUCTIONS["super"].builder,
                                  "super", "n m", "--poly/--poly-file or --lambda with "
                                  "--n, --m", 9, 4, 102400),
}
_VERB_CEILINGS = {**{verb: c.weight for verb, c in _CONSTRUCTIONS.items()},
                  "eigenvalue": 4000000}
_VARIABLE_CEILINGS = {verb: op.variables for verb, op in _OPERATORS.items()}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="macrui",
        description="Exact computations with Macdonald-type polynomials and "
                    "their deformed difference operators.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--at", metavar="q0,t0", default=None,
                       help="evaluate coefficients at exact rational parameters")
        return p

    for name, construction in _CONSTRUCTIONS.items():
        p = verb(name, help=_HELP[name.removesuffix("-comb")])
        p.add_argument("--lambda", dest="lam", required=True)
        if construction.alphabet == "n m":
            p.add_argument("--n", type=_count, required=True)
            p.add_argument("--m", type=_count, required=True)
            continue
        if construction.alphabet == "mu N":
            p.add_argument("--mu", required=True)
        p.add_argument("--N", type=_count, default=None)

    p = verb("apply-mr", help="apply the difference operator")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="apply to the monomial symmetric polynomial of this shape")
    p.add_argument("--N", type=_count, default=None)
    p.add_argument("--poly", default=None, help="inline polynomial JSON")
    p.add_argument("--poly-file", default=None)

    p = verb("apply-deformed-mr", help="apply the deformed difference operator")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="apply to the two-alphabet polynomial of this shape")
    p.add_argument("--n", type=_count, default=None)
    p.add_argument("--m", type=_count, default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--poly-file", default=None)

    p = verb("eigenvalue", help="operator eigenvalue of a shape")
    p.add_argument("--lambda", dest="lam", required=True)

    p = verb("eval", help="evaluate a constructed polynomial at a partition point")
    p.add_argument("--which", choices=("macdonald", "shifted", "super", "shifted-super"),
                   required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True, help="partition giving the evaluation point")
    p.add_argument("--N", type=_count, default=None)
    p.add_argument("--n", type=_count, default=None)
    p.add_argument("--m", type=_count, default=None)

    p = verb("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-weight", type=_count, default=4,
                   help="weight bound; a weight above the suite's ceiling is "
                        "refused (" + ", ".join(f"{k} {v}" for k, v in
                                               sorted(_WEIGHT_CEILINGS.items())) + ")")
    return ap


def _refuse_above(what, size, ceiling):
    if size > ceiling:
        raise MacruiError(f"{what} {size} is above the ceiling {ceiling}, the "
                          f"largest that finishes in about a minute")


def _check_weight(args):
    """Refuse a construction above its weight ceiling, before any work: the
    one --which names, an operator's --lambda input, else the verb's own."""
    verb = args.verb
    name = _OPERATORS[verb].source if verb in _OPERATORS else getattr(args, "which", verb)
    if name in _VERB_CEILINGS and args.lam is not None:
        _refuse_above(f"{verb}: the weight of --lambda",
                      pt.weight(parse_partition(args.lam)), _VERB_CEILINGS[name])


def _rendered_terms(name, lam, space, mu=()):
    """At most how many terms construction ``name`` renders, counted from the
    request alone; 0 for an alphabet that its builder refuses."""
    if min(space.values()) < 0 or sum(space.values()) > _MAX_VARIABLES:
        return 0
    if "n" in space:
        # symmetric in each alphabet only: any monomial of the degree
        bound = (pt.weight(lam),)
    elif pt.contains(mu, lam):
        # a tableau letter fills at most one box of each column of lam/mu
        heights = [pt.part(pt.conjugate(lam), j) - pt.part(pt.conjugate(mu), j)
                   for j in range(1, pt.part(lam, 1) + 1)]
        bound = pt.conjugate(tuple(sorted((h for h in heights if h), reverse=True)))
    else:
        return 0
    return pt.monomials_below(bound, sum(space.values()), graded=name.startswith("shifted"))


def _check_operator(verb, variables, terms, degree):
    """Refuse an operator input above the verb's variable, size or degree ceiling."""
    _refuse_above(f"{verb}: the variable count", variables, _VARIABLE_CEILINGS[verb])
    op = _OPERATORS[verb]
    _refuse_above(f"{verb}: the input size (terms x {op.growth}^variables)",
                  terms * op.growth ** max(variables, 0), op.size)
    _refuse_above(f"{verb}: the input degree", degree, op.degree)


def _alphabet(alphabet, args, lam, *floor):
    """The variables a request renders in: {"n": n, "m": m}, or {"N": N}
    with N defaulting to the largest of l(lam), 1 and ``floor``."""
    if alphabet == "n m":
        return {"n": args.n, "m": args.m}
    return {"N": args.N if args.N is not None else max(len(lam), 1, *floor)}


def _check_variable_counts(args):
    """Refuse a negative --N, --n or --m, before any work."""
    for flag in ("N", "n", "m"):
        count = getattr(args, flag, None)
        if count is not None and count < 0:
            raise MalformedInputError(f"--{flag} must be nonnegative, got {count}")


def _run(args):
    verb = args.verb
    _check_variable_counts(args)
    _check_weight(args)
    if verb in _CONSTRUCTIONS:
        builder, alphabet, _, ceiling = _CONSTRUCTIONS[verb]
        lam = parse_partition(args.lam)
        skew = {"mu": parse_partition(args.mu)} if alphabet == "mu N" else {}
        floor = (pt.weight(lam),) if verb.startswith("shifted") else ()
        space = _alphabet(alphabet, args, lam, *floor)
        _refuse_above(f"{verb}: the term count",
                      _rendered_terms(verb, lam, space, **skew), ceiling)
        return _result({"verb": verb, "lambda": list(lam), **space,
                        **{k: list(v) for k, v in skew.items()}},
                       builder(lam, *skew.values(), *space.values()), args)

    if verb in _OPERATORS:
        op = _OPERATORS[verb]
        f = _load_poly(args)
        request = {"verb": verb}
        if f is None:
            if args.lam is None or (op.alphabet == "n m" and None in (args.n, args.m)):
                raise MacruiError(f"{verb} needs {op.needs}")
            lam = parse_partition(args.lam)
            space = _alphabet(op.alphabet, args, lam)
            terms = (_rendered_terms(op.source, lam, space) if op.source in _CONSTRUCTIONS
                     else pt.orbit_size(lam, space["N"]))
            _check_operator(verb, sum(space.values()), terms, pt.weight(lam))
            f = op.build(lam, *space.values())
            request.update({"lambda": list(lam), **space, "input": op.source})
        else:
            _check_operator(verb, f.space.dim, len(f.terms), f.degree())
        return _result(request, op.apply(f), args)

    if verb == "eigenvalue":
        lam = parse_partition(args.lam)
        return _result({"verb": verb, "lambda": list(lam)}, mr_eigenvalue(lam), args)

    if verb == "eval":
        which, lam, mu = args.which, parse_partition(args.lam), parse_partition(args.mu)
        space = _alphabet(_CONSTRUCTIONS[which].alphabet, args, lam, pt.weight(lam), len(mu))
        if None in space.values():
            raise MacruiError("eval for two-alphabet objects needs --n and --m")
        if "n" in space:
            variables, point = VarSpace.xy(args.n, args.m), fat_hook_point(mu, args.n, args.m)
        else:
            N = space["N"]
            (pt.check_parts if which == "macdonald" else _check_variable_count)(lam, N)
            variables, point = VarSpace.z(N), partition_point(mu, N)
        expansion = interpolation_pstar_expansion if "shifted" in which else macdonald_p_expansion
        value = expansion_value(expansion(lam), variables, point)
        return _result({"verb": verb, "which": which, "lambda": list(lam),
                        "mu": list(mu), **space}, value, args)

    if verb == "verify":
        if args.at is not None:
            raise MalformedInputError(
                "verify checks identities over Q(q, t) and takes no --at point, "
                f"got --at {args.at!r}")
        report = run_suite(args.suite, args.max_weight)

        def render():
            lines = [f"suite {report['suite']} (max weight {report['max_weight']}): "
                     f"{report['passed']}/{report['total']} passed"]
            for family, bound in sorted(report["bounds"].items()):
                lines.append(f"  bound: {family} "
                             + ", ".join(f"{k}<={v}" for k, v in bound.items()))
            for c in report["checks"]:
                mark = "ok  " if c["passed"] else "FAIL"
                lines.append(f"  [{mark}] {c['name']}"
                             + (f"  {c['witness']}" if c["witness"] else ""))
            return "\n".join(lines)

        _result({"verb": verb, "suite": args.suite, "max_weight": args.max_weight},
                report, args, render)
        return 0 if report["ok"] else 1

    raise MacruiError(f"unhandled verb {verb!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (MacruiError, ValueError, OSError, MemoryError) as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonDivisibleError) and exc.remainder is not None:
            error["remainder"] = jsonio.poly_to_json(exc.remainder)
        print(json.dumps({"error": error}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
