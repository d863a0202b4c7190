"""Command-line interface.

Computes the library's objects, evaluates them at exact points, and runs
the verification suites, emitting deterministic JSON (default) or readable
text.  Identical requests produce byte-identical JSON.
"""

import argparse
import json
import os
import resource
import signal
import sys
import time
from collections import namedtuple
from fractions import Fraction

from .errors import BudgetExceededError, MacruiError, MalformedInputError, NonDivisibleError
from . import jsonio
from . import partitions as pt
from .macdonald import (macdonald_p_expansion, macdonald_polynomial, macdonald_tableau_sum,
                        skew_tableau_sum, super_macdonald, super_tableau_sum)
from .operators import apply_deformed_mr, apply_mr, mr_eigenvalue
from .polyring import VarSpace
from .shifted import (fat_hook_point, interpolation_by_branching, interpolation_polynomial,
                      interpolation_pstar_expansion, partition_point, shifted_super_macdonald,
                      shifted_super_tableau_sum)
from .symfun import expansion_value, monomial_symmetric
from .verify import SUITES, _WEIGHT_CEILINGS, run_suite


# The budget of one request on the CLI's own process: a wall clock in seconds
# and a soft limit on the address space in bytes, never above the one in
# force.  It stops before the first byte of output, so printing, which is
# linear in the output, is never cut off; an output larger than the
# address-space budget is refused instead.
_BUDGET_SECONDS = 60
_BUDGET_BYTES = 2 * 1024 ** 3

# While a request runs: the SIGALRM handler, timer and address-space limits
# its budget replaced, and when it started.
_replaced = []


def _over_budget(signum, frame):
    raise BudgetExceededError(f"the request ran past its budget of {_BUDGET_SECONDS} s")


def _start_budget():
    soft, hard = limits = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (
        _BUDGET_BYTES if soft == resource.RLIM_INFINITY else min(_BUDGET_BYTES, soft), hard))
    handler = signal.signal(signal.SIGALRM, _over_budget)
    _replaced.append((handler, signal.setitimer(signal.ITIMER_REAL, _BUDGET_SECONDS),
                      limits, time.monotonic()))


def _stop_budget():
    """Give the process back what the budget replaced, if it is running; a
    timer that was running goes on with the time it had left.  The alarm is
    stopped before anything is taken off ``_replaced``, so an alarm that
    fires meanwhile leaves it whole for the next call."""
    if not _replaced:
        return
    signal.setitimer(signal.ITIMER_REAL, 0)
    handler, (delay, interval), limits, start = _replaced.pop()
    signal.signal(signal.SIGALRM, handler)
    if delay:
        signal.setitimer(signal.ITIMER_REAL,
                         max(delay - (time.monotonic() - start), 1e-6), interval)
    resource.setrlimit(resource.RLIMIT_AS, limits)


def _output_ready(size):
    """Stop the budget before the first byte of an output of ``size`` bytes,
    or refuse an output larger than the address-space budget."""
    if size > _BUDGET_BYTES:
        raise BudgetExceededError(
            f"the result is {size} bytes long, past the budget of {_BUDGET_BYTES} bytes")
    _stop_budget()


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
    """Print a result, returning exit code 0: its JSON, evaluated at --at
    when given (a malformed --at is refused in either format), or with
    --format text ``text()``, by default str(value).  The budget runs until
    the output is rendered and stops before its first byte.  A zero
    two-alphabet polynomial, or operator image of one, whose --lambda is
    outside the fat hook carries a note that says so."""
    at = parse_at(args.at) if args.at else None
    if args.format == "text":
        out = (str(value) if text is None else text()) + "\n"
        _output_ready(len(out))
        sys.stdout.write(out)
        return 0
    off_hook = ((request["verb"].startswith(("super", "shifted-super"))
                 or request.get("input") == "super") and value.is_zero()
                and not pt.in_fat_hook(tuple(request["lambda"]), request["n"], request["m"]))
    jsonio.write_result(request, value, at, "outside fat hook" if off_hook else None,
                        _output_ready)
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


# Every construction verb: its library builder and the alphabet it renders
# in ("N": --N variables, by default l(lam) and at least |lam| for a shifted
# verb; "mu N": the same for the skew shape lam/mu; "n m": --n x- and --m
# y-variables).
Construction = namedtuple("Construction", "builder alphabet")
_CONSTRUCTIONS = {
    "macdonald": Construction(macdonald_polynomial, "N"),
    "macdonald-comb": Construction(macdonald_tableau_sum, "N"),
    "skew": Construction(skew_tableau_sum, "mu N"),
    "super": Construction(super_macdonald, "n m"),
    "super-comb": Construction(super_tableau_sum, "n m"),
    "shifted": Construction(interpolation_polynomial, "N"),
    "shifted-comb": Construction(interpolation_by_branching, "N"),
    "shifted-super": Construction(shifted_super_macdonald, "n m"),
    "shifted-super-comb": Construction(shifted_super_tableau_sum, "n m"),
}
_HELP = {"macdonald": "symmetric eigenfunction polynomial of a shape",
         "skew": "skew tableau-sum polynomial",
         "super": "two-alphabet restriction of the polynomial",
         "shifted": "interpolation polynomial of a shape",
         "shifted-super": "shifted two-alphabet polynomial"}

# The two operator verbs: the operator, the input --lambda names and its
# alphabet, and what the verb needs without --poly.
Operator = namedtuple("Operator", "apply source alphabet needs")
_OPERATORS = {
    "apply-mr": Operator(apply_mr, "monomial", "N", "--lambda or --poly/--poly-file"),
    "apply-deformed-mr": Operator(apply_deformed_mr, "super", "n m",
                                 "--poly/--poly-file or --lambda with --n, --m"),
}


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


def _alphabet(alphabet, args, lam, *floor):
    """The variables a request renders in: {"n": n, "m": m}, or {"N": N}
    with N defaulting to the largest of l(lam), 1 and ``floor``."""
    if alphabet == "n m":
        return {"n": args.n, "m": args.m}
    return {"N": args.N if args.N is not None else max(len(lam), 1, *floor)}


def _variables(space):
    """The VarSpace of an ``_alphabet``, which refuses over 64 variables."""
    return VarSpace("xy" if "n" in space else "z", *space.values())


def _check_variable_counts(args):
    """Refuse a negative --N, --n or --m, before any work."""
    for flag in ("N", "n", "m"):
        count = getattr(args, flag, None)
        if count is not None and count < 0:
            raise MalformedInputError(f"--{flag} must be nonnegative, got {count}")


def _construct(verb, args):
    """The request and polynomial of construction ``verb``, if its checks pass."""
    builder, alphabet = _CONSTRUCTIONS[verb]
    lam = parse_partition(args.lam)
    skew = {"mu": parse_partition(args.mu)} if alphabet == "mu N" else {}
    floor = (pt.weight(lam),) if verb.startswith("shifted") else ()
    space = _alphabet(alphabet, args, lam, *floor)
    _variables(space)
    if alphabet == "N":
        pt.check_parts(lam, space["N"])
    return ({"verb": args.verb, "lambda": list(lam), **space,
             **{k: list(v) for k, v in skew.items()}},
            builder(lam, *skew.values(), *space.values()))


def _run(args):
    verb = args.verb
    _check_variable_counts(args)
    if verb in _CONSTRUCTIONS:
        return _result(*_construct(verb, args), args)

    if verb in _OPERATORS:
        op, f, request = _OPERATORS[verb], _load_poly(args), {"verb": verb}
        if f is None:
            if args.lam is None or (op.alphabet == "n m" and None in (args.n, args.m)):
                raise MacruiError(f"{verb} needs {op.needs}")
            lam = parse_partition(args.lam)
            space = _alphabet(op.alphabet, args, lam)
            request.update({"lambda": list(lam), **space, "input": op.source})
            f = (_construct(op.source, args)[1] if op.source in _CONSTRUCTIONS
                 else monomial_symmetric(lam, space["N"]))
        elif f.space.kind != ("xy" if op.alphabet == "n m" else "z"):
            other = next(v for v in _OPERATORS if v != verb)
            raise MalformedInputError(f"{verb} does not act on {f.space.kind}-space "
                                      f"polynomials; give this one to {other}")
        return _result(request, op.apply(f), args)

    if verb == "eigenvalue":
        lam = parse_partition(args.lam)
        return _result({"verb": verb, "lambda": list(lam)}, mr_eigenvalue(lam), args)

    if verb == "eval":
        which, lam, mu = args.which, parse_partition(args.lam), parse_partition(args.mu)
        space = _alphabet(_CONSTRUCTIONS[which].alphabet, args, lam, pt.weight(lam), len(mu))
        if None in space.values():
            raise MacruiError("eval for two-alphabet objects needs --n and --m")
        variables = _variables(space)
        if "n" in space:
            point = fat_hook_point(mu, args.n, args.m)
        else:
            pt.check_parts(lam, space["N"])
            point = partition_point(mu, space["N"])
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
    """Run one request under the budget, on this process."""
    args = build_parser().parse_args(argv)
    _start_budget()
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
    except (MacruiError, BudgetExceededError, ValueError, OSError, MemoryError) as exc:
        _stop_budget()
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonDivisibleError) and exc.remainder is not None:
            error["remainder"] = jsonio.poly_to_json(exc.remainder)
        print(json.dumps({"error": error}, sort_keys=True))
        return 1
    finally:
        _stop_budget()


if __name__ == "__main__":
    sys.exit(main())
