"""Command-line interface.

Computes the library's objects, evaluates them at exact points, and runs
the verification suites, emitting deterministic JSON (default) or readable
text.  Identical requests produce byte-identical JSON.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import MacruiError, MalformedInputError, NonDivisibleError
from . import jsonio
from . import partitions as pt
from .macdonald import (macdonald_polynomial, macdonald_tableau_sum,
                        skew_tableau_sum, super_macdonald, super_tableau_sum)
from .operators import apply_deformed_mr, apply_mr, mr_eigenvalue
from .shifted import (evaluate_at_partition, fat_hook_point,
                      interpolation_polynomial, interpolation_tableau_sum,
                      shifted_super_macdonald, shifted_super_tableau_sum)
from .symfun import monomial_symmetric
from .verify import SUITES, _WEIGHT_CEILINGS, run_suite


def parse_partition(text):
    """Comma-separated integers; the empty string is the empty partition."""
    if text is None or text.strip() == "":
        return ()
    try:
        parts = [int(x) for x in text.split(",")]
    except ValueError:
        raise MalformedInputError(
            f"a partition is comma-separated integers, got {text!r}") from None
    return pt.as_partition(parts)


def parse_at(text):
    """Exact rational parameters "q0,t0", for example "1/2,2"."""
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return tuple(Fraction(x.strip()) for x in parts)
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInputError(f"--at needs two exact rationals q0,t0, got {text!r}")


def _emit(payload, fmt, text_renderer):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text_renderer())


def _poly_result(request, f, args):
    if args.at:
        q0, t0 = parse_at(args.at)
        payload = {"request": request, "result": jsonio.poly_to_json_at(f, q0, t0)}
    else:
        payload = {"request": request, "result": jsonio.poly_to_json(f)}
    if request.get("verb", "").startswith(("super", "shifted-super")) and f.is_zero():
        lam = tuple(request.get("lambda", []))
        if not pt.in_fat_hook(lam, request.get("n", 0), request.get("m", 0)):
            payload["note"] = "outside fat hook"
    _emit(payload, args.format, lambda: str(f))
    return 0


def _scalar_result(request, s, args):
    if args.at:
        q0, t0 = parse_at(args.at)
        payload = {"request": request, "result": jsonio.scalar_to_json_at(s, q0, t0)}
    else:
        payload = {"request": request, "result": jsonio.scalar_to_json(s)}
    _emit(payload, args.format, lambda: str(s))
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


def _add_common(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--at", metavar="q0,t0", default=None,
                   help="evaluate coefficients at exact rational parameters")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="macrui",
        description="Exact computations with Macdonald-type polynomials and "
                    "their deformed difference operators.")
    sub = ap.add_subparsers(dest="verb", required=True)

    def verb(name, **kw):
        p = sub.add_parser(name, **kw)
        _add_common(p)
        return p

    for name in ("macdonald", "macdonald-comb"):
        p = verb(name, help="symmetric eigenfunction polynomial of a shape")
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--N", type=int, default=None)

    p = verb("skew", help="skew tableau-sum polynomial")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--N", type=int, default=None)

    for name in ("super", "super-comb"):
        p = verb(name, help="two-alphabet restriction of the polynomial")
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)

    for name in ("shifted", "shifted-comb"):
        p = verb(name, help="interpolation polynomial of a shape")
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--N", type=int, default=None)

    for name in ("shifted-super", "shifted-super-comb"):
        p = verb(name, help="shifted two-alphabet polynomial")
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)

    p = verb("apply-mr", help="apply the difference operator")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="apply to the monomial symmetric polynomial of this shape")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--poly", default=None, help="inline polynomial JSON")
    p.add_argument("--poly-file", default=None)

    p = verb("apply-deformed-mr", help="apply the deformed difference operator")
    p.add_argument("--lambda", dest="lam", default=None,
                   help="apply to the two-alphabet polynomial of this shape")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--poly", default=None)
    p.add_argument("--poly-file", default=None)

    p = verb("eigenvalue", help="operator eigenvalue of a shape")
    p.add_argument("--lambda", dest="lam", required=True)

    p = verb("eval", help="evaluate a constructed polynomial at a partition point")
    p.add_argument("--which", choices=("macdonald", "shifted", "super", "shifted-super"),
                   required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True, help="partition giving the evaluation point")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)

    p = verb("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--max-weight", type=int, default=4,
                   help="weight bound; a weight above the suite's ceiling is "
                        "refused (" + ", ".join(f"{k} {v}" for k, v in
                                               sorted(_WEIGHT_CEILINGS.items())) + ")")
    return ap


def _run(args):
    verb = args.verb
    if verb in ("macdonald", "macdonald-comb"):
        lam = parse_partition(args.lam)
        N = args.N if args.N is not None else max(len(lam), 1)
        f = (macdonald_polynomial(lam, N) if verb == "macdonald"
             else macdonald_tableau_sum(lam, N))
        return _poly_result({"verb": verb, "lambda": list(lam), "N": N}, f, args)

    if verb == "skew":
        lam, mu = parse_partition(args.lam), parse_partition(args.mu)
        N = args.N if args.N is not None else max(len(lam), 1)
        f = skew_tableau_sum(lam, mu, N)
        return _poly_result({"verb": verb, "lambda": list(lam), "mu": list(mu), "N": N},
                            f, args)

    if verb in ("super", "super-comb"):
        lam = parse_partition(args.lam)
        f = (super_macdonald(lam, args.n, args.m) if verb == "super"
             else super_tableau_sum(lam, args.n, args.m))
        return _poly_result({"verb": verb, "lambda": list(lam),
                             "n": args.n, "m": args.m}, f, args)

    if verb in ("shifted", "shifted-comb"):
        lam = parse_partition(args.lam)
        N = args.N if args.N is not None else max(pt.weight(lam), len(lam), 1)
        f = (interpolation_polynomial(lam, N) if verb == "shifted"
             else interpolation_tableau_sum(lam, N))
        return _poly_result({"verb": verb, "lambda": list(lam), "N": N}, f, args)

    if verb in ("shifted-super", "shifted-super-comb"):
        lam = parse_partition(args.lam)
        f = (shifted_super_macdonald(lam, args.n, args.m) if verb == "shifted-super"
             else shifted_super_tableau_sum(lam, args.n, args.m))
        return _poly_result({"verb": verb, "lambda": list(lam),
                             "n": args.n, "m": args.m}, f, args)

    if verb == "apply-mr":
        f = _load_poly(args)
        request = {"verb": verb}
        if f is None:
            if args.lam is None:
                raise MacruiError("apply-mr needs --lambda or --poly/--poly-file")
            lam = parse_partition(args.lam)
            N = args.N if args.N is not None else max(len(lam), 1)
            f = monomial_symmetric(lam, N)
            request.update({"lambda": list(lam), "N": N, "input": "monomial"})
        return _poly_result(request, apply_mr(f), args)

    if verb == "apply-deformed-mr":
        f = _load_poly(args)
        request = {"verb": verb}
        if f is None:
            if args.lam is None or args.n is None or args.m is None:
                raise MacruiError(
                    "apply-deformed-mr needs --poly/--poly-file or --lambda with --n, --m")
            lam = parse_partition(args.lam)
            f = super_macdonald(lam, args.n, args.m)
            request.update({"lambda": list(lam), "n": args.n, "m": args.m,
                            "input": "super"})
        return _poly_result(request, apply_deformed_mr(f), args)

    if verb == "eigenvalue":
        lam = parse_partition(args.lam)
        return _scalar_result({"verb": verb, "lambda": list(lam)},
                              mr_eigenvalue(lam), args)

    if verb == "eval":
        lam, mu = parse_partition(args.lam), parse_partition(args.mu)
        request = {"verb": verb, "which": args.which,
                   "lambda": list(lam), "mu": list(mu)}
        if args.which in ("macdonald", "shifted"):
            N = args.N if args.N is not None else max(
                pt.weight(lam), len(lam), len(mu), 1)
            f = (macdonald_polynomial(lam, N) if args.which == "macdonald"
                 else interpolation_polynomial(lam, N))
            request["N"] = N
            value = evaluate_at_partition(f, mu)
        else:
            if args.n is None or args.m is None:
                raise MacruiError("eval for two-alphabet objects needs --n and --m")
            request.update({"n": args.n, "m": args.m})
            f = (super_macdonald(lam, args.n, args.m) if args.which == "super"
                 else shifted_super_macdonald(lam, args.n, args.m))
            value = f.evaluate(fat_hook_point(mu, args.n, args.m))
        return _scalar_result(request, value, args)

    if verb == "verify":
        if args.at is not None:
            raise MalformedInputError(
                "verify checks identities over Q(q, t) and takes no --at point, "
                f"got --at {args.at!r}")
        report = run_suite(args.suite, args.max_weight)
        payload = {"request": {"verb": verb, "suite": args.suite,
                               "max_weight": args.max_weight},
                   "result": report}

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

        _emit(payload, args.format, render)
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
    except (MacruiError, ValueError, OSError) as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonDivisibleError) and exc.remainder is not None:
            error["remainder"] = jsonio.poly_to_json(exc.remainder)
        print(json.dumps({"error": error}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
