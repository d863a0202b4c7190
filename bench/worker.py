"""One cold benchmark process: imports macrui from the checkout and runs one request.

    worker.py import                      time ``import macrui``
    worker.py api ITEMS_JSON TRACE        run library calls, one after another
    worker.py cli ARG...                  run the CLI in-process under the tracer

Each mode prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_macrui():
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import macrui
    import_s = perf_counter() - t0
    if not Path(macrui.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"macrui was imported from {macrui.__file__}, not from {SRC}")
    return macrui, import_s


def poly_digest(jsonio, f):
    """sha256 and size of the sorted-key JSON of ``jsonio.poly_to_json``."""
    data = json.dumps(jsonio.poly_to_json(f), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def run_api(items, traced):
    macrui, import_s = import_macrui()
    from macrui import jsonio
    tracer = None
    if traced:
        from layertrace import Tracer
        tracer = Tracer().install()
    results = []
    t_first = perf_counter()
    for fn, lam, *rest in items:
        t0 = perf_counter()
        try:
            f = getattr(macrui, fn)(tuple(lam), *rest)
            digest, size = poly_digest(jsonio, f)
            error = None
        except Exception as exc:   # recorded as a failed item, never fatal
            digest, size, error = None, 0, f"{type(exc).__name__}: {exc}"
        results.append({"s": perf_counter() - t0, "sha256": digest,
                        "bytes": size, "error": error})
    wall_s = perf_counter() - t_first
    return {"import_s": import_s, "wall_s": wall_s, "items": results,
            "trace": tracer.snapshot() if tracer else None}


def run_cli_traced(argv):
    _, import_s = import_macrui()
    import macrui.cli
    from layertrace import Tracer
    tracer = Tracer().install()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = macrui.cli.main(argv)
    return {"import_s": import_s, "exit": code, "stdout": buf.getvalue(),
            "trace": tracer.snapshot()}


def main(argv):
    mode = argv[0]
    if mode == "import":
        _, import_s = import_macrui()
        out = {"import_s": import_s}
    elif mode == "api":
        out = run_api(json.loads(argv[1]), argv[2] == "1")
    elif mode == "cli":
        out = run_cli_traced(argv[1:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
