"""macrui benchmark: cold-process workloads over the public API and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, one table

Every repetition runs in a fresh interpreter, one process at a time, because
the library's module-level caches are unbounded and cannot be cleared.  The
seed only permutes the order of the items.  Each item's output is checked
against ``bench/reference.json``.  With ``--trace 0`` the run reports the
end-to-end metrics (medians over the repetitions); with ``--trace 1`` it runs
one untraced and one traced repetition and reports the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
REFERENCE = BENCH / "reference.json"

SETUP_PROBES = 3        # fresh `import macrui` processes before the repetitions
MIN_REPS = 3            # repetitions per run, at least
CHILD_TIMEOUT_S = 60    # a single child process is killed after this
MAX_MEASURE_S = 90      # no new repetition starts after this


def partitions_of(d, max_part=None):
    """Partitions of d in reverse lexicographic order."""
    max_part = d if max_part is None else max_part
    if d == 0:
        return [()]
    return [(k,) + rest for k in range(min(d, max_part), 0, -1)
            for rest in partitions_of(d - k, k)]


SUITES = ("eigen", "commdia", "kernel", "duality", "vanishing",
          "combinatorial", "cherednik", "identities")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: tuple          # api: (function, partition, *args); cli: suite names
    cli: bool = False
    max_weight: int = 0


# BENCHMARK.json declares super_w5 and verify_w3.  mac_w5 and interp_w5 run by
# name or with --workload all; see README.md for why they are not declared.
WORKLOADS = {w.name: w for w in (
    Workload("mac_w5",
             "all 7 P_lam of weight 5 at N=5: the operator m-matrix (apply_mr) "
             "and scalar gcds, no linalg; the first item fills the operator cache",
             tuple(("macdonald_polynomial", lam, 5) for lam in partitions_of(5))),
    Workload("super_w5",
             "all 7 super restrictions of weight 5 at (n,m)=(2,2): the operator "
             "m-matrix at N=d+1=6, the m->p linalg solve and the symfun restriction",
             tuple(("super_macdonald", lam, 2, 2) for lam in partitions_of(5))),
    Workload("interp_w5",
             "all 7 interpolation polynomials of weight 5 at N=5: 19x19 Gauss-Jordan "
             "solves over Q(q,t), dominated by qt_gcd, no operator calls",
             tuple(("interpolation_polynomial", lam, 5) for lam in partitions_of(5))),
    Workload("verify_w3",
             "macrui verify --max-weight 3 for each of the 8 suites, each in its own "
             "process: CLI, verify, combinatorics and import cost paid 8 times",
             SUITES, cli=True, max_weight=3),
)}

# Wrapped functions every traced repetition of the workload must reach.
MUST_CALL = {
    "mac_w5": ("scalar.qt_gcd", "scalar.QTScalar.__mul__", "operators.apply_mr_detailed",
               "polyring.linear_combination", "partitions.partitions_of",
               "macdonald.macdonald_polynomial", "jsonio.poly_to_json"),
    "super_w5": ("scalar.qt_gcd", "operators.apply_mr_detailed", "linalg.solve_square",
                 "symfun.monomial_to_power_expansion", "symfun.restrict_p_expansion",
                 "macdonald.super_macdonald", "jsonio.poly_to_json"),
    "interp_w5": ("scalar.qt_gcd", "scalar.QTScalar.__add__", "linalg.solve_square",
                  "polyring.linear_combination", "shifted.interpolation_polynomial",
                  "jsonio.poly_to_json"),
    "verify_w3": ("scalar.qt_gcd", "operators.apply_mr_detailed", "partitions.partitions_of",
                  "macdonald.macdonald_polynomial", "shifted.interpolation_polynomial",
                  "verify.run_suite", "cli.main"),
}


def item_key(item):
    if isinstance(item, str):
        return item
    fn, lam, *rest = item
    return ",".join(map(str, lam)) + "|" + ",".join(map(str, rest))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    out: str
    wall_s: float
    rss_mb: float
    data: dict = None     # a worker's JSON result


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv):
    """Run a child to completion; its peak RSS comes from ``wait4``."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out, perf_counter() - t0, usage.ru_maxrss / 1024)


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def run_worker(*args):
    child = spawn([sys.executable, str(WORKER), *args])
    child.data = last_json(child.out) if child.code == 0 else None
    if child.data is None:
        sys.stderr.write(child.out[-2000:])
    return child


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    wall_s: float
    item_s: list
    peak_rss_mb: float
    outputs: dict         # item key -> sha256 (api) or {"total", "ok"} (cli); None if failed
    json_bytes: int = 0
    checks: int = 0
    snapshots: tuple = ()
    import_s: float = None   # the worker's own `import macrui` (API workloads)

    def failures(self, ref):
        bad = [k for k, v in self.outputs.items() if v is None or v != ref.get(k)]
        for key in bad:
            sys.stderr.write(f"item {key}: failed or differs from the reference\n")
        return len(bad)


def run_api_rep(wl, order, traced):
    child = run_worker("api", json.dumps(order), "1" if traced else "0")
    data = child.data
    if data is None:
        return Rep(child.wall_s, [child.wall_s], child.rss_mb,
                   {item_key(i): None for i in order})
    outputs = {item_key(item): res["sha256"] if res["error"] is None else None
               for item, res in zip(order, data["items"])}
    return Rep(data["wall_s"], [r["s"] for r in data["items"]], child.rss_mb, outputs,
               sum(r["bytes"] for r in data["items"]), 0,
               (data["trace"],) if traced else (), data["import_s"])


def run_cli_rep(wl, order, traced):
    t0 = perf_counter()
    children, outputs, nbytes, checks, snaps = [], {}, 0, 0, []
    for suite in order:
        args = ["verify", "--suite", suite, "--max-weight", str(wl.max_weight)]
        if traced:
            child = run_worker("cli", *args)
            data = child.data
            code, out = (data["exit"], data["stdout"]) if data else (1, "")
            if data:
                snaps.append(data["trace"])
        else:
            child = spawn([sys.executable, "-m", "macrui.cli", *args])
            code, out = child.code, child.out
        report = (last_json(out) or {}).get("result", {})
        outputs[suite] = ({"total": report.get("total"), "ok": report.get("ok")}
                          if code == 0 else None)
        children.append(child)
        nbytes += len(out.encode())
        checks += report.get("total", 0)
    return Rep(perf_counter() - t0, [c.wall_s for c in children],
               max(c.rss_mb for c in children), outputs, nbytes, checks, tuple(snaps))


def run_rep(wl, rng, traced=False):
    order = list(wl.items)
    rng.shuffle(order)
    return (run_cli_rep if wl.cli else run_api_rep)(wl, order, traced)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def add(out, name, value, unit, samples):
    out["metrics"][name] = {"value": value, "unit": unit}
    out["lines"].append(f"  {name:<26} {value:>14.6g} {unit:<6} n={samples}")


def note(out, name, value, unit, detail):
    out["lines"].append(f"  {name:<26} {value:>14.6g} {unit:<6} {detail}")


def import_probe():
    """``import macrui`` in a fresh interpreter."""
    child = run_worker("import")
    if child.data is None:
        raise SystemExit("import probe failed")
    return child.data["import_s"]


def measure(wl, seed, seconds, ref):
    """End-to-end metrics: medians over cold repetitions.

    ``setup_s`` samples ``import macrui`` in fresh interpreters: a few probes
    first, then one per repetition, taken from the repetition's own worker
    for API workloads and from a probe just before it for the CLI workload.
    """
    out = {"metrics": {}, "lines": [], "attempted": 0, "failed": 0}
    setup = [import_probe() for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    reps, spans = [], []
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        if wl.cli:
            setup.append(import_probe())
        reps.append(run_rep(wl, rng))
        if reps[-1].import_s is not None:
            setup.append(reps[-1].import_s)
        spans.append(perf_counter() - r0)
        elapsed = perf_counter() - t0
        if len(reps) >= MIN_REPS and (elapsed + statistics.median(spans) > seconds
                                      or elapsed > MAX_MEASURE_S):
            break
    n = len(reps)
    out["attempted"] = sum(len(r.outputs) for r in reps)
    out["failed"] = sum(r.failures(ref) for r in reps)
    add(out, "wall_s", statistics.median(r.wall_s for r in reps), "s", n)
    add(out, "setup_s", statistics.median(setup), "s", len(setup))
    add(out, "peak_rss_mb", statistics.median(r.peak_rss_mb for r in reps), "MB", n)
    # Printed only: a single item spreads too much across runs to be gated.
    note(out, "item_max_s", statistics.median(max(r.item_s) for r in reps), "s", f"n={n}")
    note(out, "fail_ratio", out["failed"] / out["attempted"], "1",
         f"{out['failed']}/{out['attempted']} items")
    return out


def measure_traced(wl, seed, ref):
    """Per-layer metrics from one traced repetition, next to one untraced one."""
    out = {"metrics": {}, "lines": [], "attempted": 0, "failed": 0}
    rng = random.Random(seed)
    plain = run_rep(wl, rng)
    traced = run_rep(wl, rng, traced=True)
    out["attempted"] = len(plain.outputs) + len(traced.outputs)
    out["failed"] = plain.failures(ref) + traced.failures(ref)
    snap = layertrace.merge(traced.snapshots)
    missing = [k for k in MUST_CALL[wl.name] if not snap["calls"].get(k)]
    if missing or len(traced.snapshots) != (len(wl.items) if wl.cli else 1):
        sys.stderr.write(f"traced run incomplete; no calls recorded of {missing}\n")
        out["failed"] += 1
    for name, (value, unit) in layertrace.layer_metrics(snap).items():
        add(out, name, value, unit, 1)
    add(out, "verify.checks", traced.checks, "count", 1)
    add(out, "jsonio.bytes", traced.json_bytes, "B", 1)
    add(out, "trace.overhead_ratio", traced.wall_s / plain.wall_s, "ratio", 1)
    return out


def environment():
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = "not installed"
    return (f"# python {platform.python_version()}, sympy {sympy}, "
            f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}")


def result_line(outs):
    attempted = sum(o["attempted"] for o in outs.values())
    failed = sum(o["failed"] for o in outs.values())
    if len(outs) == 1:
        metrics = next(iter(outs.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, o in outs.items() for k, v in o["metrics"].items()}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "macrui" / "__init__.py").is_file():
        print(f"error: no macrui sources under {SRC}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())
    if run_worker("import").data is None:   # also writes the bytecode cache once
        print("error: macrui does not import", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment())
    outs = {}
    for name in names:
        wl = WORKLOADS[name]
        outs[name] = (measure_traced(wl, args.seed, ref[name]) if args.trace
                      else measure(wl, args.seed, args.seconds, ref[name]))
        print(f"{name} (seed {args.seed}, {'traced' if args.trace else 'untraced'})")
        print("\n".join(outs[name]["lines"]), flush=True)
    print(result_line(outs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
