"""Checks of the benchmark itself.

    python3 bench/selfcheck.py

1. A corrupted reference, an item that raises and a suite that reports a
   different count are each reported as failures, not silently passed.
2. The count-type per-layer metrics repeat exactly for two seeds.
3. The runs report exactly the metrics that BENCHMARK.json names.

Exits 1 if any check fails.  Takes about two minutes.
"""

import copy
import json
import random
import sys

from run import ROOT, REFERENCE, WORKLOADS, Workload, measure, measure_traced, run_rep

COUNTS = ("scalar.gcd_calls", "scalar.arith_calls", "linalg.solve_calls",
          "linalg.solve_rows_sum", "operators.apply_calls", "operators.max_vars",
          "symfun.m_to_p_calls", "polyring.calls", "partitions.calls",
          "verify.checks", "jsonio.bytes")


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    return ok


def reference_checks(ref):
    ok = True
    for name in ("mac_w5", "verify_w3"):
        wl = WORKLOADS[name]
        rep = run_rep(wl, random.Random(0))
        ok &= check(rep.failures(ref[name]) == 0, f"{name}: outputs match the reference")
        bad = copy.deepcopy(ref[name])
        key = sorted(bad)[0]
        if wl.cli:
            bad[key]["total"] += 1
        else:
            bad[key] = bad[key][::-1]
        ok &= check(rep.failures(bad) == 1, f"{name}: a corrupted entry ({key}) is a failure")
    raising = Workload("raising", "", (("macdonald_polynomial", (1, 2), 2),
                                       ("macdonald_polynomial", (2,), 1)))
    rep = run_rep(raising, random.Random(0))
    ok &= check(rep.failures({}) == 2, "items that raise or lack a reference are failures")
    return ok


def counter_checks(ref, declared):
    ok = True
    for name, wl in sorted(WORKLOADS.items()):
        runs = [measure_traced(wl, seed, ref[name]) for seed in (0, 1)]
        ok &= check(all(r["failed"] == 0 for r in runs), f"{name}: traced runs succeed")
        ok &= check(set(runs[0]["metrics"]) == declared["per_layer"],
                    f"{name}: traced metrics are the declared per-layer metrics")
        for key in COUNTS:
            a, b = (r["metrics"][key]["value"] for r in runs)
            ok &= check(a == b, f"{name}: {key} = {a} for seeds 0 and 1" +
                        ("" if a == b else f" (seed 1: {b})"))
    return ok


def main():
    ref = json.loads(REFERENCE.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")}
    ok = reference_checks(ref)
    run = measure(WORKLOADS["mac_w5"], 0, 1, ref["mac_w5"])
    ok &= check(run["failed"] == 0 and set(run["metrics"]) == declared["end_to_end"],
                "untraced metrics are the declared end-to-end metrics")
    ok &= counter_checks(ref, declared)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
