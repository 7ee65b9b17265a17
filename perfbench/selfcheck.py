#!/usr/bin/env python3
"""The benchmark's own checks: smoke runs, input determinism and the tracer.

Run from the root of a checkout (takes about a minute):

  python3 perfbench/selfcheck.py

* a tiny traced and untraced run of every workload prints exactly the
  metrics ``BENCHMARK.json`` names, each with its unit, and reads correct;
* the untraced run sees no wrapped function, the traced one does;
* one seed regenerates identical inputs, another seed gives different ones;
* the tracer reproduces the known call counts of
  ``decompose(bergman_shift(), e0 + e40)``: 160 Gram solves, 160 Gram
  derivations, 365 adjoints, n_used 41 and j_used 40;
* two traced runs with one seed give identical per-layer counts;
* the tracing overhead, as untraced against traced throughput.

Exits 1 if any check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def bench(workload, trace, seconds, seed=1, max_ops=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if max_ops is not None:
        cmd += ["--max-ops", str(max_ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    info = dict(tok.split("=", 1) for tok in lines[1].split() if "=" in tok)
    return json.loads(lines[-1]), info, proc.stdout


def smoke(spec):
    want = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, wl in WORKLOADS.items():
        for trace in (0, 1):
            res, info, text = bench(name, trace, seconds=120, max_ops=len(wl.cycle))
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == want[str(trace)], f"{name} trace={trace}: metric names and units "
                                          "match BENCHMARK.json")
            printed = all(f"{k} " in text and f" {u}" in text for k, u in got.items())
            check(printed, f"{name} trace={trace}: every metric printed with its unit")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace}: correct, {res['attempted']} ops")
            wrapped = int(info["wrapped_entry_points"])
            check((wrapped > 0) if trace else (wrapped == 0),
                  f"{name} trace={trace}: {wrapped} wrapped entry points")


def inputs():
    for name, wl in WORKLOADS.items():
        n = 2 * len(wl.cycle)
        a = [wl.describe(1, i) for i in range(n)]
        b = [wl.describe(1, i) for i in range(n)]
        c = [wl.describe(2, i) for i in range(n)]
        check(a == b, f"{name}: one seed regenerates identical inputs")
        check(a != c, f"{name}: another seed gives different inputs")


def bergman_counts():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import woldkit
    from tracing import Tracer, wrapped_entry_points

    T = woldkit.bergman_shift()
    h = woldkit.unit(0) + woldkit.unit(40)
    tracer = Tracer()
    tracer.install()
    try:
        res = woldkit.decompose(T, h)
    finally:
        tracer.uninstall()
    got = (tracer.calls["bandop.solve_gram"], tracer.calls["bandop.gram"],
           tracer.calls["bandop.adjoint"], res.n_used, res.j_used)
    check(got == (160, 160, 365, 41, 40),
          f"bergman e0+e40: solve_gram, gram, adjoint, n_used, j_used = {got}")
    check(wrapped_entry_points() == 0, "uninstall restores every wrapped entry point")


def trace_repeat_and_overhead():
    for name in WORKLOADS:
        first, _, _ = bench(name, 1, seconds=1)
        second, _, _ = bench(name, 1, seconds=1)
        counts = [k for k, m in first["metrics"].items() if m["unit"] != "s/op"]
        same = all(first["metrics"][k]["value"] == second["metrics"][k]["value"]
                   for k in counts)
        check(same, f"{name}: two traced runs, one seed, identical counts ({len(counts)})")
        ops = 2 * len(WORKLOADS[name].cycle)
        _, info0, _ = bench(name, 0, seconds=120, max_ops=ops)
        _, info1, _ = bench(name, 1, seconds=120, max_ops=ops)
        r0, r1 = float(info0["ops_per_refs(all)"]), float(info1["ops_per_refs(all)"])
        print(f"      {name}: tracing overhead over the same {ops} ops: {r0:.2f} ops/refs "
              f"untraced, {r1:.2f} traced (traced/untraced = {r1 / r0:.2f})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    inputs()
    bergman_counts()
    smoke(spec)
    trace_repeat_and_overhead()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
