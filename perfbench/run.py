#!/usr/bin/env python3
"""woldkit benchmark: one workload, one seed, one closed-loop client.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload {shift-series,block-diagnostics,cli-zoo}
                           --seed N --seconds S --trace {0,1} [--max-ops N]

The ops run in a child process (``worker.py``) with BLAS/OpenMP threads
pinned to 1, an address-space cap and a per-op wall budget, so a runaway op
becomes a counted failure instead of taking the machine down.  With
``--trace 0`` the run reports the end-to-end metrics; set-up time is the
median over several fresh processes.  Op times are reported in reference
milliseconds (refms): an op's wall time divided by the wall time of one unit
of a fixed pure-Python reference workload timed just before and after it
(one unit takes about 1 ms on an idle 2.1 GHz core).  The CPU of a shared
machine changes speed by a third within seconds for the same work; the
ratio cancels that, and the wall-clock figures are printed alongside.
With ``--trace 1`` every woldkit
module's entry points are wrapped in spans and the run reports per-layer
metrics, per op, over a fixed prefix of the op stream.  Every op's result
is checked outside its timed span.  The last line of standard output is the
JSON result; the lines before it give every metric with its unit and sample
count.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_RUNS = 8          # set-up-only processes; the measuring one adds a 9th sample
RUN_LIMIT_S = 170.0     # the whole run, set-ups included, ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def normalise(records):
    """Each op record with ``refms``: its time over the reference unit around it."""
    ops, pending, last_ref = [], [], None
    for r in records:
        if "ref_ms" in r:
            for op in pending:
                op["refms"] = op["ms"] / ((last_ref + r["ref_ms"]) / 2.0)
            ops += pending
            pending, last_ref = [], r["ref_ms"]
        elif "op" in r:
            pending.append(r)
    for op in pending:  # the process ended before a closing burst
        op["refms"] = op["ms"] / last_ref
    return ops + pending


def end_to_end(records, ops, chunk, setups, end, attempted, failed):
    """The end-to-end metrics of an untraced run; prints each with its samples."""
    refs = [r["ref_ms"] for r in records if "ref_ms" in r]
    cost = sorted(r["refms"] for r in ops)
    ms = sorted(r["ms"] for r in ops)
    # every chunk is one whole op cycle, so the chunks share one mix
    throughputs = []
    for k in range(0, len(ops) - chunk + 1, chunk):
        part = ops[k:k + chunk]
        ok = sum(1 for r in part if r["fail"] is None)
        throughputs.append(ok / (sum(r["refms"] for r in part) / 1e3))
    if not throughputs:
        throughputs = [(attempted - failed) / (sum(cost) / 1e3)]
    if end is not None:
        peak_mb = end["peak_rss_mb"]
    else:  # the measuring process died: the largest child it was
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    p90 = percentile(cost, 90)
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} fresh processes"),
        "ops_per_refs": (statistics.median(throughputs), "1/refs",
                         f"median of {len(throughputs)} chunks of {chunk} ops"),
        "latency_p50_refms": (percentile(cost, 50), "refms", f"{len(cost)} ops"),
        "latency_p90_refms": (p90, "refms",
                              f"{len(cost)} ops, {sum(1 for x in cost if x > p90)} beyond p90"),
        "peak_rss_mb": (peak_mb, "MB", "1 process"),
    }
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:18s} {value:12.4f} {unit:6s} ({samples})")
    print(f"  {'fail_frac':18s} {failed / attempted:12.4f} {'1':6s} ({failed} of {attempted} ops)")
    print(f"  wall clock: latency_p50_ms={percentile(ms, 50):.4f} "
          f"latency_p90_ms={percentile(ms, 90):.4f}; "
          f"reference unit {statistics.median(refs):.4f} ms "
          f"(median of {len(refs)} bursts, {min(refs):.4f}..{max(refs):.4f})")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def run_worker(args, role, timeout):
    """Run one worker process; returns its protocol records and exit code."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            break  # a line cut short by a killed process
    return records, proc.returncode


def commit_id():
    """The checkout's commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head[:12]
    except OSError:
        return "unknown"


def main():
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many ops (for smoke runs)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "woldkit", "__init__.py")):
        print(f"no woldkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    t_end = time.monotonic() + RUN_LIMIT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            records, code = run_worker(args, "setup", min(60.0, t_end - time.monotonic()))
            if code != 0 or not records:
                print(f"set-up process failed (exit {code})", file=sys.stderr)
                return 3
            setups.append(records[0]["setup_s"])

    records, code = run_worker(args, "measure", t_end - time.monotonic())
    if not records or "setup_s" not in records[0]:
        print(f"measuring process failed before its first op (exit {code})", file=sys.stderr)
        return 3
    setups.append(records[0]["setup_s"])
    ops = normalise(records)
    end = next((r for r in records if r.get("end")), None)
    if not ops:
        print("no op completed", file=sys.stderr)
        return 3
    failed = sum(1 for r in ops if r["fail"] is not None)
    attempted = len(ops)
    if end is None:
        # the process died or was killed during an op: that op failed too
        attempted += 1
        failed += 1
        print(f"measuring process ended during op {len(ops)} (exit {code})", file=sys.stderr)
    for r in ops:
        if r["fail"] is not None:
            print(f"op {r['op']} failed: {r['fail']}", file=sys.stderr)

    versions = (end or {}).get("versions", {})
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} commit={commit_id()} nproc={os.cpu_count()} "
          + " ".join(f"{k}={v}" for k, v in versions.items()))
    busy_s = sum(r["ms"] for r in ops) / 1e3
    print(f"  ops={attempted} failed={failed} fail_frac={failed / attempted:.4g} "
          f"busy_s={busy_s:.3f} ops_per_s(all)={len(ops) / busy_s:.4f} "
          f"ops_per_refs(all)={len(ops) / (sum(r['refms'] for r in ops) / 1e3):.4f} "
          f"wrapped_entry_points={(end or {}).get('wrapped')}")

    if args.trace:
        layers = (end or {}).get("layers")
        correct = failed == 0 and layers is not None
        metrics = layers or {}
        print(f"  per-layer metrics: per op over the first {min(wl.trace_ops, attempted)} ops")
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    else:
        correct = failed == 0 and end is not None
        metrics = end_to_end(records, ops, wl.chunk, setups, end, attempted, failed)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
