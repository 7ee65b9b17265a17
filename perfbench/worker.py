"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1, an address-space
cap and ``PYTHONPATH`` pointing at the checkout's ``src``.  It writes one
JSON record per line to its original standard output, which is kept for
this protocol alone (anything else written to stdout goes to stderr):

  {"setup_s": ...}                              after set-up
  {"ref_ms": ...}                               after each reference burst
  {"op": i, "ms": ..., "fail": null|reason}     after each op and its gate
  {"end": true, "peak_rss_mb": ..., ...}        at the end

With ``--role setup`` it stops after the first record.  A ``MemoryError`` or
an op running past its wall budget (``SIGALRM``) is a counted failure; the
loop goes on with the next op.

On a shared CPU the speed for the same work can drift by a third within
seconds (measured on a 2-vCPU VM).  So the loop also times a fixed
pure-Python reference workload in short bursts between ops (about every
100 ms of op time, never inside an op's timed span); ``run.py`` divides
each op's time by the reference time measured around it.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ADDRESS_SPACE_CAP = 3 * 2 ** 30


REF_UNITS = 4            # reference units per burst
REF_EVERY_MS = 100.0     # op time between bursts
MIN_OPS = 100            # so at least 10 ops lie beyond the 90th percentile


class _RefVec:
    """A small sparse vector, the reference workload's data type."""

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    def add(self, other):
        d = dict(self.d)
        for k, a in other.d.items():
            d[k] = d.get(k, 0j) + a
        return _RefVec({k: a for k, a in d.items() if a != 0})

    def scaled(self, c):
        return _RefVec({k: c * a for k, a in self.d.items()})

    def shifted(self):
        return _RefVec({(k[0] + 1,): a for k, a in sorted(self.d.items())})

    def norm(self):
        return sum(a.real * a.real + a.imag * a.imag for a in self.d.values()) ** 0.5


def reference_work(units: int) -> float:
    """Fixed pure-Python work in woldkit's style (tuple-keyed dicts of
    complex amplitudes, small methods, sorting); about 1 ms per unit on an
    idle 2.1 GHz core.  It shares no code with woldkit, so a change to the
    program cannot move it."""
    total = 0.0
    for _ in range(12 * units):
        v = _RefVec({(i,): complex(i, -i) for i in range(40)})
        w = _RefVec({(i + 1,): 0.5j * i for i in range(40)})
        for _ in range(3):
            v = v.add(w.scaled(0.25))
            w = w.shifted()
        total += v.norm()
    return total


def reference_burst() -> float:
    """Wall time of one reference unit, in ms, measured now."""
    t = time.perf_counter()
    reference_work(REF_UNITS)
    return (time.perf_counter() - t) * 1e3 / REF_UNITS


class OpTimeout(BaseException):
    """The op ran past its wall budget (a BaseException, so no handler in the
    program under test can swallow it)."""


def _alarm(signum, frame):
    raise OpTimeout()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), default="measure")
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def emit(record):
        proto.write(json.dumps(record) + "\n")

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    import woldkit

    src = os.path.join(os.path.dirname(HERE), "src")
    if os.path.dirname(os.path.abspath(woldkit.__file__)) != os.path.join(src, "woldkit"):
        print(f"woldkit imported from {woldkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    wl.setup()
    wl.warmup()
    emit({"setup_s": time.perf_counter() - T0})
    if args.role == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from tracing import layer_metrics, wrapped_entry_points

    signal.signal(signal.SIGALRM, _alarm)
    layers = None
    ops = 0
    min_ops = MIN_OPS if args.max_ops is None else 0
    since_ref = 0.0
    emit({"ref_ms": reference_burst()})
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.max_ops is not None and ops >= args.max_ops:
            break
        enough = layers is not None if tracer else ops >= min_ops
        if elapsed >= args.seconds and enough:
            break
        desc = wl.describe(args.seed, ops)
        if tracer:
            tracer.active = False
        fn, ctx = wl.prepare(desc)
        if tracer:
            tracer.active = True
        fail = None
        signal.setitimer(signal.ITIMER_REAL, wl.op_budget_s)
        t = time.perf_counter()
        try:
            result = fn()
        except OpTimeout:
            fail = f"over the {wl.op_budget_s:g} s op budget"
        except MemoryError:
            fail = "memory cap"
        except Exception as e:  # any raise from the program is a failed op
            fail = f"{type(e).__name__}: {e}"
        finally:
            dt = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer:
            tracer.active = False
            tracer.counts["cli.report_bytes"] += wl.report_bytes(ctx)
        if fail is None:
            try:
                fail = wl.gate(desc, ctx, result)
            except Exception as e:
                fail = f"gate raised {type(e).__name__}: {e}"
        ops += 1
        if tracer:
            if ops == min(wl.trace_ops, args.max_ops or wl.trace_ops):
                layers = layer_metrics(tracer.snapshot(), ops)
            tracer.active = True
        emit({"op": ops - 1, "ms": dt * 1e3, "fail": fail})
        since_ref += dt * 1e3
        if since_ref >= REF_EVERY_MS:
            emit({"ref_ms": reference_burst()})
            since_ref = 0.0

    if since_ref:
        emit({"ref_ms": reference_burst()})
    wrapped = wrapped_entry_points()
    if tracer:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"end": True, "peak_rss_mb": peak_kb / 1024.0, "layers": layers,
          "wrapped": wrapped, "versions": _versions()})
    return 0


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())
