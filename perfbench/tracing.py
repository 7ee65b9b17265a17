"""Per-layer tracing of woldkit, installed from the benchmark's side.

The tracer wraps the public entry points of every ``src/woldkit`` module
(and the dense numpy/scipy routines woldkit calls) in place, so the program
itself is unchanged.  Each call of a wrapped function is a span; spans nest
through an explicit stack, and a span's self time is its duration minus the
time covered by the spans it caused.  Spans are aggregated in memory per
layer name (calls, self time, and layer-specific counts) rather than kept
one by one, because the innermost layers (``Weight.evaluate``, ``FinVec``
arithmetic) run millions of times per run.

``woldkit.wold``, ``woldkit.classd`` and ``woldkit.cli`` import functions
from ``woldkit.bandop`` by value, so a function wrapper is installed in
every ``woldkit`` namespace that holds the original object.  Methods are
patched on their class, which every instance and operator dispatch sees.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path, layer name); an attribute path "Cls.meth" patches
# a method on its class, a bare name patches a module-level function
ENTRY_POINTS = (
    ("woldkit.bandop", "BandOp.compose", "bandop.compose"),
    ("woldkit.bandop", "BandOp.gram", "bandop.gram"),
    ("woldkit.bandop", "BandOp.adjoint", "bandop.adjoint"),
    ("woldkit.bandop", "BandOp.apply", "bandop.apply"),
    ("woldkit.bandop", "Weight.evaluate", "bandop.weight_eval"),
    ("woldkit.bandop", "solve_gram", "bandop.solve_gram"),
    ("woldkit.bandop", "left_inverse_apply", "bandop.left_inverse_apply"),
    ("woldkit.bandop", "lower_bound_estimate", "bandop.lower_bound_estimate"),
    ("scipy.linalg", "cho_factor", "linalg.factor"),
    ("scipy.linalg", "cho_solve", "linalg.other"),
    ("scipy.linalg", "null_space", "linalg.other"),
    ("numpy.linalg", "svd", "linalg.other"),
    ("numpy.linalg", "eigh", "linalg.other"),
    ("numpy.linalg", "eigvalsh", "linalg.other"),
    ("woldkit.seqspace", "FinVec.__add__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.__sub__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.__mul__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.__rmul__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.__truediv__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.__neg__", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.inner", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.norm_sq", "seqspace.arith"),
    ("woldkit.seqspace", "FinVec.norm", "seqspace.arith"),
    ("woldkit.wold", "shift_limit_project", "wold.shift_limit_project"),
    ("woldkit.wold", "defect_project", "wold.defect_project"),
    ("woldkit.wold", "decompose", "wold.decompose"),
    ("woldkit.classd", "classd_residual", "classd.classd_residual"),
    ("woldkit.classd", "isometry_residual", "classd.other"),
    ("woldkit.classd", "quasinormal_residual", "classd.other"),
    ("woldkit.classd", "double_commuting_residual", "classd.other"),
    ("woldkit.classd", "product_closure_check", "classd.other"),
    ("woldkit.classd", "default_probes", "classd.other"),
    ("woldkit.wold2d", "fourfold", "wold2d.fourfold"),
    ("woldkit.zoo", "weighted_shift", "zoo.build"),
    ("woldkit.zoo", "unilateral_shift", "zoo.build"),
    ("woldkit.zoo", "bilateral_shift", "zoo.build"),
    ("woldkit.zoo", "bergman_shift", "zoo.build"),
    ("woldkit.zoo", "dirichlet_shift", "zoo.build"),
    ("woldkit.zoo", "weighted_translation", "zoo.build"),
    ("woldkit.zoo", "quasinormal_block", "zoo.build"),
    ("woldkit.zoo", "tensor_pair", "zoo.build"),
    ("woldkit.zoo", "direct_sum", "zoo.build"),
    ("woldkit.zoo", "identity_on", "zoo.build"),
    ("woldkit.cli", "parse_spec", "cli.parse_spec"),
    ("woldkit.cli", "build_operator", "cli.build_operator"),
    ("woldkit.cli", "main", "cli.main"),
)

SPAN_MARK = "_perfbench_span"


class Tracer:
    """Aggregating span recorder; ``active`` pauses recording (for gates)."""

    def __init__(self):
        self.active = True
        self._stack: list[list[float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.ordinals_max = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[name] += 1
                self_s[name] += dt - frame[0]
            if after:
                after(state, args, result)
            return result

        setattr(span, SPAN_MARK, name)
        return span

    # -- layer-specific counts ------------------------------------------------
    def _hooks(self, name: str):
        c = self.counts

        def terms_out(_, args, result):
            c[name + ".terms_out"] += sum(len(w.terms) for _, w in result.bands)

        def weight_terms(_, args, result):
            c["bandop.weight_eval.terms_visited"] += len(args[0].terms)

        def entries_in(_, args, result):
            c["bandop.apply.entries_in"] += len(args[1])

        def factor(_, args, result):
            n = args[0].shape[0]
            # complex Cholesky: n^3/3 multiply-adds of 8 real flops each;
            # the factor touches the n x n complex128 matrix once
            c["linalg.factor.flops_computed"] += 8.0 * n ** 3 / 3.0
            c["linalg.factor.bytes_computed"] += 16.0 * n * n
            self.ordinals_max = max(self.ordinals_max, n)

        def factors_before(args):
            return self.calls["linalg.factor"]

        def dense_solve(factors0, args, result):
            made = self.calls["linalg.factor"] - factors0
            if made:
                c["bandop.solve_gram.dense_calls"] += 1
                c["bandop.solve_gram.dense_factors"] += made

        def iterations(_, args, result):
            c["wold.shift_limit_project.iterations"] += len(result[1])

        def solves_before(args):
            return self.calls["bandop.solve_gram"]

        def decompose(solves0, args, result):
            c["wold.decompose.solves"] += self.calls["bandop.solve_gram"] - solves0
            c["wold.decompose.n_used"] += result.n_used
            c["wold.decompose.j_used"] += result.j_used

        return {
            "bandop.compose": (None, terms_out),
            "bandop.gram": (None, terms_out),
            "bandop.weight_eval": (None, weight_terms),
            "bandop.apply": (None, entries_in),
            "linalg.factor": (None, factor),
            "bandop.solve_gram": (factors_before, dense_solve),
            "wold.shift_limit_project": (None, iterations),
            "wold.decompose": (solves_before, decompose),
        }.get(name, (None, None))

    # -- installation -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point, in every woldkit namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, _, _ in ENTRY_POINTS:
            importlib.import_module(modname)
        namespaces = _woldkit_namespaces()
        for modname, path, name in ENTRY_POINTS:
            owner, attr = _locate(modname, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, *self._hooks(name))
            homes = [owner]
            if not isinstance(owner, type) and modname.startswith("woldkit"):
                homes += [mod for mod in namespaces
                          if mod is not owner and vars(mod).get(attr) is original]
            for home in homes:
                self._patches.append((home, attr, original))
                setattr(home, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "ordinals_max": self.ordinals_max}


def _woldkit_namespaces() -> list:
    return [mod for key, mod in sorted(sys.modules.items())
            if key.split(".")[0] == "woldkit" and mod is not None]


def _locate(modname: str, path: str):
    """(owner, attribute) for an entry point: a module, or a class in it."""
    owner = sys.modules[modname]
    if "." in path:
        cls_name, path = path.split(".")
        owner = getattr(owner, cls_name)
    return owner, path


def wrapped_entry_points() -> int:
    """How many attributes of woldkit's namespaces and classes, and of the
    wrapped numpy/scipy modules, currently hold a span wrapper."""
    places = {id(mod): mod for mod in _woldkit_namespaces()}
    for modname, path, _ in ENTRY_POINTS:
        if modname in sys.modules:
            owner, _ = _locate(modname, path)
            places[id(owner)] = owner
    return sum(hasattr(value, SPAN_MARK)
               for place in places.values() for value in vars(place).values())


def layer_metrics(snap: dict, ops: int) -> dict:
    """Per-op layer metrics from a tracer snapshot taken after ``ops`` ops."""
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    ops = max(1, ops)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer, quantities in LAYER_QUANTITIES.items():
        for q in quantities:
            key = f"{layer}.{q}"
            if q == "calls":
                value = per_op(calls.get(layer, 0))
            elif q == "self_s":
                value = per_op(self_s.get(layer, 0.0))
            elif key == "bandop.solve_gram.factors_per_dense_solve":
                value = ratio(counts.get("bandop.solve_gram.dense_factors", 0.0),
                              counts.get("bandop.solve_gram.dense_calls", 0.0))
            elif key == "wold.decompose.solves_per_call":
                value = ratio(counts.get("wold.decompose.solves", 0.0),
                              calls.get("wold.decompose", 0))
            elif key in ("wold.decompose.n_used", "wold.decompose.j_used"):
                value = ratio(counts.get(key, 0.0), calls.get("wold.decompose", 0))
            elif key == "linalg.factor.ordinals_max":
                value = float(snap["ordinals_max"])
            else:
                value = per_op(counts.get(key, 0.0))
            out[key] = {"value": value, "unit": UNITS.get(key, UNITS.get(q, "1"))}
    return out


# layer -> quantities reported for it, in BENCHMARK.json order
LAYER_QUANTITIES = {
    "bandop.compose": ("calls", "self_s", "terms_out"),
    "bandop.gram": ("calls", "self_s", "terms_out"),
    "bandop.adjoint": ("calls", "self_s"),
    "bandop.weight_eval": ("calls", "self_s", "terms_visited"),
    "bandop.solve_gram": ("calls", "self_s", "dense_calls", "factors_per_dense_solve"),
    "bandop.left_inverse_apply": ("calls",),
    "bandop.apply": ("calls", "self_s", "entries_in"),
    "bandop.lower_bound_estimate": ("self_s",),
    "linalg.factor": ("calls", "self_s", "ordinals_max", "flops_computed", "bytes_computed"),
    "linalg.other": ("calls", "self_s"),
    "seqspace.arith": ("calls", "self_s"),
    "wold.shift_limit_project": ("calls", "self_s", "iterations"),
    "wold.defect_project": ("calls", "self_s"),
    "wold.decompose": ("calls", "self_s", "solves_per_call", "n_used", "j_used"),
    "classd.classd_residual": ("calls", "self_s"),
    "classd.other": ("self_s",),
    "wold2d.fourfold": ("calls", "self_s"),
    "zoo.build": ("self_s",),
    "cli.parse_spec": ("self_s",),
    "cli.build_operator": ("self_s",),
    "cli.main": ("self_s",),
    "cli": ("report_bytes",),
}

UNITS = {
    "calls": "calls/op",
    "self_s": "s/op",
    "terms_out": "terms/op",
    "bandop.weight_eval.terms_visited": "terms/op",
    "bandop.solve_gram.dense_calls": "calls/op",
    "bandop.solve_gram.factors_per_dense_solve": "factors/solve",
    "bandop.apply.entries_in": "entries/op",
    "linalg.factor.ordinals_max": "ordinals",
    "linalg.factor.flops_computed": "flop/op",
    "linalg.factor.bytes_computed": "B/op",
    "wold.shift_limit_project.iterations": "iters/op",
    "wold.decompose.solves_per_call": "solves/call",
    "wold.decompose.n_used": "iters/call",
    "wold.decompose.j_used": "terms/call",
    "cli.report_bytes": "B/op",
}
