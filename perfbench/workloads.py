"""The benchmark's three workloads: seeded inputs, timed ops and gates.

Every op is described by a plain-data descriptor made by ``describe(seed,
i)`` from the workload seed and the op's position in the stream alone, so
one seed always regenerates the same inputs and nothing here needs woldkit.
The op kinds follow a fixed cycle (stratified, so every run sees the same
mix); the seed draws the operator entries, vector supports and amplitudes,
and probe seeds.  ``prepare`` turns a descriptor into a zero-argument
callable (the timed span) plus the data its gate needs; ``gate`` checks the
result outside the timed span and returns a failure reason or ``None``.

All ops run at woldkit's default tolerances: 1e-12 for Gram solves and
1e-10 for reports, which is also the bound the gates hold results to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

REPORT_TOL = 1e-10
TERMINATED_FLAG = "series terminated exactly: left-inverse iterate vanished"


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _amp(rng: random.Random) -> list:
    return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def _entries(rng: random.Random, pool: list, k: int) -> list:
    """``k`` distinct indices from ``pool`` as vector records [*ix, re, im]."""
    return [[*ix, *_amp(rng)] for ix in sorted(rng.sample(pool, k))]


def _finvec(records, rank: int):
    from woldkit.seqspace import FinVec
    return FinVec({tuple(r[:-2]): complex(r[-2], r[-1]) for r in records}, rank=rank)


def _tag0_part(h):
    """The left (tag 0) summand of a direct-sum vector."""
    from woldkit.seqspace import FinVec
    return FinVec({ix: a for ix, a in h.items() if ix[0] == 0}, rank=h.rank)


def _decompose_gate(res, h, expected_limit) -> str | None:
    hn = h.norm()
    if not res.reconstruction_residual <= REPORT_TOL * hn:
        return f"reconstruction residual {res.reconstruction_residual:.3e}"
    if not res.component_cross_max <= REPORT_TOL:
        return f"component cross term {res.component_cross_max:.3e}"
    miss = (res.limit_part - expected_limit).norm()
    if not miss <= REPORT_TOL * hn:
        return f"limit part off its known value by {miss:.3e}"
    extra = [f for f in res.flags if f != TERMINATED_FLAG]
    if extra:
        return f"flags: {extra}"
    return None


class Workload:
    name: str
    why: str
    cycle: tuple          # op kinds, in stream order
    chunk: int            # ops per throughput sample
    trace_ops: int        # ops the per-layer metrics are taken over
    warmup_op: int = 0    # stream position of the warm-up op (seed 0), a light one
    op_budget_s: float = 60.0

    def describe(self, seed: int, i: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """Build what every op reuses (after woldkit is importable)."""

    def warmup(self) -> None:
        """One untimed op on fixed inputs, so lazy loading is not timed."""
        fn, _ = self.prepare(self.describe(0, self.warmup_op))
        fn()

    def prepare(self, desc: dict):
        raise NotImplementedError

    def gate(self, desc: dict, ctx, result) -> str | None:
        raise NotImplementedError

    def report_bytes(self, ctx) -> int:
        """Bytes of report text an op produced (only the CLI writes any)."""
        return 0


# ---------------------------------------------------------------------------
# shift-series: decompose under reused single-band operators
# ---------------------------------------------------------------------------

_SHIFT_OPERATORS = ("bergman", "dirichlet", "translation_power", "translation_exp",
                    "unilateral", "double_bilateral", "mixed_sum")
_SHIFT_TOPS = (8, 16, 24, 32, 40)


class ShiftSeries(Workload):
    name = "shift-series"
    why = ("decompose under reused single-band shifts: diagonal Gram, so the "
           "limit/series loops, apply and re-derived adjoint/gram dominate")
    # decompose cost grows with the largest index, so every (operator, top
    # index) pair has one slot per cycle; 7 and 5 are coprime, so slot i
    # takes operator i % 7 and top i % 5 and the pairs interleave
    cycle = tuple((_SHIFT_OPERATORS[i % 7], _SHIFT_TOPS[i % 5]) for i in range(35))
    chunk = 35
    trace_ops = 70

    def describe(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        op, top = self.cycle[i % len(self.cycle)]
        bilateral = op == "double_bilateral" or (op == "mixed_sum" and rng.random() < 0.5)
        sign = rng.choice((-1, 1)) if bilateral else 1
        lead = (sign * top,)
        below = [(k,) for k in range(-top + 1 if bilateral else 0, top)]
        if op == "mixed_sum":
            tag = 0 if bilateral else 1
            lead = (tag,) + lead
            below = [(tag,) + ix for ix in below]
        vector = _entries(rng, below, rng.randint(0, 5))
        vector.append([*lead, *_amp(rng)])
        return {"op": op, "vector": sorted(vector)}

    def setup(self) -> None:
        import woldkit as wk
        self.ops = {
            "bergman": wk.bergman_shift(),
            "dirichlet": wk.dirichlet_shift(),
            "translation_power": wk.weighted_translation(wk.PhiFamily.power(2.0), 2.0, 1.0),
            "translation_exp": wk.weighted_translation(wk.PhiFamily.exp(1.0), 1.0, 1.0),
            "unilateral": wk.unilateral_shift(),
            "double_bilateral": wk.weighted_shift(wk.constant(2.0), 1, "int"),
            "mixed_sum": wk.direct_sum(wk.bilateral_shift(), wk.unilateral_shift()),
        }
        self.wk = wk

    def prepare(self, desc):
        T = self.ops[desc["op"]]
        h = _finvec(desc["vector"], T.rank)
        return (lambda: self.wk.decompose(T, h)), h

    def gate(self, desc, h, res):
        # the invertible part is known in closed form: everything on a
        # bilateral ('int') axis, nothing on a unilateral ('nat') one
        op = desc["op"]
        if op == "double_bilateral":
            expected = h
        elif op == "mixed_sum":
            expected = _tag0_part(h)
        else:
            expected = h * 0
        return _decompose_gate(res, h, expected)


# ---------------------------------------------------------------------------
# block-diagnostics: fresh full Hermitian quasinormal blocks
# ---------------------------------------------------------------------------

class BlockDiagnostics(Workload):
    name = "block-diagnostics"
    why = ("fresh full Hermitian quasinormal blocks (d=2,3): weight-term growth "
           "of gram(Q^n), term-by-term section assembly and dense Gram solves")
    # (d, kind, highest vector position for decompose).  Positions are fixed
    # per slot because decompose cost grows steeply with them (d=3 at
    # position 4 takes seconds and is left out).  Sorted by cost, the slots
    # are six light ones, three (2, classd), three more and three (3, classd),
    # so the median and the 90th percentile of op latency each fall in the
    # middle of one kind's costs, not on the edge between two kinds.
    cycle = ((3, "classd", None), (2, "decompose", 1), (2, "classd", None),
             (3, "decompose", 3), (2, "residuals", None), (2, "decompose", 2),
             (3, "classd", None), (2, "classd", None), (3, "decompose", 1),
             (3, "residuals", None), (2, "decompose", 4), (3, "classd", None),
             (2, "classd", None), (2, "decompose", 3), (2, "residuals", None))
    chunk = 15
    trace_ops = 15
    warmup_op = 1
    PROBE_SEED = 7

    def describe(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        d, kind, top = self.cycle[i % len(self.cycle)]
        # Hermitian, every off-diagonal entry nonzero, and by Gershgorin
        # positive definite with smallest eigenvalue > 1 (expansive)
        L = [[None] * d for _ in range(d)]
        for a in range(d):
            L[a][a] = [rng.uniform(2.2, 3.2), 0.0]
            for b in range(a + 1, d):
                r, phi = rng.uniform(0.1, 0.5), rng.uniform(0.0, 2 * math.pi)
                L[a][b] = [r * math.cos(phi), r * math.sin(phi)]
                L[b][a] = [r * math.cos(phi), -r * math.sin(phi)]
        desc = {"kind": kind, "d": d, "L": L}
        if kind == "decompose":
            # one entry at the slot's top position, up to two more below it
            below = [(p, c) for p in range(top) for c in range(d)]
            vector = _entries(rng, below, rng.randint(0, min(2, len(below))))
            vector.append([top, rng.randrange(d), *_amp(rng)])
            desc["vector"] = vector
        return desc

    def setup(self) -> None:
        import numpy as np
        import woldkit as wk
        self.np, self.wk = np, wk

    def prepare(self, desc):
        np, wk = self.np, self.wk
        L = np.array([[complex(*z) for z in row] for row in desc["L"]])
        kind = desc["kind"]

        def probes(T):
            return wk.default_probes(T.lattice, n_basis=6, n_random=2, max_support=4,
                                     seed=self.PROBE_SEED, extent=4)

        if kind == "classd":
            def op():
                T = wk.quasinormal_block(L)
                return wk.classd_residual(T, n_max=3, probes=probes(T))
            return op, L
        if kind == "decompose":
            h = _finvec(desc["vector"], 2)
            return (lambda: wk.decompose(wk.quasinormal_block(L), h)), (L, h)

        def op():
            T = wk.quasinormal_block(L)
            return (wk.isometry_residual(T), wk.quasinormal_residual(T, probes(T)),
                    wk.lower_bound_estimate(T, 16))
        return op, L

    def gate(self, desc, ctx, result):
        np = self.np
        kind = desc["kind"]
        if kind == "classd":
            if not (math.isfinite(result.residual) and result.passed):
                return f"classd residual {result.residual:.3e} (power compatibility expected)"
            return None
        if kind == "decompose":
            _, h = ctx
            # the block shift moves every position up by one: no invertible part
            return _decompose_gate(result, h, h * 0)
        iso, quasi, lb = result
        L = ctx
        # T*T acts as L^2 on every position block, and |T h| >= lambda_min(L)|h|
        # with equality on a single block
        expected_iso = float(np.linalg.norm(L @ L - np.eye(len(L)), axis=0).max())
        lam_min = float(np.linalg.eigvalsh(L).min())
        if not (math.isfinite(iso.residual)
                and abs(iso.residual - expected_iso) <= 1e-9 * max(1.0, expected_iso)
                and not iso.passed):
            return f"isometry residual {iso.residual!r}, expected {expected_iso!r}"
        if not (math.isfinite(quasi.residual) and quasi.passed):
            return f"quasinormal residual {quasi.residual:.3e}"
        if not abs(lb - lam_min) <= 1e-8 * lam_min:
            return f"lower bound {lb!r}, expected lambda_min(L) = {lam_min!r}"
        return None


# ---------------------------------------------------------------------------
# cli-zoo: the woldkit command over every test fixture, in process
# ---------------------------------------------------------------------------

def _w(family, value=None):
    return {"family": family} if value is None else {"family": family, "value": value}


def _pair(w1, w2, lattice2="nat", part=None):
    spec = {"kind": "tensor_pair", "w1": w1, "w2": w2}
    if lattice2 != "nat":
        spec["lattice2"] = lattice2
    if part is not None:
        spec["part"] = part
    return spec


_ONE = _w("constant", 1.0)
_NAT = [(k,) for k in range(13)]
_INT = [(k,) for k in range(-12, 13)]
_GRID = [(a, b) for a in range(7) for b in range(7)]

# the fixtures of tests/conftest.py as (spec, vector index pool, axes kinds);
# the axes kinds fix the known invertible part used by the gates
FIXTURES = {
    "unilateral_shift": ({"kind": "weighted_shift", "weight": _ONE}, _NAT, "nat"),
    "bilateral_shift": ({"kind": "weighted_shift", "weight": _ONE, "lattice": "int"},
                        _INT, "int"),
    "double_bilateral": ({"kind": "weighted_shift", "weight": _w("constant", 2.0),
                          "lattice": "int"}, _INT, "int"),
    "bergman_shift": ({"kind": "bergman_shift"}, _NAT, "nat"),
    "dirichlet_shift": ({"kind": "dirichlet_shift"}, _NAT, "nat"),
    "translation_exp": ({"kind": "weighted_translation", "phi": {"kind": "exp", "alpha": 1.0},
                         "t": 1.0, "h": 1.0}, _NAT, "nat"),
    "translation_power": ({"kind": "weighted_translation",
                           "phi": {"kind": "power", "beta": 2.0}, "t": 2.0, "h": 1.0},
                          _NAT, "nat"),
    "quasinormal_block": ({"kind": "quasinormal_block", "L": [[2.0, 0.0], [0.0, 3.0]]},
                          [(p, c) for p in range(7) for c in range(2)], "nat"),
    "tensor_bergman_factor": (_pair(_w("bergman"), _w("dirichlet"), part=1), _GRID, "nat"),
    "tensor_product": ({"kind": "compose", "a": _pair(_ONE, _ONE, part=1),
                        "b": _pair(_ONE, _ONE, part=2)}, _GRID, "nat"),
    "mixed_sum": ({"kind": "direct_sum",
                   "a": {"kind": "weighted_shift", "weight": _ONE, "lattice": "int"},
                   "b": {"kind": "weighted_shift", "weight": _ONE}},
                  [(0, k) for k in range(-12, 13)] + [(1, k) for k in range(13)], "mixed"),
}

# fourfold pairs: (spec, vector index pool, part that holds all of h)
PAIRS = {
    "tensor_constant": (_pair(_ONE, _ONE), _GRID, "s_s"),
    "tensor_bergman_dirichlet": (_pair(_w("bergman"), _w("dirichlet")), _GRID, "s_s"),
    "tensor_int_axis": (_pair(_w("bergman"), _ONE, lattice2="int"),
                        [(a, b) for a in range(7) for b in range(-6, 7)], "s_inf"),
}


def _cli_cycle() -> tuple:
    # decompose and fourfold cost grows with the vector's reach, so each
    # fixture gets one vector reaching the edge of its pool and one reaching
    # half as far
    cycle = [("check", f, None) for f in FIXTURES]
    cycle += [("decompose", f, reach) for reach in ("far", "near") for f in FIXTURES]
    cycle += [("fourfold", p, reach) for reach in ("far", "near") for p in PAIRS]
    return tuple(cycle)


def _reaching(rng: random.Random, pool: list, reach: str) -> list:
    """Vector records: one entry at the slot's reach, up to three inside it."""
    size = [sum(abs(c) for c in ix) for ix in pool]
    target = max(size) if reach == "far" else max(size) // 2
    lead = rng.choice([ix for ix, n in zip(pool, size) if n == target])
    inside = [ix for ix, n in zip(pool, size) if n < target]
    vector = _entries(rng, inside, rng.randint(0, min(3, len(inside))))
    return sorted(vector + [[*lead, *_amp(rng)]])


class CliZoo(Workload):
    name = "cli-zoo"
    why = ("in-process woldkit check/decompose/fourfold over JSON specs of every "
           "test fixture: spec parse/build/report layers, fresh operator per op")
    cycle = _cli_cycle()
    chunk = len(cycle)
    trace_ops = len(cycle)
    warmup_op = len(FIXTURES)  # decompose of the unilateral shift

    def describe(self, seed: int, i: int) -> dict:
        rng = _rng(self.name, seed, i)
        command, name, reach = self.cycle[i % len(self.cycle)]
        if command == "check":
            return {"command": command, "fixture": name,
                    "argv": ["check", json.dumps(FIXTURES[name][0]),
                             "--seed", str(rng.randrange(2 ** 31))]}
        spec, pool, _ = FIXTURES[name] if command == "decompose" else PAIRS[name]
        vector = _reaching(rng, pool, reach)
        return {"command": command, "fixture": name, "vector": vector,
                "argv": [command, json.dumps(spec), "--vector", json.dumps(vector)]}

    def setup(self) -> None:
        from woldkit import cli
        self.cli = cli

    def prepare(self, desc):
        out, err = io.StringIO(), io.StringIO()

        def op():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.cli.main(desc["argv"])
        return op, (out, err)

    def report_bytes(self, ctx) -> int:
        return len(ctx[0].getvalue().encode())

    def gate(self, desc, ctx, code):
        out, err = ctx
        text = out.getvalue()
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()[:200]}"
        report = json.loads(text)
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')!r} with exit code 0"
        command = desc["command"]
        if command == "check":
            bad = [c["name"] for c in report["checks"] if not math.isfinite(c["residual"])]
            return f"non-finite residuals: {bad}" if bad else None
        rank = len(desc["vector"][0]) - 2
        h = _finvec(desc["vector"], rank)
        hn = h.norm()
        tol = report["params"]["tol"]
        if command == "decompose":
            dec = report["decomposition"]
            if not dec["reconstruction_residual"] <= tol * hn:
                return f"reconstruction residual {dec['reconstruction_residual']:.3e}"
            if not dec["component_cross_max"] <= REPORT_TOL:
                return f"component cross term {dec['component_cross_max']:.3e}"
            axes = FIXTURES[desc["fixture"]][2]
            expected = {"nat": h * 0, "int": h, "mixed": _tag0_part(h)}[axes]
            miss = (_finvec(dec["limit_part"], rank) - expected).norm()
            return None if miss <= tol * hn else f"limit part off by {miss:.3e}"
        four = report["fourfold"]
        # the CLI's own pass rule, re-evaluated from the report
        if not (four["residual"] <= tol * hn and four["cross_terms"] <= tol * hn * hn):
            return f"fourfold residual {four['residual']:.3e}, cross {four['cross_terms']:.3e}"
        whole = PAIRS[desc["fixture"]][2]
        for tag, part in four["parts"].items():
            v = _finvec(part, rank)
            target = h if tag == whole else h * 0
            if not (v - target).norm() <= tol * hn:
                return f"fourfold part {tag} is not {'h' if tag == whole else '0'}"
        return None


WORKLOADS = {w.name: w for w in (ShiftSeries(), BlockDiagnostics(), CliZoo())}
