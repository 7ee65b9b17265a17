"""Command-line front end: operator spec files in, JSON reports out.

Specs are JSON trees naming the constructors of :mod:`woldkit.zoo` plus the
combinators scale/adjoint/compose, so every fixture an analysis needs is a
small reproducible file.  Reports are deterministic JSON (fixed probe seed,
sorted keys): `check` runs the membership diagnostics, `decompose` the
decomposition of a given vector, `fourfold` the pair decomposition, and
`zoo list` enumerates the available constructors.

Exit codes: 0 when every gating verdict passes at the requested tolerances,
1 on spec or input errors, 2 on convergence failures, 3 when the run
completed but a gating verdict failed.  Diagnostics go to stderr and the
report to --out or stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cache, partial
from itertools import zip_longest
from typing import Callable

import numpy as np

from . import __version__
from .bandop import (
    BandOp,
    NoConvergence,
    Weight,
    bergman,
    constant,
    dirichlet,
    left_inverse_apply,
    lower_bound_estimate,
    table,
)
from .classd import (
    DEFAULT_PROBE_SEED,
    CheckReport,
    _worst_ratio,
    classd_residual,
    default_probes,
    double_commuting_residual,
    isometry_residual,
    product_closure_check,
    quasinormal_residual,
)
from .oracle import (
    RankDeficientSection,
    SeriesNotConverged,
    WindowTooLarge,
    dense_section,
    oracle_decompose,
    oracle_fourfold,
    oracle_left_inverse,
)
from .seqspace import FinVec
from .wold import (
    InputNotInHInfinity,
    NoStrongConvergence,
    decompose,
)
from .wold2d import PART_TAGS, fourfold
from .zoo import (
    PhiFamily,
    block_least_eigenvalue,
    direct_sum,
    grid_step,
    identity_on,
    quasinormal_block,
    tensor_pair,
    weighted_shift,
    weighted_translation,
)

SCHEMA_VERSION = 1
LOWER_BOUND_FLOOR = 1e-8
GATE_WINDOW = 16  # the lower-bound window of every gate, and check's default window


class SpecError(ValueError):
    """Spec parsing or validation failed; carries every error found."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True, eq=True)
class OpSpec:
    """Validated operator description; parameters are canonical values."""

    kind: str
    params: dict

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key, val in sorted(self.params.items()):
            out[key] = _jsonable(val)
        return out


def _jsonable(val):
    """A spec parameter or a result as JSON data: vectors as literals, other
    dataclasses (results) as dicts of their fields."""
    if isinstance(val, OpSpec):
        return val.to_dict()
    if isinstance(val, FinVec):
        return vector_to_literal(val)
    if dataclasses.is_dataclass(val):
        return {f.name: _jsonable(getattr(val, f.name)) for f in dataclasses.fields(val)}
    if isinstance(val, complex):
        return val.real if val.imag == 0 else [val.real, val.imag]
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, dict):
        return {k: _jsonable(v) for k, v in sorted(val.items())}
    return val


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def _as_complex(v, path, errors):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return complex(v)
    if (isinstance(v, list) and len(v) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in v)):
        return complex(v[0], v[1])
    errors.append(f"{path}: expected a number or [re, im] pair, got {v!r}")
    return None


def _as_positive_number(v, path, errors):
    if isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0:
        return float(v)
    errors.append(f"{path}: expected a positive number, got {v!r}")
    return None


def _as_number(v, path, errors):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    errors.append(f"{path}: expected a number")
    return None


def _as_step(v, path, errors):
    if isinstance(v, int) and not isinstance(v, bool) and v >= 1:
        return v
    errors.append(f"{path}: expected a positive integer, got {v!r}")
    return None


def _one_of(*choices):
    """A parser of a field that must equal one of ``choices`` in type and value."""
    def parse(v, path, errors):
        if any(type(v) is type(c) and v == c for c in choices):
            return v
        errors.append(f"{path}: expected {' or '.join(map(repr, choices))}, got {v!r}")
        return None
    return parse


def _as_values(v, path, errors):
    if not isinstance(v, list) or not v:
        errors.append(f"{path}: expected a nonempty list")
        return None
    return tuple(_as_complex(x, f"{path}[{i}]", errors) for i, x in enumerate(v))


def _as_samples(v, path, errors):
    if not isinstance(v, list) or not v or \
            any(not isinstance(s, (int, float)) or isinstance(s, bool) or s <= 0 for s in v):
        errors.append(f"{path}: expected a nonempty list of positive numbers")
        return None
    return tuple(float(s) for s in v)


def _parse_matrix(obj, path, errors):
    if not isinstance(obj, list) or not obj:
        errors.append(f"{path}: expected a nonempty list of rows")
        return None
    d = len(obj)
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != d:
            errors.append(f"{path}[{i}]: expected a row of length {d}")
            return None
        rows.append(tuple(_as_complex(v, f"{path}[{i}][{j}]", errors)
                          for j, v in enumerate(row)))
    if any(None in row for row in rows):  # an entry failed: no matrix to test
        return None
    try:
        block_least_eigenvalue(np.array(rows, dtype=complex))
    except ValueError as e:
        errors.append(f"{path}: {e}")
    return tuple(rows)


def _check_fields(obj, path, errors, tag, form):
    for key in form.required:
        if key not in obj:
            errors.append(f"{path}: missing required field '{key}'")
    for key in obj:
        if key != tag and key not in form.required and key not in form.optional:
            errors.append(f"{path}: unknown field '{key}'")


def _parse_form(registry, tag, obj, path, errors, what, unknown):
    """``(name, params)`` of a spec object whose ``tag`` field names an entry
    of ``registry``; otherwise None, with the error recorded.  Each present
    field is parsed as ``FIELDS`` says, in the order the entry lists them; an
    absent optional field takes its value from ``DEFAULTS``, if it has one."""
    if not isinstance(obj, dict):
        errors.append(f"{path}: expected {what}, got {obj!r}")
        return None
    name = obj.get(tag)
    if not isinstance(name, str) or name not in registry:
        errors.append(f"{path}.{tag}: {unknown} {name!r}")
        return None
    form = registry[name]
    _check_fields(obj, path, errors, tag, form)
    params = {key: DEFAULTS[key] for key in form.optional if key in DEFAULTS}
    for key in form.required + form.optional:
        if key in obj:
            params[key] = FIELDS[key](obj[key], f"{path}.{key}", errors)
    if form.validate is not None:
        reads, check = form.validate
        values = [params.get(key) for key in reads]
        if None not in values:  # each field it reads is present and parsed
            try:
                check(*values)
            except ValueError as e:
                errors.append(f"{path}: {e}")
    return name, params


def _parse_family(registry, tag, what, obj, path, errors):
    """A weight or envelope object as one dict: its family under ``tag``,
    then its parameters."""
    parsed = _parse_form(registry, tag, obj, path, errors, what,
                         f"expected one of {'/'.join(registry)}, got")
    return None if parsed is None else {tag: parsed[0], **parsed[1]}


def _parse_node(obj, path, errors):
    parsed = _parse_form(KINDS, "kind", obj, path, errors, "an object",
                         "unknown operator kind")
    return None if parsed is None else OpSpec(*parsed)


# ---------------------------------------------------------------------------
# the spec registry: every operator kind, weight family and envelope family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """One spec form: its summary, its fields besides the tag, a builder
    ``params -> value`` and an optional check across fields: the fields it
    reads and a function of their values that raises ValueError."""

    summary: str
    required: tuple
    optional: tuple
    build: Callable
    validate: tuple[tuple, Callable] | None = None


WEIGHT_FAMILIES = {  # the "family" of a weight object
    "constant": Form("the same value at every index", ("value",), (),
                     lambda w: constant(w["value"])),
    "bergman": Form("sqrt((k+1)/(k+2))", (), (), lambda w: bergman()),
    "dirichlet": Form("sqrt((k+2)/(k+1))", (), (), lambda w: dirichlet()),
    "table": Form("the listed values, then the default", ("values", "default"), (),
                  lambda w: table(w["values"], w["default"])),
}

PHI_FAMILIES = {  # the "kind" of a weighted translation's envelope object
    "exp": Form("phi(x) = e^(alpha x)", ("alpha",), (), lambda p: PhiFamily.exp(p["alpha"])),
    "power": Form("phi(x) = (1+x)^beta", ("beta",), (), lambda p: PhiFamily.power(p["beta"])),
    "table": Form("samples on a grid of spacing h, tail_ratio beyond them",
                  ("samples", "h", "tail_ratio"), (),
                  lambda p: PhiFamily.table(p["samples"], p["h"], p["tail_ratio"])),
}


_parse_weight = partial(_parse_family, WEIGHT_FAMILIES, "family", "a weight object")
_parse_phi = partial(_parse_family, PHI_FAMILIES, "kind", "an envelope object")

FIELDS = {  # every spec field: its parser
    "step": _as_step,
    "part": _one_of(1, 2),
    "phi": _parse_phi,
    "L": _parse_matrix,
    "values": _as_values,
    "samples": _as_samples,
    **dict.fromkeys(("lattice", "lattice1", "lattice2"), _one_of("nat", "int")),
    **dict.fromkeys(("weight", "w1", "w2"), _parse_weight),
    **dict.fromkeys(("a", "b", "child", "first", "second"), _parse_node),
    **dict.fromkeys(("t", "h", "tail_ratio"), _as_positive_number),
    **dict.fromkeys(("factor", "value", "default"), _as_complex),
    **dict.fromkeys(("alpha", "beta"), _as_number),
}

# the value of an absent optional field; one not listed (``part``) stays out of params
DEFAULTS = {"step": 1, **dict.fromkeys(("lattice", "lattice1", "lattice2"), "nat")}


def _weight(w: dict) -> Weight:
    return WEIGHT_FAMILIES[w["family"]].build(w)


def _single(spec: OpSpec, what: str) -> BandOp:
    built = build_operator(spec)
    if isinstance(built, tuple):
        raise SpecError([f"{what} needs a single operator, but the spec names a pair"])
    return built


def _b_tensor_pair(p):
    T1, T2 = tensor_pair(_weight(p["w1"]), _weight(p["w2"]), p["lattice1"], p["lattice2"])
    if "part" in p:
        return T1 if p["part"] == 1 else T2
    return (T1, T2)


def _b_pair(p):
    first, second = _single(p["first"], "pair"), _single(p["second"], "pair")
    if first.lattice != second.lattice:
        raise SpecError([f"pair: the operators live on different lattices, "
                         f"{first.lattice!r} and {second.lattice!r}"])
    return first, second


# Builders name zoo constructors and build_operator at call time, so a
# wrapper installed on this module's namespace sees every call.
KINDS = {
    "identity": Form(
        "identity operator on a rank-1 lattice ('nat' or 'int')",
        (), ("lattice",), lambda p: identity_on(p["lattice"])),
    "weighted_shift": Form(
        "e_k -> w(k) e_{k+step}; weight family " + "/".join(WEIGHT_FAMILIES),
        ("weight",), ("step", "lattice"),
        lambda p: weighted_shift(_weight(p["weight"]), p["step"], p["lattice"])),
    "bergman_shift": Form(
        "unilateral shift with weights sqrt((k+1)/(k+2))",
        (), (), lambda p: weighted_shift(bergman(), 1, "nat")),
    "dirichlet_shift": Form(
        "unilateral shift with weights sqrt((k+2)/(k+1))",
        (), (), lambda p: weighted_shift(dirichlet(), 1, "nat")),
    "weighted_translation": Form(
        f"grid translation by t with envelope-ratio weights (phi {'/'.join(PHI_FAMILIES)})",
        ("phi", "t", "h"), (),
        lambda p: weighted_translation(PHI_FAMILIES[p["phi"]["kind"]].build(p["phi"]),
                                       p["t"], p["h"]),
        (("t", "h"), grid_step)),
    "quasinormal_block": Form(
        "block shift (k_0, k_1, ...) -> (0, L k_0, L k_1, ...), L Hermitian PD",
        ("L",), (), lambda p: quasinormal_block(np.array(p["L"], dtype=complex))),
    "tensor_pair": Form(
        "double-commuting pair shifting the two axes of a product lattice",
        ("w1", "w2"), ("lattice1", "lattice2", "part"), _b_tensor_pair),
    "direct_sum": Form(
        "block operator acting summand-wise on a tagged union lattice",
        ("a", "b"), (),
        lambda p: direct_sum(_single(p["a"], "direct_sum"), _single(p["b"], "direct_sum"))),
    "scale": Form(
        "scalar multiple of a child operator",
        ("factor", "child"), (), lambda p: p["factor"] * _single(p["child"], "scale")),
    "adjoint": Form(
        "adjoint of a child operator",
        ("child",), (), lambda p: _single(p["child"], "adjoint").adjoint()),
    "compose": Form(
        "composition a after b of two child operators",
        ("a", "b"), (),
        lambda p: _single(p["a"], "compose").compose(_single(p["b"], "compose"))),
    "pair": Form(
        "explicit operator pair for the pair commands",
        ("first", "second"), (), _b_pair),
}


def _load_json(text: str, what: str):
    """Decode JSON in which every number is a finite double: NaN, Infinity
    and literals that overflow (1e400, a 400-digit integer) are refused."""
    def finite(literal, kind=float):
        try:
            value = kind(literal)
            if math.isfinite(value):
                return value
        except (ValueError, OverflowError):
            pass
        raise SpecError([f"{what}: {literal[:32]} is not a finite double-precision number"])
    try:
        return json.loads(text, parse_constant=finite, parse_float=finite,
                          parse_int=partial(finite, kind=int))
    except json.JSONDecodeError as e:
        raise SpecError([f"{what}: invalid JSON: {e}"]) from None


def parse_spec(text: str) -> OpSpec:
    """Parse and fully validate a JSON operator spec; collects all errors."""
    obj = _load_json(text, "$")
    errors: list[str] = []
    spec = _parse_node(obj, "$", errors)
    if errors:
        raise SpecError(errors)
    return spec


def build_operator(spec: OpSpec):
    """Turn a validated spec into a BandOp, or a pair for pair-shaped specs."""
    form = KINDS.get(spec.kind)
    if form is None:
        raise SpecError([f"unknown operator kind {spec.kind!r}"])
    try:
        return form.build(spec.params)
    except SpecError:
        raise
    except (ValueError, TypeError, ArithmeticError) as e:
        raise SpecError([f"building '{spec.kind}': {e}"]) from None


# ---------------------------------------------------------------------------
# vector literals
# ---------------------------------------------------------------------------

def parse_vector_literal(obj, rank: int | None = None) -> FinVec:
    """Vector from a list of records ``[coord..., re, im]``."""
    errors: list[str] = []
    if not isinstance(obj, list) or not obj:
        raise SpecError(["vector: expected a nonempty list of records"])
    entries = []
    r = rank
    for i, rec in enumerate(obj):
        if not isinstance(rec, list) or len(rec) < 3:
            errors.append(f"vector[{i}]: expected [coords..., re, im] with >= 3 entries")
            continue
        if r is None:
            r = len(rec) - 2
        if len(rec) - 2 != r:
            errors.append(f"vector[{i}]: rank {len(rec) - 2} disagrees with {r}")
            continue
        coords = rec[:-2]
        if any(not isinstance(c, int) or isinstance(c, bool) for c in coords):
            errors.append(f"vector[{i}]: coordinates must be integers")
            continue
        re_part, im_part = rec[-2], rec[-1]
        if any(not isinstance(c, (int, float)) or isinstance(c, bool)
               for c in (re_part, im_part)):
            errors.append(f"vector[{i}]: amplitude parts must be numbers")
            continue
        entries.append((tuple(coords), complex(re_part, im_part)))
    if errors:
        raise SpecError(errors)
    return FinVec(entries, rank=r)


def vector_to_literal(v: FinVec) -> list:
    return [[*ix, amp.real, amp.imag] for ix, amp in v.items()]


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _check_dict(report: CheckReport, informational: bool) -> dict:
    return {**_jsonable(report), "verdict": report.verdict, "informational": informational}


def _header(command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "tool": {"name": "woldkit", "version": __version__}, "command": command}


_INPUTS = ("command", "func", "spec", "vector", "out")  # parsed, but not params


def _base_report(spec: OpSpec, args, default_tol: float) -> dict:
    """The report so far: its header, the spec and the params the command
    runs with, which are every parsed flag but the inputs, and ``tol``:
    ``--tol`` if given, else ``default_tol``."""
    params = {key: val for key, val in vars(args).items() if key not in _INPUTS}
    params["tol"] = default_tol if args.tol is None else args.tol
    return {**_header(args.command), "spec": spec.to_dict(), "params": params}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish(report: dict, ok: bool, args) -> int:
    """Record the verdict, write the report and return the exit code: 0
    when every gating verdict passed, 3 when one failed."""
    report["verdict"] = "pass" if ok else "fail"
    _emit(report, args.out)
    return 0 if ok else 3


def _read_source(source: str) -> str:
    if source.lstrip().startswith(("{", "[")):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_vector(source: str, lattice) -> FinVec:
    v = parse_vector_literal(_load_json(_read_source(source), "vector"), rank=lattice.rank)
    outside = [ix for ix in v.support() if not lattice.contains(ix)]
    if outside:
        raise SpecError([f"vector: index {ix} lies outside {lattice!r}" for ix in outside])
    vn = v.norm()
    if not math.isfinite(vn) or (vn == 0 and not v.is_zero):
        # a pass rule `residual <= tol * norm` needs a finite, nonzero norm
        flows = "underflows" if vn == 0 else "overflows"
        raise SpecError([f"vector: its norm {flows} double precision"])
    return v


def _oracle_extent(vectors, depth: int, reach: int) -> int:
    spread = 0
    for v in vectors:
        for ix in v.support():
            spread = max(spread, max(abs(c) for c in ix))
    return spread + depth * max(1, reach) + 4


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_INT_FLAG_FLOORS = {"window": 1, "n_max": 1, "seed": 0}


def _check_flags(args) -> None:
    """Reject out-of-range numeric flags before a command does any work."""
    errors = []
    for name, low in _INT_FLAG_FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            errors.append(f"--{name.replace('_', '-')}: expected an integer >= {low}, got {value}")
    tol = getattr(args, "tol", None)
    if tol is not None and not 0 < tol < math.inf:
        errors.append(f"--tol: expected a finite positive number, got {tol}")
    if errors:
        raise SpecError(errors)


def _left_invertibility(T: BandOp, window: int) -> CheckReport:
    """Gate: the lower bound of T on the window stays above LOWER_BOUND_FLOOR."""
    lb = lower_bound_estimate(T, window=window)
    return CheckReport(
        name="left_invertibility",
        residual=max(0.0, LOWER_BOUND_FLOOR - lb),
        tolerance=0.0,
        probes_used=T.lattice.window_size(window),
        window=window,
        details={"lower_bound": lb, "floor": LOWER_BOUND_FLOOR},
    )


def _gate_pair(report: dict, pair) -> bool:
    """Gate both factors of a pair as decompose gates its operator, record
    the gates in factor order as ``left_invertibility``, and tell whether
    both passed."""
    gates = [_left_invertibility(T, GATE_WINDOW) for T in pair]
    report["left_invertibility"] = [_check_dict(g, informational=False) for g in gates]
    return all(g.passed for g in gates)


def _cmd_check(args) -> int:
    spec = parse_spec(_read_source(args.spec))
    built = build_operator(spec)
    pair = isinstance(built, tuple)
    report = _base_report(spec, args, 1e-9 if pair else 1e-10)
    tol = report["params"]["tol"]
    T = built[0] if pair else built
    probes = default_probes(T.lattice, seed=args.seed)

    gated = True
    if pair:
        gated = _gate_pair(report, built)
        checks = [  # (report, informational)
            (double_commuting_residual(*built, probes), False),
            (product_closure_check(*built, probes=probes, tolerance=tol), False)]
        if args.oracle:
            report["oracle"] = {"skipped": "no dense replica of the pair checks"}
    else:
        checks = [
            (_left_invertibility(T, args.window), False),
            (isometry_residual(T, window=args.window), True),
            (quasinormal_residual(T, probes), True),
            (classd_residual(T, probes=probes, tolerance=tol), False)]
        if args.oracle:
            report["oracle"] = _oracle_check(T, probes)

    report["checks"] = [_check_dict(c, info) for c, info in checks]
    return _finish(report, gated and all(c.passed for c, info in checks if not info), args)


def _oracle_check(T: BandOp, probes) -> dict:
    extent = _oracle_extent(probes, depth=2, reach=T.max_band_reach()) + 8
    try:
        D = dense_section(T, extent)
        worst = _worst_ratio(probes, lambda v: (left_inverse_apply(T, v),
                                                oracle_left_inverse(D, v)))
    except (WindowTooLarge, RankDeficientSection) as e:
        # an operator that is not left invertible has no left inverse to compare
        return {"skipped": str(e)}
    return {"window": extent, "compared": sum(not v.is_zero for v in probes),
            "max_rel_delta": worst}


def _vector_prelude(args, spec: OpSpec, lattice):
    """What decompose and fourfold share: the vector, the tolerance (default
    1e-10) and the report so far."""
    v = _read_vector(args.vector, lattice)
    report = _base_report(spec, args, 1e-10)
    report["vector"] = vector_to_literal(v)
    tol = report["params"]["tol"]
    return v, tol, report


def _oracle_vectors(v: FinVec, extent: int, engine, dense) -> dict:
    """The oracle block of decompose and fourfold: the largest distance
    between the engine's vectors and those ``dense()`` computes on the dense
    window, paired in order (a missing one counts as zero), or why the
    comparison was skipped."""
    try:
        replica = dense()
    except WindowTooLarge as e:
        return {"skipped": str(e)}
    zero = FinVec((), rank=v.rank)
    delta = max(a.distance(b) for a, b in zip_longest(engine, replica, fillvalue=zero))
    return {"window": extent, "max_abs_delta": delta,
            "max_rel_delta": delta / max(v.norm(), 1e-300)}


def _cmd_decompose(args) -> int:
    spec = parse_spec(_read_source(args.spec))
    T = _single(spec, "decompose")
    v, tol, report = _vector_prelude(args, spec, T.lattice)
    gate = _left_invertibility(T, GATE_WINDOW)
    report["left_invertibility"] = _check_dict(gate, informational=False)
    if not gate.passed:
        # without a left inverse there is no decomposition to compute
        report["decomposition"] = None
        return _finish(report, False, args)
    res = decompose(T, v, tol, n_max=args.n_max)
    report["decomposition"] = _jsonable(res)
    ok = (res.reconstruction_residual <= tol * max(v.norm(), 1e-300)
          and res.power_residual <= tol)

    if args.oracle:
        extent = _oracle_extent([v], res.n_used + res.j_used + 2, T.max_band_reach())

        def dense():
            o = oracle_decompose(dense_section(T, extent), v, n_max=args.n_max, tol=tol)
            return (o.limit_part, *o.components)
        report["oracle"] = _oracle_vectors(v, extent, (res.limit_part, *res.components), dense)

    return _finish(report, ok, args)


def _cmd_fourfold(args) -> int:
    spec = parse_spec(_read_source(args.spec))
    built = build_operator(spec)
    if not isinstance(built, tuple):
        raise SpecError(["fourfold needs a pair spec (kind 'pair' or 'tensor_pair')"])
    T1, T2 = built
    v, tol, report = _vector_prelude(args, spec, T1.lattice)
    if not _gate_pair(report, built):
        report["fourfold"] = None
        return _finish(report, False, args)
    res = fourfold(T1, T2, v, tol, n_max=args.n_max)
    report["fourfold"] = _jsonable(res)
    hn = max(v.norm(), 1e-300)
    ok = res.residual <= tol * hn and res.cross_terms <= tol * hn * hn

    if args.oracle:
        # each part nests two strong limits, so the dense window takes twice
        # the longest limit the engine ran
        extent = _oracle_extent([v], 2 * max(res.limit_iterations) + 2,
                                max(T1.max_band_reach(), T2.max_band_reach()))

        def dense():
            parts = oracle_fourfold(dense_section(T1, extent), dense_section(T2, extent), v,
                                    n_max=args.n_max, tol=tol)
            return [parts[tag] for tag in PART_TAGS]
        report["oracle"] = _oracle_vectors(v, extent, [res.parts[tag] for tag in PART_TAGS],
                                           dense)

    return _finish(report, ok, args)


def _cmd_zoo(args) -> int:
    if args.action != "list":
        raise SpecError([f"unknown zoo action {args.action!r}; try 'list'"])
    report = {**_header("zoo list"),
              "kinds": [{"kind": k, "summary": KINDS[k].summary} for k in sorted(KINDS)]}
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_FLAGS = {  # every flag of a command, as add_argument takes it
    "--window": dict(type=int, default=GATE_WINDOW,
                     help=f"window for basis-vector checks (default {GATE_WINDOW})"),
    "--seed": dict(type=int, default=DEFAULT_PROBE_SEED,
                   help=f"seed of the random check probes (default {DEFAULT_PROBE_SEED})"),
    "--vector": dict(required=True,
                     help="vector literal [[coords..., re, im], ...] or a file path"),
    "--n-max": dict(dest="n_max", type=int, default=64,
                    help="cap on projection iterations (default 64)"),
    "--tol": dict(type=float, default=None, help="requested tolerance (default: per-command)"),
    "--oracle": dict(action="store_true",
                     help="cross-check against the dense finite-section oracle"),
    "--out": dict(default=None, help="report file (default: stdout)"),
}
_RUN_FLAGS = ("--tol", "--oracle", "--out")

_COMMANDS = (  # name, summary, positional argument and its help, flags, handler
    ("check", "run the membership diagnostics on an operator spec", "spec",
     "spec file path, or inline JSON", ("--window", "--seed", *_RUN_FLAGS), _cmd_check),
    ("decompose", "decompose a vector under an operator spec", "spec",
     "spec file path, or inline JSON", ("--vector", "--n-max", *_RUN_FLAGS), _cmd_decompose),
    ("fourfold", "fourfold decomposition under a pair spec", "spec",
     "pair spec file path, or inline JSON", ("--vector", "--n-max", *_RUN_FLAGS), _cmd_fourfold),
    ("zoo", "inspect the operator constructors", "action",
     "'list' prints the available kinds", ("--out",), _cmd_zoo),
)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`SpecError`, so it ends in exit 1
    with one line like every input error; argparse itself prints the usage
    and exits 2, the code of a convergence failure."""

    def error(self, message):
        raise SpecError([message])


def make_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="woldkit",
        description="Left-invertibility diagnostics and Wold-type decompositions "
                    "for band operators on sequence lattices.",
        epilog="Exit codes: 0 all gating verdicts pass, 1 spec/input error, "
               "2 convergence failure, 3 a gating verdict failed.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, summary, arg, arg_help, flags, func in _COMMANDS:
        sp = sub.add_parser(name, help=summary)
        sp.add_argument(arg, help=arg_help)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return ap


_parser = cache(make_parser)  # one parser per process


def main(argv=None) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args = _parser().parse_args(argv)
            _check_flags(args)
            code = args.func(args)
        except SpecError as e:
            for msg in e.errors:
                print(f"spec error: {msg}", file=sys.stderr)
            return 1
        except (NoConvergence, NoStrongConvergence, SeriesNotConverged,
                InputNotInHInfinity) as e:
            print(f"convergence error: {e}", file=sys.stderr)
            return 2
        except OverflowError as e:
            print(f"overflow error: a value exceeds double precision: {e}", file=sys.stderr)
            return 2
        except (OSError, UnicodeDecodeError) as e:
            print(f"spec error: {e}", file=sys.stderr)
            return 1
        except RecursionError:  # each recursion follows a spec's, vector's or lattice's nesting
            print("spec error: the spec or vector nests too deeply", file=sys.stderr)
            return 1
    # an error exit keeps its one line; a report gets one line per distinct
    # library warning, without the Python source location
    for msg in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
