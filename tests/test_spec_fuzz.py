"""Spec fuzzing generated from the CLI's registry.

Valid specs are built by walking ``KINDS``, ``WEIGHT_FAMILIES`` and
``PHI_FAMILIES`` and their field tuples, up to three levels of nesting, and
then mutated: a field dropped, an unknown field added, a value of the wrong
type, a non-finite or extreme number, a pair where one operator belongs, or
a lattice swapped.  Whatever comes out, parsing and building may only raise
``SpecError``, and ``woldkit check`` must end in a documented exit code with
a message instead of a traceback.  Pair specs, some with a factor scaled by
0, go through ``woldkit fourfold`` with seeded vectors the same way.
"""

import contextlib
import copy
import io
import json
import math
import random

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from woldkit.cli import (
    FIELDS,
    KINDS,
    PHI_FAMILIES,
    WEIGHT_FAMILIES,
    SpecError,
    build_operator,
    main,
    parse_spec,
)

_NUMBER = st.floats(-3.0, 3.0, allow_nan=False).map(lambda x: round(x, 3))
_COMPLEX = st.one_of(_NUMBER, st.lists(_NUMBER, min_size=2, max_size=2))
_POSITIVE = st.sampled_from([0.5, 1.0, 1.5, 2.0])
_LATTICE = st.sampled_from(["nat", "int"])
_MATRIX = st.sampled_from([[[2.0]], [[2.0, 0.0], [0.0, 3.0]], [[2.0, 0.5], [0.5, 3.0]],
                           [[1.5, [0.0, 0.25]], [[0.0, -0.25], 2.0]]])
_CHILD_FIELDS = ("a", "b", "child", "first", "second")


def _value(key: str, depth: int):
    """Strategy for a valid value of the spec field ``key``."""
    if key in _CHILD_FIELDS:
        return nodes(depth - 1, single=key != "first" and key != "second")
    return {
        "lattice": _LATTICE, "lattice1": _LATTICE, "lattice2": _LATTICE,
        "step": st.integers(1, 3),
        "part": st.sampled_from([1, 2]),
        "weight": families(WEIGHT_FAMILIES, "family"),
        "w1": families(WEIGHT_FAMILIES, "family"),
        "w2": families(WEIGHT_FAMILIES, "family"),
        "phi": families(PHI_FAMILIES, "kind"),
        "t": st.sampled_from([1.0, 2.0]),
        "h": st.sampled_from([0.5, 1.0]),
        "L": _MATRIX,
        "factor": _COMPLEX, "value": _COMPLEX, "default": _COMPLEX,
        "values": st.lists(_COMPLEX, min_size=1, max_size=4),
        "alpha": _NUMBER, "beta": _NUMBER,
        "samples": st.lists(_POSITIVE, min_size=1, max_size=5),
        "tail_ratio": _POSITIVE,
    }[key]


@st.composite
def _fill(draw, registry, tag, name, depth):
    form = registry[name]
    obj = {tag: name}
    for key in form.required:
        obj[key] = draw(_value(key, depth))
    for key in form.optional:
        if draw(st.booleans()):
            obj[key] = draw(_value(key, depth))
    return obj


def families(registry, tag):
    return st.sampled_from(list(registry)).flatmap(lambda name: _fill(registry, tag, name, 0))


def nodes(depth: int, single: bool = False):
    """Valid operator nodes nested at most ``depth`` levels deep; a single
    slot gets no pair (a tensor_pair there always names its part)."""
    names = [k for k, form in KINDS.items()
             if (depth > 0 or not set(form.required) & set(_CHILD_FIELDS))
             and not (single and k == "pair")]
    node = st.sampled_from(names).flatmap(lambda name: _fill(KINDS, "kind", name, depth))
    if single:
        node = node.map(lambda obj: {**obj, "part": obj.get("part", 1)}
                        if obj["kind"] == "tensor_pair" else obj)
    return node


def _objects(obj):
    """Every JSON object of a spec tree: operator, weight and envelope nodes."""
    yield obj
    for value in obj.values():
        if isinstance(value, dict):
            yield from _objects(value)


_WRONG_TYPES = [None, True, "x", [], {}, [1, 2, 3], 7, -1]
_EXTREMES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0]
_PAIR = {"kind": "pair", "first": {"kind": "bergman_shift"}, "second": {"kind": "identity"}}
_RANK2 = {"kind": "tensor_pair", "w1": {"family": "bergman"}, "w2": {"family": "dirichlet"},
          "part": 2}


@st.composite
def _mutated(draw, spec):
    spec = copy.deepcopy(spec)
    target = draw(st.sampled_from(list(_objects(spec))))
    keys = sorted(target)
    key = draw(st.sampled_from(keys))
    mutation = draw(st.sampled_from(
        ["none", "drop", "unknown", "wrong-type", "extreme", "pair-in-slot", "lattice"]))
    if mutation == "drop":
        del target[key]
    elif mutation == "unknown":
        target["bogus"] = draw(st.sampled_from(_WRONG_TYPES))
    elif mutation == "wrong-type":
        target[key] = draw(st.sampled_from(_WRONG_TYPES))
    elif mutation == "extreme":
        value = target[key]
        if isinstance(value, list) and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(st.sampled_from(_EXTREMES))
        else:
            target[key] = draw(st.sampled_from(_EXTREMES))
    elif mutation == "pair-in-slot":
        target[key] = copy.deepcopy(_PAIR)
    elif mutation == "lattice":
        # swap a lattice, or compose the node with a rank-2 operator
        if key.startswith("lattice"):
            target[key] = "int" if target[key] == "nat" else "nat"
        else:
            spec = {"kind": "compose", "a": spec, "b": copy.deepcopy(_RANK2)}
    return spec


def specs(depth: int):
    return nodes(depth).flatmap(_mutated)


def _spec_errors(text: str):
    """The errors parse_spec and build_operator report, or None if none."""
    try:
        build_operator(parse_spec(text))
    except SpecError as e:
        return e.errors
    return None


def test_every_registry_field_has_a_strategy():
    registries = (KINDS, WEIGHT_FAMILIES, PHI_FAMILIES)
    keys = {key for reg in registries for form in reg.values()
            for key in form.required + form.optional}
    assert keys == set(FIELDS)
    for key in keys:
        _value(key, 1)


@seed(20170420)
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(specs(depth=3))
def test_parse_and_build_raise_only_spec_errors(spec):
    errors = _spec_errors(json.dumps(spec))
    assert errors is None or (errors and all("\n" not in e for e in errors))


@seed(20170421)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(specs(depth=1))
def test_check_ends_in_an_exit_code_never_a_traceback(spec):
    text = json.dumps(spec)
    errors = _spec_errors(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", text, "--window", "2"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert lines == [f"spec error: {e}" for e in errors]
    elif code == 2:
        assert len(lines) == 1
    else:
        assert errors is None
        report = json.loads(out.getvalue())
        assert report["verdict"] == ("pass" if code == 0 else "fail")


_AMPLITUDES = [1.0, -0.5, 0.25, 2.0, 1e-300, 1e300]


@st.composite
def pair_specs(draw):
    """Pair specs: a tensor_pair, a ``pair`` of two single nodes, or a
    ``pair`` of a node and that node scaled by 0 (in either order), each
    mutated as above; also whether the spec holds such an unmutated zero
    factor."""
    shape = draw(st.sampled_from(["tensor", "any-two", "zero-factor"]))
    if shape == "tensor":
        spec = draw(nodes(0).filter(lambda obj: obj["kind"] == "tensor_pair")
                    .map(lambda obj: {k: v for k, v in obj.items() if k != "part"}))
    else:
        first = draw(nodes(1, single=True))
        second = draw(nodes(1, single=True)) if shape == "any-two" else \
            {"kind": "scale", "factor": 0, "child": copy.deepcopy(first)}
        if draw(st.booleans()):
            first, second = second, first
        spec = {"kind": "pair", "first": first, "second": second}
    if draw(st.integers(0, 3)) == 0:
        return draw(_mutated(spec)), False
    return spec, shape == "zero-factor"


def _seeded_vector(spec: dict, vseed: int) -> list:
    """Up to three records on the first factor's lattice, chosen by
    ``vseed``; a record at the origin when the spec does not build."""
    rng = random.Random(vseed)
    try:
        built = build_operator(parse_spec(json.dumps(spec)))
    except SpecError:
        return [[0, 1.0, 0.0]]
    lattice = (built[0] if isinstance(built, tuple) else built).lattice
    pool = lattice.window(2)
    picks = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    return [[*ix, rng.choice(_AMPLITUDES), rng.choice(_AMPLITUDES)] for ix in picks]


@seed(20170422)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pair_specs(), st.integers(0, 2 ** 16))
def test_fourfold_ends_in_an_exit_code_never_a_traceback(drawn, vseed):
    spec, zero_factor = drawn
    text = json.dumps(spec)
    errors = _spec_errors(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fourfold", text, "--vector", json.dumps(_seeded_vector(spec, vseed)),
                     "--n-max", "8"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        if errors:
            assert lines == [f"spec error: {e}" for e in errors]
        else:  # the vector's or a single operator's one line
            assert len(lines) == 1 and lines[0].startswith("spec error: ")
    elif code == 2:
        assert len(lines) == 1
    else:
        assert errors is None
        assert all(line.startswith("warning: ") for line in lines)
        report = json.loads(out.getvalue())
        assert report["verdict"] == ("pass" if code == 0 else "fail")
        gated_out = any(g["verdict"] == "fail" for g in report["left_invertibility"])
        assert (report["fourfold"] is None) == gated_out
        assert code == 3 or not gated_out
    if zero_factor and errors is None:  # gated out, unless the vector is refused first
        assert code == 3 or lines == ["spec error: vector: its norm overflows double precision"]


def test_zoo_list_prints_every_registry_kind():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["zoo", "list"]) == 0
    assert [k["kind"] for k in json.loads(out.getvalue())["kinds"]] == sorted(KINDS)
