import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import woldkit
import woldkit.bandop
from woldkit.bandop import SECTION_BYTE_CAP, Lattice, NoConvergence, section
from woldkit.classd import DEFAULT_PROBE_SEED, default_probes
from woldkit.cli import (
    SpecError,
    build_operator,
    main,
    parse_spec,
    parse_vector_literal,
    vector_to_literal,
)
from woldkit.seqspace import FinVec, unit
from woldkit.zoo import bergman_shift

from conftest import ZOO


# ---------------------------------------------------------------------------
# spec parsing and validation
# ---------------------------------------------------------------------------

def test_parse_bergman():
    spec = parse_spec('{"kind": "bergman_shift"}')
    assert spec.kind == "bergman_shift"
    T = build_operator(spec)
    assert T.offsets == ((1,),)


def test_parse_incommensurate_translation():
    with pytest.raises(SpecError) as exc:
        parse_spec('{"kind":"weighted_translation",'
                   '"phi":{"kind":"exp","alpha":1.0},"t":1.0,"h":0.4}')
    assert any("incommensurate" in e for e in exc.value.errors)


def test_parse_quasinormal_block():
    spec = parse_spec('{"kind":"quasinormal_block","L":[[2,0],[0,3]]}')
    T = build_operator(spec)
    assert T.rank == 2
    assert T.apply(unit((0, 0))) == 2 * unit((1, 0))


def test_parse_collects_all_errors():
    with pytest.raises(SpecError) as exc:
        parse_spec('{"kind":"weighted_shift","step":0,"lattice":"bogus","extra":1}')
    msgs = "\n".join(exc.value.errors)
    assert "weight" in msgs      # missing required field
    assert "step" in msgs        # bad step
    assert "lattice" in msgs     # bad lattice
    assert "extra" in msgs       # unknown field
    assert len(exc.value.errors) >= 4


def test_parse_rejects_non_hermitian_matrix():
    with pytest.raises(SpecError) as exc:
        parse_spec('{"kind":"quasinormal_block","L":[[2,1],[0,3]]}')
    assert any("Hermitian" in e for e in exc.value.errors)


def test_parse_invalid_json():
    with pytest.raises(SpecError):
        parse_spec("{nope")


_B = '{"kind":"bergman_shift"}'
_BB = '{"family":"bergman"}'

# malformed specs and the exact errors parse_spec or build_operator reports
MALFORMED_SPECS = {
    "unknown-kind": ('{"kind":"nope"}', ["$.kind: unknown operator kind 'nope'"]),
    "unknown-family": (
        '{"kind":"weighted_shift","weight":{"family":"nope"}}',
        ["$.weight.family: expected one of constant/bergman/dirichlet/table, got 'nope'"]),
    "unknown-envelope": (
        '{"kind":"weighted_translation","phi":{"kind":"nope"},"t":1,"h":1}',
        ["$.phi.kind: expected one of exp/power/table, got 'nope'"]),
    "missing-field": ('{"kind":"scale","child":' + _B + '}',
                      ["$: missing required field 'factor'"]),
    "unknown-field": ('{"kind":"bergman_shift","extra":1}', ["$: unknown field 'extra'"]),
    "bad-step": ('{"kind":"weighted_shift","weight":' + _BB + ',"step":0}',
                 ["$.step: expected a positive integer, got 0"]),
    "bad-part": ('{"kind":"tensor_pair","w1":' + _BB + ',"w2":' + _BB + ',"part":3}',
                 ["$.part: expected 1 or 2, got 3"]),
    "bad-part-bool": ('{"kind":"tensor_pair","w1":' + _BB + ',"w2":' + _BB + ',"part":true}',
                      ["$.part: expected 1 or 2, got True"]),
    "bad-part-float": ('{"kind":"tensor_pair","w1":' + _BB + ',"w2":' + _BB + ',"part":2.0}',
                       ["$.part: expected 1 or 2, got 2.0"]),
    "bad-lattice": ('{"kind":"identity","lattice":"bogus"}',
                    ["$.lattice: expected 'nat' or 'int', got 'bogus'"]),
    "non-object-node": ('{"kind":"compose","a":5,"b":' + _B + '}',
                        ["$.a: expected an object, got 5"]),
    "pair-in-single-slot": (
        '{"kind":"adjoint","child":{"kind":"pair","first":' + _B + ',"second":' + _B + '}}',
        ["adjoint needs a single operator, but the spec names a pair"]),
    "translation-missing-t-h": (
        '{"kind":"weighted_translation","phi":{"kind":"exp","alpha":1.0}}',
        ["$: missing required field 't'", "$: missing required field 'h'"]),
    "incommensurate": (
        '{"kind":"weighted_translation","phi":{"kind":"exp","alpha":1.0},"t":1.0,"h":0.4}',
        ["$: translation step t/h = 2.5 is not a positive integer (incommensurate grid)"]),
    "non-hermitian": ('{"kind":"quasinormal_block","L":[[2,1],[0,3]]}',
                      ["$.L: matrix must be Hermitian"]),
    "non-number-entry": ('{"kind":"quasinormal_block","L":[[2,"x"],[1,3]]}',
                         ["$.L[0][1]: expected a number or [re, im] pair, got 'x'"]),
    "not-positive-definite": (
        '{"kind":"quasinormal_block","L":[[1,2],[2,1]]}',
        ["$.L: matrix must be positive definite (smallest eigenvalue -1.000e+00)"]),
    "all-errors": (
        '{"kind":"weighted_shift","step":0,"lattice":"bogus","extra":1}',
        ["$: missing required field 'weight'", "$: unknown field 'extra'",
         "$.step: expected a positive integer, got 0",
         "$.lattice: expected 'nat' or 'int', got 'bogus'"]),
    "bad-table": (
        '{"kind":"weighted_shift","weight":{"family":"table","values":[],"default":"x"}}',
        ["$.weight.values: expected a nonempty list",
         "$.weight.default: expected a number or [re, im] pair, got 'x'"]),
    "bad-envelope-table": (
        '{"kind":"weighted_translation","phi":{"kind":"table","samples":[1,-1],"h":0,'
        '"tail_ratio":1,"x":2},"t":1,"h":1}',
        ["$.phi: unknown field 'x'",
         "$.phi.samples: expected a nonempty list of positive numbers",
         "$.phi.h: expected a positive number, got 0"]),
    "pair-two-lattices": (
        '{"kind":"pair","first":' + _B + ',"second":{"kind":"tensor_pair","w1":' + _BB
        + ',"w2":' + _BB + ',"part":1}}',
        ["pair: the operators live on different lattices, "
         "Lattice(('nat',)) and Lattice(('nat', 'nat'))"]),
    "invalid-json": ('{"kind": nope}',
                     ["$: invalid JSON: Expecting value: line 1 column 10 (char 9)"]),
}


@pytest.mark.parametrize("name", list(MALFORMED_SPECS))
def test_spec_error_text_pinned(name):
    text, errors = MALFORMED_SPECS[name]
    with pytest.raises(SpecError) as exc:
        build_operator(parse_spec(text))
    assert exc.value.errors == errors


def test_spec_round_trip():
    texts = [
        '{"kind":"bergman_shift"}',
        '{"kind":"weighted_shift","weight":{"family":"table","values":[1,[0,1]],'
        '"default":2},"step":3,"lattice":"int"}',
        '{"kind":"direct_sum","a":{"kind":"weighted_shift",'
        '"weight":{"family":"constant","value":1},"lattice":"int"},'
        '"b":{"kind":"dirichlet_shift"}}',
        '{"kind":"pair","first":{"kind":"bergman_shift"},'
        '"second":{"kind":"scale","factor":2,"child":{"kind":"identity"}}}',
        '{"kind":"tensor_pair","w1":{"family":"bergman"},"w2":{"family":"dirichlet"},'
        '"part":1}',
    ]
    for text in texts:
        spec = parse_spec(text)
        again = parse_spec(json.dumps(spec.to_dict()))
        assert again == spec


def test_build_pair_and_part():
    pair = build_operator(parse_spec(
        '{"kind":"tensor_pair","w1":{"family":"constant","value":1},'
        '"w2":{"family":"constant","value":1}}'))
    assert isinstance(pair, tuple) and len(pair) == 2
    part = build_operator(parse_spec(
        '{"kind":"tensor_pair","w1":{"family":"constant","value":1},'
        '"w2":{"family":"constant","value":1},"part":2}'))
    assert part.offsets == ((0, 1),)


def test_build_adjoint_and_compose():
    # T* T expressed through the combinators matches the Gram operator
    from woldkit.zoo import bergman_shift
    T = build_operator(parse_spec(
        '{"kind":"compose","a":{"kind":"adjoint","child":{"kind":"bergman_shift"}},'
        '"b":{"kind":"bergman_shift"}}'))
    B = bergman_shift()
    for k in range(4):
        assert T.apply(unit(k)) == B.gram().apply(unit(k))
    scaled = build_operator(parse_spec(
        '{"kind":"scale","factor":[0,2],"child":{"kind":"identity"}}'))
    assert scaled.apply(unit(1)) == 2j * unit(1)


def test_build_rejects_pair_in_combinator():
    with pytest.raises(SpecError):
        build_operator(parse_spec(
            '{"kind":"adjoint","child":{"kind":"pair",'
            '"first":{"kind":"bergman_shift"},"second":{"kind":"bergman_shift"}}}'))


def test_vector_literals():
    v = parse_vector_literal([[0, 1.0, 0.0], [3, 0.5, -0.25]])
    assert v == FinVec({(0,): 1.0, (3,): 0.5 - 0.25j})
    assert vector_to_literal(v) == [[0, 1.0, 0.0], [3, 0.5, -0.25]]
    with pytest.raises(SpecError):
        parse_vector_literal([[0, 1.0]])
    with pytest.raises(SpecError):
        parse_vector_literal([[0.5, 1.0, 0.0]])
    with pytest.raises(SpecError):
        parse_vector_literal([[0, 1.0, 0.0], [0, 0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_check_bergman_passes(tmp_path):
    code, rep = run_cli(tmp_path, "check", '{"kind":"bergman_shift"}')
    assert code == 0
    assert rep["verdict"] == "pass"
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["classd"]["residual"] <= 1e-10
    assert by_name["classd"]["informational"] is False
    assert by_name["isometry"]["verdict"] == "fail"
    assert by_name["isometry"]["informational"] is True
    assert rep["params"]["seed"] == 0x5EED


def test_check_spec_file(tmp_path):
    spec_path = tmp_path / "op.json"
    spec_path.write_text('{"kind":"dirichlet_shift"}')
    code, rep = run_cli(tmp_path, "check", str(spec_path))
    assert code == 0 and rep["verdict"] == "pass"


def test_check_pair_product_closure(tmp_path):
    code, rep = run_cli(
        tmp_path, "check",
        '{"kind":"pair","first":{"kind":"bergman_shift"},'
        '"second":{"kind":"scale","factor":2,"child":{"kind":"identity"}}}')
    assert code == 0
    names = [c["name"] for c in rep["checks"]]
    assert "double_commuting" in names and "product_closure" in names


def test_check_gating_failure_exit_code(tmp_path, capsys):
    # a weight that vanishes is not bounded below: left invertibility fails,
    # and the library's warning about it reaches stderr as one line
    code, rep = run_cli(
        tmp_path, "check",
        '{"kind":"weighted_shift","weight":{"family":"table",'
        '"values":[1,0],"default":1}}')
    assert code == 3
    assert rep["verdict"] == "fail"
    assert capsys.readouterr().err == ("warning: shift weight is not bounded below on "
                                       "the probe window; the operator is not left invertible\n")


def test_library_warning_is_one_stderr_line(capsys):
    code = main(["check", '{"kind":"quasinormal_block","L":[[1,0],[0,1]]}'])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["verdict"] == "pass"
    lines = captured.err.splitlines()
    assert lines == ["warning: smallest eigenvalue of L is <= 1; the block shift is not "
                     "expansive and may be close to an isometry"]
    assert "UserWarning" not in captured.err and ".py" not in captured.err


def test_error_exit_keeps_its_one_line(capsys):
    # building the block warns, then the vector is refused: only the error shows
    code = main(["decompose", '{"kind":"quasinormal_block","L":[[1,0],[0,1]]}',
                 "--vector", "[[0,5,1,0]]"])
    assert code == 1
    assert capsys.readouterr().err == \
        "spec error: vector: index (0, 5) lies outside Lattice(('nat', 2))\n"


def test_warnings_repeat_on_every_call_once_each(capsys):
    # each call reports its own warnings, whatever an earlier call showed
    block = '{"kind":"quasinormal_block","L":[[1,0],[0,1]]}'
    spec = f'{{"kind":"direct_sum","a":{block},"b":{block}}}'
    for _ in range(2):
        assert main(["check", spec]) in (0, 3)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: smallest eigenvalue")


def test_check_full_quasinormal_block_finishes(tmp_path):
    code, rep = run_cli(tmp_path, "check", '{"kind":"quasinormal_block","L":[[2,0.5],[0.5,3]]}')
    assert code == 0
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["classd"]["verdict"] == "pass"
    assert by_name["left_invertibility"]["verdict"] == "pass"


@pytest.mark.parametrize("spec", [
    '{"kind":"adjoint","child":{"kind":"bergman_shift"}}',
    '{"kind":"scale","factor":0,"child":{"kind":"bergman_shift"}}',
])
def test_check_oracle_skips_rank_deficient_section(tmp_path, capsys, spec):
    code, rep = run_cli(tmp_path, "check", spec, "--oracle")
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    assert rep["oracle"]["skipped"]


def test_decompose_command(tmp_path):
    code, rep = run_cli(
        tmp_path, "decompose",
        '{"kind":"weighted_shift","weight":{"family":"constant","value":1}}',
        "--vector", "[[0,1,0],[1,1,0]]")
    assert code == 0
    dec = rep["decomposition"]
    assert dec["components"] == [[[0, 1.0, 0.0]], [[1, 1.0, 0.0]]]
    assert dec["reconstruction_residual"] == 0.0
    assert rep["verdict"] == "pass"


def test_decompose_vector_file(tmp_path):
    vec_path = tmp_path / "vec.json"
    vec_path.write_text("[[0,1,0],[2,0,1]]")
    code, rep = run_cli(tmp_path, "decompose", '{"kind":"bergman_shift"}',
                        "--vector", str(vec_path))
    assert code == 0
    assert rep["decomposition"]["reconstruction_residual"] <= 1e-10


def test_decompose_spec_error_exit_code(tmp_path):
    code = main(["decompose",
                 '{"kind":"weighted_translation","phi":{"kind":"exp","alpha":1.0},'
                 '"t":1.0,"h":0.4}',
                 "--vector", "[[0,1,0]]"])
    assert code == 1


def test_decompose_convergence_error_exit_code(tmp_path):
    code = main(["decompose",
                 '{"kind":"weighted_shift","weight":{"family":"constant","value":1},'
                 '"lattice":"int"}',
                 "--vector", "[[0,1,0]]", "--n-max", "2",
                 "--out", str(tmp_path / "r.json")])
    assert code == 2


def test_decompose_spike_past_the_cap_does_not_pass(tmp_path):
    # e100 looks settled for the 64 default iterations, but the series owns it
    code, rep = run_cli(tmp_path, "decompose", _BERGMAN, "--vector", "[[0,1,0],[100,1,0]]")
    assert code == 2 and rep is None
    code, rep = run_cli(tmp_path, "decompose", _BERGMAN, "--vector", "[[0,1,0],[100,1,0]]",
                        "--n-max", "128")
    assert code == 0
    assert rep["decomposition"]["j_used"] == 100


def test_decompose_settled_past_the_cap_names_the_step(capsys):
    # e1000 keeps P_n h = h for the 64 default iterations: the one-line
    # error names the step where the orbit of B* loses it, the n_max it needs
    assert main(["decompose", _BERGMAN, "--vector", "[[1000,1,0]]"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("convergence error: projection iterates settled after n_max=64")
    assert err.count("\n") == 1 and err.endswith("loses support at step 1001\n")


def test_decompose_pass_rule_needs_the_power_identity(tmp_path, monkeypatch):
    # a reconstruction that holds does not pass when (T~)^n h is not (T^n)~ h
    res = woldkit.decompose(bergman_shift(), unit(0))
    assert res.reconstruction_residual == 0.0 and res.power_residual <= 1e-10
    monkeypatch.setattr(woldkit.cli, "decompose", lambda *a, **k: dataclasses.replace(
        res, power_residual=0.25))
    code, rep = run_cli(tmp_path, "decompose", _BERGMAN, "--vector", "[[0,1,0]]")
    assert code == 3
    assert rep["verdict"] == "fail"
    assert rep["decomposition"]["power_residual"] == 0.25


def test_decompose_oracle_flag(tmp_path):
    code, rep = run_cli(tmp_path, "decompose", '{"kind":"bergman_shift"}',
                        "--vector", "[[0,1,0],[4,0,-1]]", "--oracle")
    assert code == 0
    assert rep["oracle"]["max_rel_delta"] <= 1e-9


def test_decompose_oracle_skips_a_window_over_the_cap(tmp_path):
    code, rep = run_cli(tmp_path, "decompose",
                        '{"kind":"tensor_pair","w1":{"family":"constant","value":1},'
                        '"w2":{"family":"constant","value":1},"part":1}',
                        "--vector", "[[60,0,1,0]]", "--oracle")
    assert code == 0
    assert rep["oracle"] == {"skipped": "35344 ordinals exceed the cap of 4096"}


_NO_LEFT_INVERSE = [
    '{"kind":"scale","factor":0,"child":{"kind":"bergman_shift"}}',
    '{"kind":"adjoint","child":{"kind":"bergman_shift"}}',
]


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
@pytest.mark.parametrize("spec", _NO_LEFT_INVERSE, ids=["zero", "bergman-adjoint"])
def test_decompose_refuses_operator_without_left_inverse(tmp_path, spec, oracle):
    code, rep = run_cli(tmp_path, "decompose", spec, "--vector", "[[0,1,0]]", *oracle)
    assert code == 3
    assert rep["verdict"] == "fail"
    assert rep["left_invertibility"]["verdict"] == "fail"
    assert rep["left_invertibility"]["window"] == 16
    assert rep["decomposition"] is None


def _pair_with(spec, at):
    factors = [_BERGMAN, _BERGMAN]
    factors[at] = spec
    return '{"kind":"pair","first":' + factors[0] + ',"second":' + factors[1] + '}'


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
@pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("spec", _NO_LEFT_INVERSE, ids=["zero", "bergman-adjoint"])
def test_fourfold_refuses_pair_with_factor_without_left_inverse(tmp_path, spec, at, oracle):
    code, rep = run_cli(tmp_path, "fourfold", _pair_with(spec, at), "--vector", "[[0,1,0]]",
                        *oracle)
    assert code == 3
    assert rep["verdict"] == "fail"
    gates = rep["left_invertibility"]
    assert [g["verdict"] for g in gates] == ["fail" if i == at else "pass" for i in range(2)]
    assert [g["window"] for g in gates] == [16, 16]
    assert rep["fourfold"] is None
    assert "oracle" not in rep


@pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
@pytest.mark.parametrize("spec", _NO_LEFT_INVERSE, ids=["zero", "bergman-adjoint"])
def test_check_pair_gates_both_factors(tmp_path, spec, at):
    code, rep = run_cli(tmp_path, "check", _pair_with(spec, at))
    assert code == 3
    assert rep["verdict"] == "fail"
    gates = rep["left_invertibility"]
    assert [g["verdict"] for g in gates] == ["fail" if i == at else "pass" for i in range(2)]


@pytest.mark.parametrize("command,extra",
                         [("check", ()), ("fourfold", ("--vector", "[[0,0,1,0]]"))])
def test_pair_commands_record_passing_gates_in_factor_order(tmp_path, command, extra):
    spec = ('{"kind":"tensor_pair","w1":{"family":"bergman"},'
            '"w2":{"family":"constant","value":1},"lattice2":"int"}')
    code, rep = run_cli(tmp_path, command, spec, *extra)
    assert code == 0
    gates = rep["left_invertibility"]
    assert [g["verdict"] for g in gates] == ["pass", "pass"]
    # the Bergman factor on the first axis, the constant one on the second
    assert gates[0]["details"]["lower_bound"] == math.sqrt(0.5)
    assert gates[1]["details"]["lower_bound"] == 1.0


def _one(value=1.0):
    return {"family": "constant", "value": value}


def _tensor(w1, w2, part):
    return {"kind": "tensor_pair", "w1": w1, "w2": w2, "part": part}


# the conftest fixtures as CLI specs
_ZOO_SPECS = {
    "unilateral_shift": {"kind": "weighted_shift", "weight": _one()},
    "bilateral_shift": {"kind": "weighted_shift", "weight": _one(), "lattice": "int"},
    "double_bilateral": {"kind": "weighted_shift", "weight": _one(2.0), "lattice": "int"},
    "bergman_shift": {"kind": "bergman_shift"},
    "dirichlet_shift": {"kind": "dirichlet_shift"},
    "translation_exp": {"kind": "weighted_translation",
                        "phi": {"kind": "exp", "alpha": 1.0}, "t": 1.0, "h": 1.0},
    "translation_power": {"kind": "weighted_translation",
                          "phi": {"kind": "power", "beta": 2.0}, "t": 2.0, "h": 1.0},
    "quasinormal_block": {"kind": "quasinormal_block", "L": [[2.0, 0.0], [0.0, 3.0]]},
    "tensor_bergman_factor": _tensor({"family": "bergman"}, {"family": "dirichlet"}, 1),
    "tensor_product": {"kind": "compose", "a": _tensor(_one(), _one(), 1),
                       "b": _tensor(_one(), _one(), 2)},
    "mixed_sum": {"kind": "direct_sum",
                  "a": {"kind": "weighted_shift", "weight": _one(), "lattice": "int"},
                  "b": {"kind": "weighted_shift", "weight": _one()}},
}


@pytest.mark.parametrize("name", [name for name, _ in ZOO])
def test_decompose_gate_passes_on_every_zoo_fixture(tmp_path, name):
    spec = json.dumps(_ZOO_SPECS[name])
    T = build_operator(parse_spec(spec))
    assert T == dict(ZOO)[name]
    vector = [[*ix, 1.0, -0.5] for ix in T.lattice.window(2)[:3]]
    code, rep = run_cli(tmp_path, "decompose", spec, "--vector", json.dumps(vector))
    assert code == 0
    assert rep["verdict"] == "pass"
    assert rep["left_invertibility"]["verdict"] == "pass"
    assert rep["decomposition"]["reconstruction_residual"] <= 1e-10


def test_huge_window_is_refused_before_allocating(capsys, monkeypatch):
    shapes = []
    zeros = np.zeros

    def recording_zeros(shape, *args, **kwargs):
        shapes.append(shape)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    code = main(["check", _BERGMAN, "--window", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("convergence error: ")
    assert str(SECTION_BYTE_CAP) in err
    assert all(16 * np.prod(shape) <= SECTION_BYTE_CAP for shape in shapes)


def test_huge_rank2_window_is_refused_before_enumerating(capsys, monkeypatch):
    # a 100001^2-point window would be built tuple by tuple; the cap must
    # trip on the counted size before Lattice.window is asked for it
    asked = []
    window = Lattice.window

    def recording_window(self, extent):
        asked.append(extent)
        return window(self, extent)

    monkeypatch.setattr(Lattice, "window", recording_window)
    spec = ('{"kind":"tensor_pair","w1":{"family":"bergman"},'
            '"w2":{"family":"bergman"},"part":1}')
    code = main(["check", spec, "--window", "100000"])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("convergence error: ")
    assert str(SECTION_BYTE_CAP) in err
    assert 100000 not in asked


def test_fourfold_command(tmp_path):
    code, rep = run_cli(
        tmp_path, "fourfold",
        '{"kind":"tensor_pair","w1":{"family":"constant","value":1},'
        '"w2":{"family":"constant","value":1}}',
        "--vector", "[[0,0,1,0]]", "--oracle")
    assert code == 0
    ff = rep["fourfold"]
    assert ff["parts"]["s_s"] == [[0, 0, 1.0, 0.0]]
    assert ff["residual"] == 0.0
    assert rep["oracle"]["max_rel_delta"] <= 1e-9


def test_fourfold_oracle_window_follows_the_engine(tmp_path):
    # the dense window is sized from the limit iterations the engine ran,
    # not from --n-max (64 here), so the oracle run stays quick
    code, rep = run_cli(tmp_path, "fourfold", _TENSOR,
                        "--vector", "[[0,0,1,0],[1,2,0,1]]", "--oracle")
    assert code == 0
    iterations = rep["fourfold"]["limit_iterations"]
    assert len(iterations) == 5 and max(iterations) <= 4
    assert rep["oracle"]["window"] == 2 + 2 * max(iterations) + 2 + 4
    assert rep["oracle"]["max_rel_delta"] <= 1e-9


def test_check_pair_oracle_says_it_compared_nothing(tmp_path):
    code, rep = run_cli(tmp_path, "check", _TENSOR, "--oracle")
    assert code == 0
    assert rep["oracle"] == {"skipped": "no dense replica of the pair checks"}


def test_fourfold_requires_pair(tmp_path):
    code = main(["fourfold", '{"kind":"bergman_shift"}', "--vector", "[[0,1,0]]"])
    assert code == 1


_BERGMAN = '{"kind":"bergman_shift"}'
_TENSOR = ('{"kind":"tensor_pair","w1":{"family":"constant","value":1},'
           '"w2":{"family":"constant","value":1}}')
_TENSOR_BERGMAN_INT = ('{"kind":"tensor_pair","w1":{"family":"bergman"},'
                       '"w2":{"family":"bergman"},"lattice1":"int","part":1}')


@pytest.mark.parametrize("argv, params", [
    (["check", _BERGMAN], {"oracle": False, "seed": 0x5EED, "tol": 1e-10, "window": 16}),
    (["check", _TENSOR], {"oracle": False, "seed": 0x5EED, "tol": 1e-9, "window": 16}),
    (["check", _BERGMAN, "--tol", "1e-8"],
     {"oracle": False, "seed": 0x5EED, "tol": 1e-8, "window": 16}),
    (["decompose", _BERGMAN, "--vector", "[[0,1,0]]"],
     {"n_max": 64, "oracle": False, "tol": 1e-10}),
    (["fourfold", _TENSOR, "--vector", "[[0,0,1,0]]"],
     {"n_max": 64, "oracle": False, "tol": 1e-10}),
], ids=["check", "check-pair", "check-tol", "decompose", "fourfold"])
def test_report_params_are_the_flags_a_command_ran_with(tmp_path, argv, params):
    # every flag the command takes but its inputs, and the tolerance it ran at
    code, rep = run_cli(tmp_path, *argv)
    assert code == 0
    assert rep["params"] == params


def _shift(weight):
    return '{"kind":"weighted_shift","weight":' + weight + '}'


def _translation(phi, t="1.0", h="1.0"):
    return '{"kind":"weighted_translation","phi":' + phi + f',"t":{t},"h":{h}}}'


_TWO_LATTICE_PAIR = ('{"kind":"pair","first":{"kind":"bergman_shift"},"second":'
                     '{"kind":"tensor_pair","w1":{"family":"bergman"},'
                     '"w2":{"family":"bergman"},"part":1}}')


@pytest.mark.parametrize("argv", [
    ["check", _BERGMAN, "--window", "0"],
    ["check", _BERGMAN, "--guard", "2"],
    ["check", _BERGMAN, "--n-max", "3"],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0]]", "--seed", "3"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,1,0]]", "--seed", "3"],
    ["check", _BERGMAN, "--tol", "-1"],
    ["check", _BERGMAN, "--tol", "nan"],
    ["check", _BERGMAN, "--tol", "inf"],
    ["check", _BERGMAN, "--seed", "-5"],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0]]", "--n-max", "0"],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0]]", "--tol", "0"],
    ["decompose", _BERGMAN, "--vector", "[[-1,1,0]]"],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0]"],
    ["fourfold", _TENSOR, "--vector", "[[0,-1,1,0]]"],
    ["check", "DIR"],
    ["check", "NOT_UTF8"],
    ["check", _TWO_LATTICE_PAIR],
    ["fourfold", _TWO_LATTICE_PAIR, "--vector", "[[0,1,0]]"],
    ["check", _translation('{"kind":"exp","alpha":1.0}', t="Infinity")],
    ["check", _translation('{"kind":"exp","alpha":1.0}', t="1e300", h="1e-300")],
    ["check", '{"kind":"scale","factor":NaN,"child":' + _BERGMAN + '}'],
    ["check", '{"kind":"quasinormal_block","L":[[NaN]]}'],
    ["check", _translation('{"kind":"power","beta":NaN}')],
    ["check", _translation('{"kind":"power","beta":2000}')],
    ["check", _translation('{"kind":"exp","alpha":1e308}')],
    ["check", _shift('{"family":"table","values":[1],"default":NaN}')],
    ["check", _shift('{"family":"constant","value":Infinity}')],
    ["check", _shift('{"family":"constant","value":-Infinity}')],
    ["check", _shift('{"family":"constant","value":1e400}')],
    ["check", _shift('{"family":"constant","value":1' + "0" * 400 + '}')],
    ["check", _shift('{"family":"constant","value":1' + "0" * 5000 + '}')],
    ["decompose", _BERGMAN, "--vector", "[[0,NaN,0]]"],
    ["decompose", _BERGMAN, "--vector", "[[0,1e200,0]]"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,1e200,0]]"],
    ["decompose", _BERGMAN, "--vector", "[[0,1e-170,0],[3,1e-170,0]]"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,1e-170,0],[1,2,1e-170,0]]"],
    ["check", _TENSOR_BERGMAN_INT],
    ["fourfold", _TENSOR_BERGMAN_INT.replace(',"part":1', ""), "--vector", "[[0,0,1,0]]"],
    ["check", _BERGMAN, "--window", "abc"],
    ["check", _BERGMAN, "--bogus"],
    ["decompose", _BERGMAN],
    [],
], ids=["window-0", "check-guard", "check-n-max", "decompose-seed", "fourfold-seed",
        "tol-neg", "tol-nan", "tol-inf", "seed-neg", "n-max-0", "tol-0", "vector-off-lattice", "vector-bad-json",
        "pair-vector-off-lattice", "spec-is-directory", "spec-not-utf8",
        "pair-two-lattices-check", "pair-two-lattices-fourfold", "t-infinity",
        "t-over-h-overflows", "factor-nan", "L-nan", "beta-nan", "beta-2000-overflows-at-build",
        "alpha-1e308-overflows-at-build", "table-default-nan", "value-infinity",
        "value-minus-infinity", "value-1e400", "value-400-digits", "value-5000-digits",
        "vector-nan", "vector-norm-overflows", "pair-vector-norm-overflows",
        "vector-norm-underflows", "pair-vector-norm-underflows",
        "tensor-bergman-on-int-axis", "tensor-bergman-on-int-axis-fourfold",
        "window-not-int", "unknown-flag", "vector-missing", "no-command"])
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, argv):
    binary = tmp_path / "spec.bin"
    binary.write_bytes(b"\xd0\xff\x00")
    places = {"DIR": str(tmp_path), "NOT_UTF8": str(binary)}
    code = main([places.get(a, a) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("spec error: ")


@pytest.mark.parametrize("argv", [
    ["decompose", _BERGMAN, "--vector", "[[0,0,0]]"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,0,0]]"],
], ids=["decompose", "fourfold"])
def test_all_zero_vector_literal_passes(capsys, argv):
    # a zero vector has norm 0.0 without underflowing: it is not refused
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def _nested_adjoints(depth):
    return '{"kind":"adjoint","child":' * depth + _BERGMAN + "}" * depth


@pytest.mark.parametrize("argv", [
    ["check", _nested_adjoints(400)],
    ["check", _nested_adjoints(3000)],
    ["decompose", _BERGMAN, "--vector", "[" * 3000 + "]" * 3000],
], ids=["spec-depth-400", "spec-depth-3000", "vector-depth-3000"])
def test_input_nested_past_the_recursion_limit_exits_1_with_one_line(capsys, argv):
    # building the operator (depth 400) or decoding the JSON (depth 3,000)
    # runs out of Python's recursion limit: one line, not a traceback
    assert main(argv) == 1
    assert capsys.readouterr().err == "spec error: the spec or vector nests too deeply\n"


_BIG = '{"kind":"scale","factor":1e200,"child":' + _BERGMAN + '}'


@pytest.mark.parametrize("argv", [
    ["check", _shift('{"family":"constant","value":1e40}')],
    ["check", '{"kind":"compose","a":' + _BIG + ',"b":' + _BIG + '}'],
    ["check", _translation('{"kind":"power","beta":600}')],
    ["decompose", _shift('{"family":"constant","value":1e200}'), "--vector", "[[1,1,0]]"],
], ids=["value-1e40", "compose-1e200-scales", "beta-600", "decompose-value-1e200"])
def test_overflowing_weights_exit_2_with_one_line(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(("convergence error: ", "overflow error: "))


def test_convergence_error_names_the_loop_phase(capsys):
    code = main(["decompose", _shift('{"family":"constant","value":1e200}'),
                 "--vector", "[[1,1,0]]"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("convergence error: limit phase, n=1: right-hand side norm inf "
                   "overflows double precision\n")


def test_section_refuses_non_finite_entries():
    T = build_operator(parse_spec(_shift('{"family":"constant","value":1e200}')))
    section(T, [(0,), (1,)])  # T itself is finite
    with pytest.raises(NoConvergence, match="non-finite"):
        section(T.gram(), [(0,), (1,)])


def test_tensor_pair_refuses_weight_undefined_on_its_axis():
    with pytest.raises(SpecError) as exc:
        build_operator(parse_spec(_TENSOR_BERGMAN_INT))
    assert exc.value.errors == [
        "building 'tensor_pair': Bergman weight evaluated at negative index -1"]


def test_zoo_list(tmp_path):
    code, rep = run_cli(tmp_path, "zoo", "list")
    assert code == 0
    kinds = [k["kind"] for k in rep["kinds"]]
    for expected in ("weighted_shift", "bergman_shift", "dirichlet_shift",
                     "weighted_translation", "quasinormal_block", "tensor_pair",
                     "direct_sum", "scale", "adjoint", "compose"):
        assert expected in kinds


def test_reports_are_deterministic(tmp_path):
    _, rep1 = run_cli(tmp_path, "check", '{"kind":"bergman_shift"}')
    text1 = json.dumps(rep1, sort_keys=True)
    _, rep2 = run_cli(tmp_path, "check", '{"kind":"bergman_shift"}')
    text2 = json.dumps(rep2, sort_keys=True)
    assert text1 == text2


def test_console_entry_point(tmp_path):
    out = tmp_path / "rep.json"
    # the child runs the same woldkit sources as this test process
    env = {**os.environ, "PYTHONPATH": str(Path(woldkit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "woldkit", "check", '{"kind":"bergman_shift"}',
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["schema_version"] == 1


_SCIPY_PROBE = """
import json, os, sys
from woldkit.cli import main
diagonal = [main(["check", %(bergman)r, "--out", os.devnull]),
            main(["decompose", %(bergman)r, "--vector", "[[0,1,0],[3,1,0]]",
                  "--out", os.devnull])]
after_diagonal = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
block = main(["decompose", %(block)r, "--vector", "[[0,0,1,0],[1,1,0.5,0]]",
              "--out", os.devnull])
after_block = "scipy.linalg" in sys.modules
import numpy, scipy.linalg
print(json.dumps({"diagonal": diagonal, "after_diagonal": after_diagonal,
                  "block": block, "after_block": after_block,
                  "one_error": numpy.linalg.LinAlgError is scipy.linalg.LinAlgError}))
"""


def test_diagonal_gram_commands_never_load_scipy():
    # a weighted shift divides its Gram out entrywise, so a fresh process
    # that only checks and decomposes one never imports scipy; a full
    # quasinormal block factors its fibre sections, which loads it
    env = {**os.environ, "PYTHONPATH": str(Path(woldkit.__file__).resolve().parents[1])}
    script = _SCIPY_PROBE % {"bergman": _BERGMAN,
                             "block": '{"kind":"quasinormal_block","L":[[2,0.5],[0.5,3]]}'}
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["diagonal"] == [0, 0] and got["after_diagonal"] == []
    assert got["block"] == 0 and got["after_block"]
    # solve_gram catches numpy's name for scipy's Cholesky failures too
    assert got["one_error"]


def test_check_oracle_compares_bergman_left_inverse(tmp_path):
    code, rep = run_cli(tmp_path, "check", _BERGMAN, "--oracle")
    assert code == 0
    probes = default_probes(bergman_shift().lattice, seed=DEFAULT_PROBE_SEED)
    assert rep["oracle"]["compared"] == sum(not v.is_zero for v in probes)
    assert rep["oracle"]["max_rel_delta"] <= 1e-12


def test_module_entry_point_usage_errors():
    env = {**os.environ, "PYTHONPATH": str(Path(woldkit.__file__).resolve().parents[1])}
    run = partial(subprocess.run, capture_output=True, text=True, env=env)
    proc = run([sys.executable, "-m", "woldkit", "zoo", "list"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "zoo list"
    proc = run([sys.executable, "-m", "woldkit", "check", _BERGMAN, "--bogus"])
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("spec error: ")


# argv of the pinned CLI runs: every command, both pair and single checks,
# each oracle, the zoo listing and one gating failure (exit 3)
_PINNED_RUNS = [
    ["check", _BERGMAN],
    ["check", _BERGMAN, "--oracle"],
    ["check", _TENSOR],
    ["check", '{"kind":"adjoint","child":' + _BERGMAN + '}'],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0],[3,0.5,-0.25]]"],
    ["decompose", _BERGMAN, "--vector", "[[0,1,0],[3,0.5,-0.25]]", "--oracle"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,1,0],[1,2,0,1]]"],
    ["fourfold", _TENSOR, "--vector", "[[0,0,1,0],[1,2,0,1]]", "--oracle", "--n-max", "4"],
    ["zoo", "list"],
]


def test_cli_reports_digest_pinned(capsys, monkeypatch):
    # bit-identity of the CLI's output across refactors: the sha256 of
    # argv, exit code, stdout and stderr of each pinned run; every run
    # builds fresh operators, so the second pass replays the plans and
    # reuses the windows the first one made on a cold plan cache and window
    # memo
    monkeypatch.setattr(woldkit.bandop, "_PLANS", {})
    monkeypatch.setattr(woldkit.bandop, "_WINDOWS", {})
    digests = []
    for _ in range(2):
        digest = hashlib.sha256()
        for argv in _PINNED_RUNS:
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(json.dumps([argv, code, out, err]).encode())
        digests.append(digest.hexdigest())
    assert digests == ["5c1c2ad5c3f30926c1a3c5cfeb1cfeda259240b7a14623c7269922eb4bf8b33d"] * 2
