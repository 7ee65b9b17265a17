"""Rules kept in one module of the package: a change that copies one into
another module fails here."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

import woldkit

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in Path(woldkit.__file__).resolve().parent.glob("*.py")}

# (text, the one module that may contain it)
OWNERS = [
    ("._steps", "bandop.py"),       # the band-step memo
    ("_graded(", "bandop.py"),      # the graded window order (and its memo)
    ("16 * max(1, ", "bandop.py"),  # the initial guard of a Gram solve window
    ("GRAM_TOL = ", "bandop.py"),   # the default Gram solve tolerance
    ("HERMITIAN_TOL", "zoo.py"),    # the Hermitian positive-definite block test
    ("eigvalsh", "zoo.py"),
    ("DC_TOLERANCE = ", "classd.py"),  # the double-commutation tolerance
    ("0x5EED", "classd.py"),          # the probe seed
    ("def to_dict", "cli.py"),        # the one JSON serializer of specs and reports
]


@pytest.mark.parametrize("text, owner", OWNERS)
def test_rule_lives_in_one_module(text, owner):
    assert {"bandop.py", "cli.py", "wold.py", "zoo.py"} <= set(SOURCES)
    assert [name for name, src in sorted(SOURCES.items()) if text in src] == [owner]


def test_one_lru_evicts_for_every_cache():
    # every bounded cache goes through bandop._lru: a later cache that
    # hand-rolls its own eviction fails here
    assert sum(src.count("next(iter(") for src in SOURCES.values()) == 1
    lru = next(node for node in ast.parse(SOURCES["bandop.py"]).body
               if isinstance(node, ast.FunctionDef) and node.name == "_lru")
    assert "next(iter(" in ast.get_source_segment(SOURCES["bandop.py"], lru)


def _functions_calling(match):
    """Names of the functions of the package holding a call that ``match``
    accepts (a nested function counts for its outer one as well)."""
    return sorted(fn.name for src in SOURCES.values() for fn in ast.walk(ast.parse(src))
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn) if isinstance(node, ast.Call) and match(node))


def test_one_routine_normalises_a_term_skeleton():
    # the term normal form is bandop._normal_skeleton: a second routine that
    # merges atom powers or sorts a term's atoms forks it; an adjoint only
    # swaps exponents, which keeps a term normal.  Atoms sort as plain
    # tuples: no sort key, no memo of formatted parameters
    assert not any(name in src for src in SOURCES.values()
                   for name in ("_make_term", "_merge_abs2", "_atom_sort_key",
                                "_skeleton_order", "reprs"))
    calls = lambda name: lambda call: getattr(call.func, "id", None) == name
    assert _functions_calling(calls("_normal_skeleton")) == ["_normalize_terms", "_plan_compose"]
    assert _functions_calling(calls("_merge_powers")) == ["_normal_skeleton"]

    def sorts_atoms(call):
        return getattr(call.func, "id", None) == "sorted" and any(
            isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_merge_powers"
            for arg in call.args)
    assert _functions_calling(sorts_atoms) == ["_normal_skeleton"]
    tree = ast.parse(SOURCES["bandop.py"])
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) == "repr"]

    # an atom power is one exponent pair, a^p conj(a)^q: no squared-modulus
    # pseudo-family and no conjugation flag; the fields in this order make
    # the natural tuple order the canonical one, an atom before its conjugate
    atom = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Atom")
    assert [n.target.id for n in atom.body if isinstance(n, ast.AnnAssign)] == [
        "kind", "axis", "shift", "params", "q", "p"]
    for src in SOURCES.values():
        nodes = list(ast.walk(ast.parse(src)))
        called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        assert not [n for n in nodes if isinstance(n, ast.Constant) and n.value == "abs2"]
        # numpy's ``.conj()`` is a call; a field would be read or set by name
        assert not [n for n in nodes if isinstance(n, ast.Attribute) and n.attr == "conj"
                    and id(n) not in called]
        assert not [kw for n in nodes if isinstance(n, ast.Call) for kw in n.keywords
                    if kw.arg == "conj"]


def _qualified_functions(tree):
    """``(name, node)`` of each module-level function and each method, a
    method named ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def test_one_rule_decides_every_mask():
    # lattice masks are decided by shift_cover, against a term's selectors
    # and its band's domain, only for a composition's products and for a
    # band's images: a second mask rule forks the weight normal form
    def calls(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    def callers(name):
        return sorted(qual for src in SOURCES.values()
                      for qual, fn in _qualified_functions(ast.parse(src))
                      if any(calls(node, name) for node in ast.walk(fn)))
    assert callers("shift_cover") == ["UnionLattice.shift_cover", "_BandSteps.__init__",
                                      "_resolve_masks"]
    assert callers("_resolve_masks") == ["_plan_compose"]


def test_one_kernel_divides_by_a_gram_diagonal():
    # the entrywise Gram solve is bandop._diagonal_solve, reached by the
    # public solve and by the fused left inverse; a second loop that divides
    # by a diagonal forks it (``_eval_atom`` divides only in the closed
    # forms of the weight families)
    tree = ast.parse(SOURCES["bandop.py"])
    dividing = sorted(fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                      for node in ast.walk(fn)
                      if isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.Div))
    assert sorted(set(dividing)) == ["_diagonal_solve", "_eval_atom"]
    calls = lambda call: getattr(call.func, "id", None) == "_diagonal_solve"
    assert _functions_calling(calls) == ["left_inverse_apply", "solve_gram"]


def test_every_residual_is_measured_without_difference_vectors():
    # a residual norm is FinVec.distance: ``(a - b).norm()`` builds a
    # vector only to measure it, and a second distance routine forks it
    found = [ast.get_source_segment(src, node)
             for src in SOURCES.values() for node in ast.walk(ast.parse(src))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "norm" and isinstance(node.func.value, ast.BinOp)
             and isinstance(node.func.value.op, ast.Sub)]
    assert found == []
    assert [name for name, src in sorted(SOURCES.items())
            if re.search(r"\b_(gram_residual|distance)\b", src)] == []


# the public functions that take a ``tol``: the four whose callers set the
# Gram solve tolerance, and the dense oracle's limits.  Every other bound
# reads bandop.GRAM_TOL, so a per-function solve knob threaded through
# another public signature fails here
TOL_PARAMETERS = {"solve_gram", "shift_limit_project", "decompose", "fourfold",
                  "oracle_limit_project", "oracle_decompose", "oracle_fourfold"}


def test_tol_is_a_parameter_of_the_tuned_functions_only():
    found = {node.name for src in SOURCES.values() for node in ast.walk(ast.parse(src))
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
             and "tol" in {a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                           *node.args.kwonlyargs)}}
    assert found == TOL_PARAMETERS


# (module, underscore name it may import from another module); the dense
# oracle in particular shares no code path with the engine
PRIVATE_IMPORTS = {("cli.py", "_worst_ratio")}


def test_no_module_imports_private_names_of_another():
    imported = {(name, alias.name)
                for name, src in SOURCES.items()
                for node in ast.walk(ast.parse(src)) if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")}
    assert imported <= PRIVATE_IMPORTS, sorted(imported - PRIVATE_IMPORTS)


def _module_level_imports(tree):
    # names imported while the module itself runs: function bodies run later
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    # scipy is loaded where a section is factored or a null space taken, so
    # importing the package, or running a diagonal-Gram command, never pays for it
    found = sorted((name, mod) for name, src in SOURCES.items()
                   for mod in _module_level_imports(ast.parse(src))
                   if mod.split(".")[0] == "scipy")
    assert found == []


def test_benchmark_tracer_entry_points_resolve():
    # perfbench/tracing.py wraps these names by attribute path; one that a
    # change to the package removes would break the traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.ENTRY_POINTS) == 46
    for modname, attr_path, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(modname)
        for attr in attr_path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (modname, attr_path)
