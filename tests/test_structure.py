"""Rules kept in one module of the package: a change that copies one into
another module fails here."""

import ast
import importlib.util
from pathlib import Path

import pytest

import woldkit

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in Path(woldkit.__file__).resolve().parent.glob("*.py")}

# (text, the one module that may contain it)
OWNERS = [
    ("._steps", "bandop.py"),       # the band-step memo
    ("16 * max(1, ", "bandop.py"),  # the initial guard of a Gram solve window
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
