"""Rules kept in one module of the package: a change that copies one into
another module fails here."""

from pathlib import Path

import pytest

import woldkit

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in Path(woldkit.__file__).resolve().parent.glob("*.py")}

# (text, the one module that may contain it)
OWNERS = [
    ("._steps", "bandop.py"),       # the band-step memo
    ("HERMITIAN_TOL", "zoo.py"),    # the Hermitian positive-definite block test
    ("eigvalsh", "zoo.py"),
]


@pytest.mark.parametrize("text, owner", OWNERS)
def test_rule_lives_in_one_module(text, owner):
    assert {"bandop.py", "cli.py", "wold.py", "zoo.py"} <= set(SOURCES)
    assert [name for name, src in sorted(SOURCES.items()) if text in src] == [owner]
