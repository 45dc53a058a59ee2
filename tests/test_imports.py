"""Every imported name is used: a walk over the syntax tree of each module of
the package, its tests and its tools, standard library only.  A package
`__init__` re-exports what it imports and is exempt.  And importing the
package loads no standard module it does not need at every start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/eqvit", "tests", "tools")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_walk_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\n"
    assert unused_imports(source + "from a.b import c, d\nnp.zeros(c)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_importing_the_package_loads_no_statistics():
    # `statistics` imports `fractions` and `decimal`: milliseconds of every
    # CLI start, for one mean.  Counted past what NumPy itself loads.
    code = (
        "import sys, numpy; before = set(sys.modules); import eqvit; "
        "print(sorted({'statistics', 'fractions', 'decimal'} & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
