"""Every imported name is used: a standard-library stand-in for a linter's unused-import
rule over the package and its tests. ``__init__.py`` files, whose imports are
re-exports, and ``from __future__`` imports are skipped."""

import ast
import glob
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = sorted(path for pattern in ("src/xlinear/*.py", "tests/*.py")
               for path in glob.glob(os.path.join(ROOT, pattern))
               if os.path.basename(path) != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression of ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}  # `np.x` reads `np`
    return sorted((line, name) for line, name in imported if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_no_unused_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nfrom x import y as z\nos.sep\n") == \
        [(1, "math"), (3, "z")]
