"""Rules on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crossedideals"


def test_no_verification_depends_on_assert():
    """python -O strips assert statements, so every check in the package
    raises an exception of its own instead; nor does any raise an
    AssertionError, which the CLI does not catch."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []


def test_package_imports_itself_only_relatively():
    """No import statement in the package names crossedideals absolutely,
    so a copy of src/crossedideals under another name imports beside the
    working tree in one process, as an A/B of two revisions needs."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "crossedideals"]
    assert found == []


def test_only_exactlin_reads_the_plain_row_kernels():
    """first_nonassociative and generating_indices take plain rows and so
    build a fresh IndexTable, checked or walked again.  No module but
    exactlin names them: the others read first_failure and generators off
    the IndexTable that their structure holds."""
    kernels = {"first_nonassociative", "generating_indices"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "exactlin.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name in kernels]
    assert found == []
