"""Certification checks must survive ``python -O``, which strips asserts."""

import ast
import pathlib

import fcomplete

PACKAGE = pathlib.Path(fcomplete.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in fcomplete: {found}"
