"""Checks on the package source itself."""

import ast
from pathlib import Path

import polysweep

SRC = Path(polysweep.__file__).resolve().parent


def source_lines(predicate) -> list:
    """file:line of every syntax node of the package the predicate holds for."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if predicate(node)
    ]


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = source_lines(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"


def test_no_true_division():
    # an int / int is a float; a quotient of exact scalars is a Fraction
    found = source_lines(
        lambda node: isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
    )
    assert not found, f"true division (/ or /=) in the package: {found}"
