"""Checks on the package source itself."""

import ast
from collections import Counter
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


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def referenced_names(tree) -> Counter:
    """How often each identifier is read in the tree, as a name, an
    attribute or an import; strings, comments and definitions do not count."""
    return Counter(
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_public_name_is_used_in_the_package():
    # a public function, class or method that only the tests use belongs
    # in tests/ as an oracle or a helper; __init__ only re-exports
    defined, refs = {}, Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(referenced_names(tree))
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top, *members]:
                if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                    refs[node.name] -= referenced_names(node)[node.name]
    unused = sorted(f"{where} {name}" for name, where in defined.items() if refs[name] <= 0)
    assert not unused, f"public names only the tests use: {unused}"
