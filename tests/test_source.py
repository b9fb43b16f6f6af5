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


def fraction_calls(path) -> list:
    """(enclosing top-level name, source) of every Fraction(...) call in
    the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (getattr(top, "name", None), ast.unparse(node))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_no_fraction_in_the_cuts():
    # figures and sections are cut in integers, so a rational input's
    # Fractions stay at its own level; the one Fraction the sweeps build
    # is the 1/2 of the direction-averaged sweep
    found = [(name, *call) for name in ("sweep.py", "truncpartition.py")
             for call in fraction_calls(SRC / name)]
    assert found == [("sweep.py", "cd_sweep_symmetric", "Fraction(1, 2)")]


DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
ALGEBRAS = ("ALGEBRA", "SweepAlgebra")


def test_one_sweep_engine_over_cd_polynomials():
    # the toric sweeps read the cd sweep's parts as vectors, so toric.py
    # takes from sweep.py only the module and the direction type, and no
    # second algebra of values is carried through the recursion
    tree = ast.parse((SRC / "toric.py").read_text(), filename="toric.py")
    imported = sorted(
        (node.module or "", alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if node.module == "sweep" or alias.name == "sweep"
    )
    assert imported == [("", "sweep"), ("sweep", "SweepDirection")]
    algebras = source_lines(
        lambda node: (isinstance(node, DEFINITIONS) and node.name.endswith(ALGEBRAS))
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id.endswith(ALGEBRAS))
    )
    assert not algebras, f"sweep algebras in the package: {algebras}"


CHAIN_COUNTERS = {"flagvec.py": {"flag_f"}, "sweep.py": {"_upper_sum", "_section_cd"}}


def test_one_chain_recursion():
    # the flag f-vector, the sweeps' upper parts, stars and sections are
    # all chain counts of flagvec.chain_counts, so no function reading
    # them holds a loop of its own
    for name, counters in CHAIN_COUNTERS.items():
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found = set()
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in counters:
                inner = list(ast.walk(node))
                loops = [n for n in inner if isinstance(n, (ast.For, ast.While, ast.comprehension))]
                assert not loops, f"{name} {node.name} loops at line {loops[0].lineno}"
                assert "chain_counts" in referenced_names(node), f"{name} {node.name}"
                found.add(node.name)
        assert found == counters


def test_one_rank_per_hull():
    # a face's dimension is its level below the polytope, so the hull
    # ranks its rows once, for the full-dimensionality check, and no
    # loop, comprehension or inner function of it can rank a face
    tree = ast.parse((SRC / "polytope.py").read_text(), filename="polytope.py")
    (hull,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "hull_lattice"]
    inner = (ast.For, ast.While, ast.comprehension, ast.FunctionDef, ast.Lambda)
    nested = {id(n) for scope in ast.walk(hull) if isinstance(scope, inner) and scope is not hull
              for n in ast.walk(scope)}
    ranks = [n for n in ast.walk(hull)
             if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "matrix_rank"]
    assert len(ranks) == 1, f"hull_lattice calls matrix_rank {len(ranks)} times"
    assert id(ranks[0]) not in nested, f"matrix_rank in a loop at line {ranks[0].lineno}"


def test_hull_rows_are_made_primitive_once():
    # each point's row is scaled to integers and divided by its content
    # before the subset loop, which hands the rows to the kernel as they
    # are: in the loop no row, nor a name bound to rows by a loop or a
    # comprehension, is scaled, multiplied, floor-divided or given to gcd
    tree = ast.parse((SRC / "polytope.py").read_text(), filename="polytope.py")
    (hull,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "hull_lattice"]
    (loop,) = [n for n in ast.walk(hull)
               if isinstance(n, ast.For) and "combinations" in ast.unparse(n.iter)]
    row_names = {"rows"}
    for _ in range(3):  # names bound by iterating rows, or a subset of them
        row_names |= {name.id for n in ast.walk(loop) if isinstance(n, (ast.For, ast.comprehension))
                      and row_names & set(referenced_names(n.iter))
                      for name in ast.walk(n.target) if isinstance(name, ast.Name)}

    def reads_a_row(node) -> bool:
        return bool(row_names & set(referenced_names(node)))

    found = [
        ast.unparse(n) for n in ast.walk(loop)
        if (isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("integer_multiple", "primitive"))
        or (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "gcd" and reads_a_row(n))
        or (isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.FloorDiv))
            and reads_a_row(n))
    ]
    assert not found, f"hull_lattice scales rows in its subset loop: {found}"
    contents = [n for n in ast.walk(hull) if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) in ("gcd", "primitive") and n.lineno < loop.lineno]
    assert contents, "hull_lattice takes no content before its subset loop"


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


def test_the_cli_runs_no_route_and_checks_nothing_itself():
    # a route is a row of verify.ROUTES, and the library checks it: the
    # deep sweep its total, verify.extended the round trip; the CLI turns
    # only a failed verify or partition report into a CrossCheckError
    from polysweep import cli, verify

    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    routes = {"cd_sweep", "cd_sweep_symmetric", "toric_sweep", "toric_sweep_symmetric",
              "toric_h_definition", "toric_from_cd", "polar_lattice", "reconstruct_cd"}
    assert not routes & set(referenced_names(tree))
    raising = [
        top.name for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CrossCheckError"
    ]
    assert raising == ["cmd_partition", "cmd_verify"]
    # no method is spelled out, bar those that are also a command or a printed key
    methods = {m for routes in verify.ROUTES.values() for m in routes}
    methods -= {*cli.COMMANDS, *(key for key, _ in cli._PRINTED_AS.values())}
    spelled = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert methods and not methods & spelled


def test_verify_reads_every_compared_value_off_the_route_table():
    # run_verification compares rows of verify.ROUTES and calls no route
    # itself; the quantities only it reads are no commands of the CLI
    from polysweep import cli, verify

    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    body = next(node for node in tree.body if getattr(node, "name", None) == "run_verification")
    routes = {"cd_sweep", "cd_sweep_symmetric", "toric_sweep", "toric_sweep_symmetric",
              "toric_h_definition", "toric_from_cd", "toric_dual_h", "polar_lattice", "dual",
              "simple_h_by_outdegree"}
    assert not routes & set(referenced_names(body))
    verify_only = set(verify.ROUTES) - set(cli._PRINTED_AS)
    assert verify_only and not verify_only & set(cli.COMMANDS)
