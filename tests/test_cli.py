import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import polysweep
from conftest import vec, vrep_to_json
from polysweep.cli import main, parse_input
from polysweep.errors import InputError
from polysweep.exactnum import MAX_NUMERAL_DIGITS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse_builtins():
    assert parse_input("cube:3").dim == 3
    assert parse_input("pyramid:polygon:4").dim == 3
    assert parse_input("product:cube:2:polygon:3").dim == 4
    assert parse_input("prism:cross:3").dim == 4
    assert parse_input("point").dim == 0
    assert parse_input("segment").dim == 1
    with pytest.raises(InputError):
        parse_input("pentagon")
    with pytest.raises(InputError):
        parse_input("cube:3:junk")


def test_cdindex_sweep_pentagon(capsys):
    code, obj = run_json(
        capsys, "cdindex", "--input", "polygon:5", "--method", "sweep"
    )
    assert code == 0
    assert obj["schema"] == 1
    assert obj["cd"] == {"cc": 1, "d": 3}
    assert len(obj["per_vertex"]) == 5
    assert obj["per_vertex"][0]["cd"] == {"cc": 1}
    assert obj["per_vertex"][-1]["cd"] == {}


def test_toric_methods_agree(capsys):
    # the polar of a point, which the sweep methods sweep, is the point
    for spec, expected in (("cube:3", [1, 5, 5, 1]), ("point", [1])):
        results = []
        for method in ("def", "cd", "sweep", "symmetric"):
            code, obj = run_json(
                capsys, "toric", "--input", spec, "--method", method
            )
            assert code == 0
            results.append(obj["toric"])
        assert all(r == expected for r in results), spec


def test_extended(capsys):
    code, obj = run_json(capsys, "extended", "--input", "cross:3")
    assert code == 0
    assert obj["extended"] == {"1": [1, 3, 3, 1], "d": [6, 6], "dc": [4]}


def test_partition(capsys):
    code, obj = run_json(capsys, "partition", "--input", "polygon:5")
    assert code == 0
    assert obj["verified"] is True
    assert sorted(b["word"] for b in obj["blocks"]) == ["cc", "d", "d", "d"]
    assert [b["size"] for b in obj["blocks"]] == [9, 4, 4, 4]


def test_partition_dimension_gate(capsys):
    code = main(["partition", "--input", "cube:3", "--max-dim", "2"])
    assert code == 2


@pytest.mark.parametrize("command", ["partition", "verify"])
@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_max_dim_is_rejected(capsys, command, value):
    # a negative cap would skip verify's partition check without a word
    assert main([command, "--input", "cube:2", "--max-dim", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-dim must be at least 0, not {value}\n"


def test_verify_passes(capsys):
    code, obj = run_json(capsys, "verify", "--input", "pyramid:polygon:4")
    assert code == 0
    assert all(c["pass"] for c in obj["checks"])


def test_verify_degenerate_dimensions(capsys):
    for spec in ("point", "segment", "polygon:3"):
        code, obj = run_json(capsys, "verify", "--input", spec)
        assert code == 0, spec
        assert all(c["pass"] for c in obj["checks"])


def test_flag_command(capsys):
    code, obj = run_json(capsys, "flag", "--input", "polygon:5")
    assert code == 0
    assert obj["f"] == {"": 1, "0": 5, "1": 5, "0,1": 10}
    assert obj["h"] == {"": 1, "0": 4, "1": 4, "0,1": 1}
    assert obj["ab"] == {"aa": 1, "ab": 4, "ba": 4, "bb": 1}


def test_verify_simple_polytope_includes_baseline(capsys):
    code, obj = run_json(capsys, "verify", "--input", "cube:3")
    assert code == 0
    names = [c["name"] for c in obj["checks"]]
    assert any("outdegree" in n for n in names)


def test_describe_table(capsys):
    code, out = run(capsys, "describe", "--input", "polygon:5", "--format", "table")
    assert code == 0
    assert "f_vector: [1, 5, 5, 1]" in out


def test_bad_direction_exit_2(capsys):
    code = main(["cdindex", "--input", "cube:2", "--method", "sweep",
                 "--direction", "1,0"])
    assert code == 2


@pytest.mark.parametrize(
    "command",
    [
        "cdindex --method sweep",
        "cdindex --method symmetric",
        "toric --method sweep",
        "partition",
        "verify",
    ],
)
def test_short_direction_exit_2(capsys, command):
    code = main(command.split() + ["--input", "cube:3", "--direction", "1,2"])
    assert code == 2
    assert "direction has 2 entries" in capsys.readouterr().err


def test_float_coordinate_exit_2(tmp_path, capsys):
    path = tmp_path / "tri.json"
    path.write_text('{"dim": 2, "vertices": [[0.1, 0], [1, 0], [0, 1]]}')
    assert main(["describe", "--input", str(path)]) == 2
    assert '"1/10"' in capsys.readouterr().err
    path.write_text('{"dim": 2, "vertices": [["0.1", 0], [1, 0], [0, 1]]}')
    assert main(["describe", "--input", str(path)]) == 0
    capsys.readouterr()
    path.write_text('{"dim": 2, "vertices": [["1/0", 0], [1, 0], [0, 1]]}')
    assert main(["describe", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read polytope file")
    # the dimension is held to the same contract as the coordinates
    for dim in ("2.5", "true", '"2"'):
        path.write_text('{"dim": %s, "vertices": [[0, 0], [1, 0], [0, 1]]}' % dim)
        assert main(["describe", "--input", str(path)]) == 2
        assert "is not a JSON integer" in capsys.readouterr().err


def test_non_vertex_point_exit_2(tmp_path, capsys):
    from polysweep.polytope import VRep

    bad = VRep(2, (vec(0, 0), vec(2, 0), vec(0, 2), vec(2, 2), vec(1, 1)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(vrep_to_json(bad)))
    code = main(["describe", "--input", str(path)])
    assert code == 2


def test_file_input_roundtrip(tmp_path, capsys):
    from polysweep.polytope import make_polygon

    path = tmp_path / "pent.json"
    path.write_text(json.dumps(vrep_to_json(make_polygon(5))))
    code, obj = run_json(capsys, "cdindex", "--input", str(path))
    assert code == 0 and obj["cd"] == {"cc": 1, "d": 3}


def test_output_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["toric", "--input", "polygon:7", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["toric"] == [1, 5, 1]


def test_direction_with_fractions(capsys):
    code, obj = run_json(
        capsys, "cdindex", "--input", "pyramid:polygon:4",
        "--method", "symmetric", "--direction", "1,0,1/4",
    )
    assert code == 0
    assert obj["cd"] == {"ccc": 1, "cd": 3, "dc": 3}
    apex = obj["per_vertex"][2]
    assert apex["cd"] == {"cd": 1, "dc": 1}
    assert obj["per_vertex"][0]["cd"] == {"ccc": "1/2", "cd": "1/2"}


def test_deep_sweep_flag(capsys):
    code, obj = run_json(
        capsys, "cdindex", "--input", "cube:3", "--method", "sweep",
        "--deep-sweep",
    )
    assert code == 0
    assert obj["cd"] == {"ccc": 1, "dc": 6, "cd": 4}


def cli_process(*args, flags=(), memory=None):
    """A subprocess running the CLI of this checkout, stdout and stderr
    piped; memory caps its address space in bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(polysweep.__file__).parents[1])}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory, memory))

    return subprocess.Popen(
        [sys.executable, *flags, "-m", "polysweep.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=cap if memory else None,
    )


@pytest.mark.parametrize(
    "spec, count", [("cube:28", "2^28"), ("product:cube:7:cube:6", "8192")]
)
def test_oversized_builtin_exit_2(spec, count):
    # capped and timed, so that building every vertex fails instead of
    # filling the memory or running on
    proc = cli_process("describe", "--input", spec, memory=1 << 30)
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err.decode() == (
        f"error: {spec} has {count} vertices; builtin inputs may have at most 4096\n"
    )


HUGE_NUMERALS = ["1e5000", "1e200000000"]


def _triangle_with(token: str) -> dict:
    return {"dim": 2, "vertices": [["0", "0"], [token, "0"], ["0", "1"]]}


@pytest.mark.parametrize("token", HUGE_NUMERALS)
@pytest.mark.parametrize("place", ["direction", "coordinate"])
def test_huge_numeral_exit_2(tmp_path, place, token):
    # timed: read in full, 1e5000 cannot be printed as a height and
    # 1e200000000 takes minutes to expand
    if place == "direction":
        source = ["--input", "polygon:5", "--direction", f"{token},1"]
    else:
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(_triangle_with(token)))
        source = ["--input", str(path)]
    proc = cli_process("cdindex", "--method", "sweep", *source)
    try:
        _, err = proc.communicate(timeout=10)
    finally:
        proc.kill()
    err = err.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert f"at most {MAX_NUMERAL_DIGITS} digits" in err


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_closed_stdout_exit_2(fmt):
    # the reader goes away before the command writes anything
    proc = cli_process("verify", "--input", "cube:3", "--format", fmt)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err.startswith("error: cannot write standard output: ")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_oversized_number_in_the_result_exit_2(monkeypatch, tmp_path, capsys, fmt):
    # 10**5000 is past Python's 4300-digit limit on int to str; the
    # result is rendered whole before anything is written
    monkeypatch.setitem(polysweep.cli.COMMANDS, "describe", lambda lat, args: {"n": 10**5000})
    target = tmp_path / "res.json"
    for extra in (["--format", fmt], ["--format", fmt, "--output", str(target)]):
        code = main(["describe", "--input", "point", *extra])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: the result cannot be printed: ")
        assert not target.exists()


def test_oversized_height_exit_2(monkeypatch, capsys):
    # the heights are printed as strings while the result is built
    monkeypatch.setattr(polysweep.cli, "parse_direction", lambda text: (10**5000, 1))
    code = main(["cdindex", "--method", "sweep", "--input", "polygon:5", "--direction", "1,1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: the result cannot be printed: ")


def test_optimized_interpreter_prints_the_same():
    # invariants are explicit raises, so python -O changes nothing
    runs = []
    for flags in ((), ("-O",)):
        proc = cli_process("verify", "--input", "pyramid:polygon:4", flags=flags)
        out, err = proc.communicate()
        runs.append((proc.returncode, out, err))
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


def test_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["describe", "--input", "cube:3", "--output", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", ["cdindex --method sweep", "toric --method symmetric", "partition"]
)
def test_negative_direction_as_separate_argument(capsys, command):
    joined = main(command.split() + ["--input", "polygon:5", "--direction=-3,4"])
    expected = capsys.readouterr()
    split = main(command.split() + ["--input", "polygon:5", "--direction", "-3,4"])
    assert (split, capsys.readouterr()) == (joined, expected)
    assert joined == 0


@pytest.mark.parametrize("value", ["-3,x", "-3", "-3,1/0"])
def test_malformed_negative_direction_exit_2(capsys, value):
    # -3 has too few entries for a polygon; -3,x and -3,1/0 are not
    # rational lists
    code = main(["cdindex", "--method", "sweep", "--input", "polygon:5",
                 "--direction", value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, message",
    [
        ("cdindex --method def", "cdindex method must be one of flag, sweep, symmetric"),
        ("describe --method flag", "describe takes no --method"),
    ],
)
def test_method_outside_the_command_exit_2(capsys, command, message):
    assert main(command.split() + ["--input", "cube:2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# Malformed input: exit 0 or 2, never an exception.

COORDINATES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["0", "1/2", "-3/4", "x", "", "1/0", "2e1", " 1 "]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-1, 1), max_size=2),
)
DOCUMENTS = st.fixed_dictionaries({
    "dim": st.integers(-1, 3),
    "vertices": st.lists(st.lists(COORDINATES, max_size=4), max_size=6),
})

SIZES = st.integers(-1, 5) | st.integers(10**6, 10**12)
NAMES = ("simplex", "cube", "cross", "crosspolytope", "polygon")


def _sized(sizes):
    return st.builds("{}:{}".format, st.sampled_from(NAMES), sizes)


# The hull has no time admission yet, so a product or prism takes only
# sizes up to 2 (or huge ones, which the size check refuses), and the
# 30-second cube:5 is left out.
LEAVES = _sized(SIZES).filter(lambda s: s != "cube:5") | st.sampled_from(
    ["point", "segment", "cube", "cube:x", "pentagon", "", "cube:2:junk"]
)
SMALL = _sized(st.integers(-1, 2) | st.integers(10**6, 10**12)) | st.just("point")
SPECS = st.one_of(
    LEAVES,
    st.builds("pyramid:{}".format, SMALL),
    st.builds("prism:{}".format, SMALL),
    st.builds("product:{}:{}".format, SMALL, SMALL),
)
DIRECTIONS = st.none() | st.lists(
    st.sampled_from(["1", "-3", "1/2", "0", "x", "1/0", "", " 2", "-"]), max_size=5
).map(",".join)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from([["describe"], ["cdindex", "--method", "sweep"]]),
    source=SPECS | DOCUMENTS,
    direction=DIRECTIONS,
)
@example(command=["describe"], source="cube:28", direction=None)
@example(command=["cdindex", "--method", "sweep"], source="polygon:5", direction="1e5000,1")
@example(command=["cdindex", "--method", "sweep"], source=_triangle_with("1e5000"), direction=None)
@example(command=["cdindex", "--method", "sweep"], source="polygon:5", direction="1e200000000,1")
@example(command=["cdindex", "--method", "sweep"], source=_triangle_with("1e200000000"), direction=None)
# past the recursion limit of the JSON decoder and of the spec parser; a
# bytes source is written to the file as it is
@example(command=["describe"], source=b"[" * 100_000 + b"]" * 100_000, direction=None)
@example(command=["describe"], source="pyramid:" * 1500 + "point", direction=None)
def test_malformed_input_exit_0_or_2(command, source, direction):
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(source, str):
            path = os.path.join(tmp, "input.json")
            with open(path, "wb") as f:
                f.write(source if isinstance(source, bytes) else json.dumps(source).encode())
            source = path
        argv = command + ["--input", source]
        if direction is not None:
            argv += ["--direction", direction]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse refusing an argument
                code = e.code
    event(f"exit {code}")  # the spread shows under --hypothesis-show-statistics
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 2, "vertices": ["00", "10", "01"]}',  # strings are iterable
        '{"dim": 2, "vertices": {"00": 0, "10": 1, "01": 2}}',  # so are objects
        '{"dim": 1, "vertices": "02"}',
        '[{"dim": 1, "vertices": [[0], [2]]}]',
    ],
)
def test_json_of_the_wrong_shape_exit_2(tmp_path, capsys, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main(["describe", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read polytope file")
    assert '{"dim": d, "vertices": [[x_1, ..., x_d], ...]}' in err
