"""Compare the CLI output of two checkouts on a fixed corpus.

    python3 tests/cli_compare.py OLD_CHECKOUT NEW_CHECKOUT

The corpus is 746 invocations: the 29 builtin specs named in `tests/`
and README, each with describe, flag, extended, every cdindex and toric
method, the recursive cdindex and toric sweeps with `--deep-sweep`,
partition and verify (JSON and table); for dimension >= 1 the sweep
methods, partition and verify again with a `--direction=...`; for
dimension <= 4 `verify --deep-sweep`, and for dimension 4 again with a
`--direction=...`; for dimension 5, whose partition cuts 3-dimensional
sections, partition and verify with `--max-dim 5`, with and without a
`--direction=...`.

Each checkout runs in its own Python process with its `src/` first on
the path, calling `polysweep.cli.main` in process for every invocation
and recording the exit code, stdout and stderr.  The script prints the
number of byte-identical invocations, names every one that differs and
shows both outputs of the first, so that an intended change can be
checked to be exactly the expected set; it exits 1 if any differs.  Its
name does not start with `test_`, so pytest does not collect it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SPECS = {
    "point": 0, "simplex:0": 0,
    "segment": 1, "cube:1": 1, "simplex:1": 1,
    "simplex:2": 2, "cube:2": 2, "cross:2": 2, "polygon:3": 2,
    "polygon:5": 2, "polygon:6": 2, "polygon:7": 2, "polygon:8": 2,
    "simplex:3": 3, "cube:3": 3, "cross:3": 3,
    "pyramid:polygon:4": 3, "pyramid:polygon:5": 3,
    "prism:polygon:3": 3, "prism:polygon:5": 3, "prism:polygon:6": 3,
    "cube:4": 4, "cross:4": 4, "simplex:4": 4, "pyramid:cube:3": 4,
    "prism:cross:3": 4, "product:cube:2:polygon:3": 4,
    "product:simplex:2:simplex:2": 4, "simplex:5": 5,
}

DIRECTIONS = {
    1: "-3",
    2: "-3,7/2",
    3: "-3,7/2,11/5",
    4: "-3,7/2,11/5,13/7",
    5: "-3,7/2,11/5,13/7,17/3",
}

COMMANDS = (
    ("describe",),
    ("flag",),
    ("extended",),
    ("cdindex",),
    ("cdindex", "--method", "flag"),
    ("toric", "--method", "def"),
    ("toric", "--method", "cd"),
)

DIRECTED = (
    ("cdindex", "--method", "sweep"),
    ("cdindex", "--method", "symmetric"),
    ("cdindex", "--method", "sweep", "--deep-sweep"),
    ("toric", "--method", "sweep"),
    ("toric", "--method", "sweep", "--deep-sweep"),
    ("toric", "--method", "symmetric"),
    ("partition",),
    ("verify",),
    ("verify", "--format", "table"),
)


def invocations() -> list:
    out = []
    for spec, dim in SPECS.items():
        for cmd in COMMANDS + DIRECTED:
            out.append((*cmd, "--input", spec))
        if dim:
            for cmd in DIRECTED:
                out.append((*cmd, "--input", spec, f"--direction={DIRECTIONS[dim]}"))
        if dim <= 4:
            out.append(("verify", "--deep-sweep", "--input", spec))
        if dim == 4:
            out.append(("verify", "--deep-sweep", "--input", spec,
                        f"--direction={DIRECTIONS[dim]}"))
        if dim == 5:
            for cmd in ("partition", "verify"):
                out.append((cmd, "--max-dim", "5", "--input", spec))
                out.append((cmd, "--max-dim", "5", "--input", spec,
                            f"--direction={DIRECTIONS[dim]}"))
    return out


def run_all() -> list:
    """[exit code, stdout, stderr] per invocation, in this process."""
    import polysweep.cli as cli

    results = []
    for argv in invocations():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:
                code = e.code
            except Exception as e:  # a crash is an output to compare too
                code = f"raised {type(e).__name__}: {e}"
        results.append([code, stdout.getvalue(), stderr.getvalue()])
    return results


def start(checkout: str) -> subprocess.Popen:
    src = str(Path(checkout).resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen(
        [sys.executable, __file__, "--run"], env=env, stdout=subprocess.PIPE, text=True
    )


def main(argv) -> int:
    if argv == ["--run"]:
        json.dump(run_all(), sys.stdout)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    procs = [start(path) for path in argv]
    outputs = []
    for path, proc in zip(argv, procs):
        out, _ = proc.communicate()
        if proc.returncode:
            print(f"{path}: the corpus run exited with {proc.returncode}", file=sys.stderr)
            return 2
        outputs.append(json.loads(out))
    old, new = outputs
    calls = invocations()
    differ = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    print(f"{len(calls) - len(differ)}/{len(calls)} invocations byte-identical")
    if differ:
        for i in differ:
            print("differs: polysweep " + " ".join(calls[i]))
        i = differ[0]
        print("first difference: polysweep " + " ".join(calls[i]))
        for path, result in zip(argv, (old[i], new[i])):
            print(f"--- {path}: exit {result[0]}\n{result[1]}{result[2]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
