"""Byte-for-byte guard on the CLI output over a fixed corpus.

Each invocation runs `polysweep.cli.main` in process; its exit code,
stdout and stderr are hashed together with sha256 and compared with
`tests/data/cli_corpus.json`.  The hull of each input is computed once
and every invocation gets a fresh copy of its lattice, with an empty
memo, so everything past the hull is recomputed per invocation.

After an intended change of the output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_corpus.py

and say in CHANGES.md which outputs changed and why.  The names, order
and values of verify's checks are frozen beyond this file:
`bench/digests.json` pins the first five default-seed outputs of each
benchmark workload byte for byte, and every `verify-small` job is
`verify`.  A check added, renamed or moved makes the benchmark mark
its runs incorrect (`"correct": false`), so it waits for a change that
rewrites those digests together with the benchmark.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import polysweep.cli as cli
import polysweep.polytope as polytope
from cli_compare import DIRECTIONS

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

# the builtin specs of dimension <= 3 named in the tests and README,
# plus four 4-polytopes: two simple or simplicial, and two that are
# neither
SPECS = {
    "point": 0, "simplex:0": 0,
    "segment": 1, "cube:1": 1, "simplex:1": 1,
    "simplex:2": 2, "cube:2": 2, "cross:2": 2, "polygon:3": 2,
    "polygon:5": 2, "polygon:6": 2, "polygon:7": 2, "polygon:8": 2,
    "simplex:3": 3, "cube:3": 3, "cross:3": 3,
    "pyramid:polygon:4": 3, "pyramid:polygon:5": 3,
    "prism:polygon:3": 3, "prism:polygon:5": 3, "prism:polygon:6": 3,
    "cube:4": 4, "cross:4": 4, "pyramid:cube:3": 4, "prism:cross:3": 4,
}

COMMANDS = (
    ("cdindex", "--method", "sweep"),
    ("cdindex", "--method", "symmetric"),
    ("cdindex", "--method", "sweep", "--deep-sweep"),
    ("toric", "--method", "sweep"),
    ("toric", "--method", "sweep", "--deep-sweep"),
    ("toric", "--method", "symmetric"),
    ("partition",),
    ("verify",),
)

# verify --deep-sweep re-sweeps every figure and section by its
# coordinates; it runs on every spec above
DEEP = ("verify", "--deep-sweep")

# partition and verify above the default --max-dim, on two 5-polytopes,
# where the partition recurses two levels deeper than at d = 4; on them
# too the recursive cd and toric sweeps, by default and deep
MAX_DIM_5 = ("simplex:5", "pyramid:cross:4")
SWEEPS_5 = tuple(cmd for cmd in COMMANDS if "sweep" in cmd)


def invocations() -> list:
    out = []
    for spec, dim in SPECS.items():
        for cmd in COMMANDS:
            out.append((*cmd, "--input", spec))
            if dim:
                out.append((*cmd, "--input", spec, f"--direction={DIRECTIONS[dim]}"))
        out.append((*DEEP, "--input", spec))
        if dim:
            out.append((*DEEP, "--input", spec, f"--direction={DIRECTIONS[dim]}"))
    for spec in MAX_DIM_5:
        for cmd in ("partition", "verify"):
            out.append((cmd, "--max-dim", "5", "--input", spec))
        for cmd in SWEEPS_5:
            out.append((*cmd, "--input", spec))
    return out


@contextlib.contextmanager
def cached_hulls():
    hulls = {}
    real = polytope.hull_lattice

    def hull_lattice(v):
        if v not in hulls:
            hulls[v] = real(v)
        l = hulls[v]
        return polytope.FaceLattice(
            l.dim, zip(l.masks, l.dims), coords=l.coords, facets=l.facets
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "hull_lattice", hull_lattice)
        mp.setattr(cli, "hull_lattice", hull_lattice)
        yield


def digest(argv) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_invocation():
    assert sorted(_load()) == sorted(" ".join(a) for a in invocations())


@pytest.mark.parametrize("spec", [*SPECS, *MAX_DIM_5])
def test_cli_output_is_unchanged(spec):
    golden = _load()
    with cached_hulls():
        changed = [
            " ".join(argv)
            for argv in invocations()
            if argv[argv.index("--input") + 1] == spec
            and digest(argv) != golden[" ".join(argv)]
        ]
    assert not changed, f"CLI output changed for: {changed}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with cached_hulls():
        table = {" ".join(argv): digest(argv) for argv in invocations()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
