"""Seed-independent correctness checks on one job's standard output.

Each check tests a mathematical fact the answer must satisfy whatever
the input, rather than comparing with a stored answer: Euler's relation
on the f-vector, a c^d coefficient of 1 and nonnegative coefficients in
every cd-index, symmetric toric vectors starting at 1, a verified
partition whose block sizes follow 3^#c 4^#d, and every verify check
passed.  ``check`` returns None when the output passes, else the reason.

``verify`` and ``partition`` raise a cross-check failure and exit 3
before printing when one of their own checks fails, and ``run.judge``
counts exit 3 as a wrong answer; that is the gate for those checks.  The
checks on their printed output here only catch an output that claims
success while listing a failed check or an unverified partition.
"""

from __future__ import annotations

import json
from fractions import Fraction


def check(job, stdout: str) -> str | None:
    try:
        if ("--format", "table") in zip(job.options, job.options[1:]):
            return _check_table(job, stdout)
        obj = json.loads(stdout)
        if obj.get("command") != job.command or obj.get("schema") != 1:
            return "wrong command or schema in output"
        return CHECKS[job.command](job, obj)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed {job.command} output: {type(e).__name__}: {e}"


def _euler(job, f_vector) -> str | None:
    """f = (f_-1, f_0, ..., f_d): sum_{i<d} (-1)^i f_i = 1 - (-1)^d."""
    d = job.dim
    if len(f_vector) != d + 2 or f_vector[0] != 1 or f_vector[-1] != 1:
        return f"f-vector {f_vector} has the wrong shape"
    if f_vector[1] != len(job.vertices):
        return f"f-vector {f_vector} does not count the {len(job.vertices)} vertices"
    if sum((-1) ** i * f_vector[i + 1] for i in range(d)) != 1 - (-1) ** d:
        return f"f-vector {f_vector} violates Euler's relation"
    return None


def _cd(job, cd: dict) -> str | None:
    if cd.get("c" * job.dim) != 1:
        return f"coefficient of c^{job.dim} is not 1 in {cd}"
    if any(Fraction(v) < 0 for v in cd.values()):
        return f"negative cd coefficient in {cd}"
    return None


def _toric(vec) -> str | None:
    if not vec or vec[0] != 1 or list(vec) != list(reversed(vec)):
        return f"toric vector {vec} is not symmetric starting at 1"
    return None


def _describe(job, obj):
    if obj["dim"] != job.dim or obj["n_vertices"] != len(job.vertices):
        return "dimension or vertex count differs from the input"
    if obj["eulerian"] is not True:
        return "lattice reported not Eulerian"
    return _euler(job, obj["f_vector"])


def _flag(job, obj):
    f, h = obj["f"], obj["h"]
    full = set(range(job.dim))

    def complement(key):
        rest = full - {int(x) for x in key.split(",") if x}
        return ",".join(str(i) for i in sorted(rest))

    if f[""] != 1 or h[""] != 1 or f["0"] != len(job.vertices):
        return "flag f or h does not start with f_{} = h_{} = 1 and f_0 = n"
    bad = [k for k in h if h[k] != h[complement(k)]]
    return f"flag h not symmetric at {bad}" if bad else None


def _cdindex(job, obj):
    problem = _cd(job, obj["cd"])
    if problem or "per_vertex" not in obj:
        return problem
    total: dict = {}
    for part in obj["per_vertex"]:
        for w, v in part["cd"].items():
            total[w] = total.get(w, 0) + Fraction(v)
    if {w: v for w, v in total.items() if v} != {w: Fraction(v) for w, v in obj["cd"].items()}:
        return "per-vertex parts do not sum to the cd-index"
    return None


def _toric_cmd(job, obj):
    vec = obj["toric"]
    if len(vec) != job.dim + 1:
        return f"toric vector {vec} has the wrong length"
    return _toric(vec)


def _extended(job, obj):
    ext = obj["extended"]
    problem = _toric(ext["1"]) or _cd(job, obj["reconstructed_cd"])
    if problem:
        return problem
    bad = [w for w, v in ext.items() if list(v) != list(reversed(v))]
    return f"extended vectors not symmetric for {bad}" if bad else None


def _partition(job, obj):
    if obj["verified"] is not True:
        return "partition not verified"
    blocks = obj["blocks"]
    if sum(b["size"] for b in blocks) != obj["n_chains"]:
        return "block sizes do not add up to the number of chains"
    for b in blocks:
        w = b["word"].replace("1", "")
        if b["size"] != 3 ** w.count("c") * 4 ** w.count("d") or len(b["faces"]) != b["size"]:
            return f"block {b['word']} breaks the size law"
    return None


def _verify(job, obj):
    checks = obj["checks"]
    failed = [c["name"] for c in checks if c["pass"] is not True]
    if not checks or failed:
        return f"verify checks failed: {failed}"
    return None


CHECKS = {
    "describe": _describe,
    "flag": _flag,
    "cdindex": _cdindex,
    "toric": _toric_cmd,
    "extended": _extended,
    "partition": _partition,
    "verify": _verify,
}


# ---------------------------------------------------------------------------
# Table output: only the top-level "key: value" lines are read.


def _check_table(job, stdout: str) -> str | None:
    top = {}
    for line in stdout.splitlines():
        if line and not line[0].isspace() and ": " in line:
            k, v = line.split(": ", 1)
            top[k] = v
    if top.get("command") != job.command:
        return "table output lacks the command line"
    if job.command == "describe":
        f_vector = [int(x) for x in top["f_vector"].strip("[]").split(",")]
        return _euler(job, f_vector)
    if job.command == "cdindex":
        cd = dict(kv.split("=") for kv in top["cd"].split(", "))
        return _cd(job, {w: int(v) if "/" not in v else v for w, v in cd.items()})
    if job.command == "toric":
        return _toric([int(x) for x in top["toric"].strip("[]").split(",")])
    if job.command == "partition":
        return None if top.get("verified") == "True" else "partition not verified"
    return f"no table check for {job.command}"
