"""Batch command-line front end.

Commands: describe, flag, cdindex, toric, extended, partition, verify.
Inputs are either a JSON file ({"dim": d, "vertices": [["0","1/2"],...]})
or a builtin spec such as cube:3, polygon:7, pyramid:polygon:4,
product:cube:2:polygon:3.

Exit codes: 0 success; 2 invalid input (non-generic direction, points
that are not vertices, non-Eulerian data, bad spec); 3 internal
cross-check failure -- independent routes disagreed, which is a bug and
aborts loudly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import verify
from .errors import CrossCheckError, InputError, NotCDExpressible, NotInImage
from .exactnum import exact
from .flagvec import ab_index, cd_index, flag_f, flag_h
from .polytope import (
    FaceLattice,
    VRep,
    bits,
    hull_lattice,
    is_eulerian,
    lattice_to_json,
    load_vrep,
    make_crosspolytope,
    make_cube,
    make_polygon,
    make_simplex,
    polar_lattice,
    prism,
    product,
    pyramid,
)
from .sweep import cd_sweep, cd_sweep_symmetric, choose_direction
from .toric import (
    extended_toric,
    reconstruct_cd,
    toric_from_cd,
    toric_h_definition,
    toric_sweep,
    toric_sweep_symmetric,
)
from .truncpartition import checked_partition

SCHEMA = 1


def parse_input(spec: str) -> VRep:
    if os.path.exists(spec) or spec.endswith(".json"):
        try:
            return load_vrep(spec)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as e:
            raise InputError(f"cannot read polytope file {spec!r}: {e}") from e
    tokens = spec.split(":")
    if sum(t in ("pyramid", "prism", "product") for t in tokens) > MAX_NESTING:
        raise InputError(f"input spec nests more than {MAX_NESTING} constructions")
    vrep, rest = _parse_spec(tokens)
    if rest:
        raise InputError(f"trailing tokens in input spec: {rest}")
    return vrep


# Far above what the hull answers (cube:7, 128 vertices, does not
# finish); it stops a spec such as cube:28 before its vertices are built.
MAX_VERTICES = 4096
# Constructions, each a level of recursion in _parse_spec, whatever Python's limit.
MAX_NESTING = 100

_SIZED = {
    "simplex": (make_simplex, lambda n: n + 1),
    "cube": (make_cube, lambda n: 2 ** n),
    "cross": (make_crosspolytope, lambda n: 2 * n),
    "crosspolytope": (make_crosspolytope, lambda n: 2 * n),
    "polygon": (make_polygon, lambda n: n),
}


def _parse_spec(tokens: list) -> tuple[VRep, list]:
    if not tokens:
        raise InputError("empty input spec")
    head, rest = tokens[0], tokens[1:]
    if head == "point":
        return make_simplex(0), rest
    if head == "segment":
        return make_cube(1), rest
    if head in _SIZED:
        if not rest:
            raise InputError(f"{head} needs a size argument")
        try:
            n = int(rest[0])
        except ValueError:
            raise InputError(f"bad size {rest[0]!r} for {head}") from None
        maker, count = _SIZED[head]
        if head == "cube" and n >= MAX_VERTICES.bit_length():
            # compare n itself: 2^n is never computed for a large n
            raise _too_many(tokens, rest[1:], f"2^{n}")
        _admit(tokens, rest[1:], count(n))
        try:
            return maker(n), rest[1:]
        except ValueError as e:
            raise InputError(str(e)) from None
    if head == "pyramid":
        base, rest2 = _parse_spec(rest)
        _admit(tokens, rest2, len(base.vertices) + 1)
        return pyramid(base), rest2
    if head == "prism":
        base, rest2 = _parse_spec(rest)
        _admit(tokens, rest2, 2 * len(base.vertices))
        return prism(base), rest2
    if head == "product":
        a, rest2 = _parse_spec(rest)
        b, rest3 = _parse_spec(rest2)
        _admit(tokens, rest3, len(a.vertices) * len(b.vertices))
        return product(a, b), rest3
    raise InputError(f"unknown builtin {head!r}")


def _admit(tokens: list, rest: list, count) -> None:
    """Raise unless the spec read off tokens, up to rest, has at most
    MAX_VERTICES vertices; called before the spec is built."""
    if count > MAX_VERTICES:
        raise _too_many(tokens, rest, count)


def _too_many(tokens: list, rest: list, count) -> InputError:
    spec = ":".join(tokens[: len(tokens) - len(rest)])
    return InputError(
        f"{spec} has {count} vertices; builtin inputs may have at most {MAX_VERTICES}"
    )


def parse_direction(text: str):
    try:
        return tuple(exact(x.strip()) for x in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad direction {text!r}") from None


def _sweep_order(s):
    return sorted(range(len(s.heights)), key=lambda i: s.heights[i])


def _per_vertex(s, per: dict, name: str, fmt) -> list:
    """Each vertex's part in sweep order, with the vertex's height."""
    return [
        {"vertex": vi, "height": _printed(str, s.heights[vi]), name: fmt(per[vi])}
        for vi in _sweep_order(s)
    ]


def _fmt_vec(h) -> list:
    return [str(x) if isinstance(x, Fraction) else x for x in h]


def _subset_key(mask: int) -> str:
    return ",".join(map(str, bits(mask)))


# ---------------------------------------------------------------------------
# Commands.  Each returns a JSON-able payload.


def cmd_describe(lat: FaceLattice, args) -> dict:
    return {
        "dim": lat.dim,
        "n_vertices": lat.n_vertices,
        "f_vector": list(lat.f_vector()),
        "eulerian": is_eulerian(lat),
        "simple": lat.is_simple(),
        "lattice": lattice_to_json(lat),
    }


def cmd_flag(lat: FaceLattice, args) -> dict:
    f = flag_f(lat)
    h = flag_h(f)
    order = sorted(range(1 << lat.dim), key=lambda m: (m.bit_count(), list(bits(m))))
    return {
        "f": {_subset_key(m): f.values[m] for m in order},
        "h": {_subset_key(m): h.values[m] for m in order},
        "ab": {w or "1": c for w, c in ab_index(h).items()},
    }


def cmd_cdindex(lat: FaceLattice, args) -> dict:
    method = args.method or "flag"
    if method == "flag":
        return {"method": method, "cd": cd_index(lat).to_json()}
    s = choose_direction(args.direction, lat.coords)
    if method == "sweep":
        per, total = cd_sweep(lat, s, deep=args.deep_sweep)
        if args.deep_sweep and total != cd_index(lat):
            raise CrossCheckError("deep sweep disagrees with flag route")
    else:
        per, total = cd_sweep_symmetric(lat, s)
    return {
        "method": method,
        "cd": total.to_json(),
        "per_vertex": _per_vertex(s, per, "cd", lambda phi: phi.to_json()),
    }


def cmd_toric(lat: FaceLattice, args) -> dict:
    method = args.method or "def"
    if method == "def":
        return {"method": method, "toric": _fmt_vec(toric_h_definition(lat))}
    if method == "cd":
        return {"method": method, "toric": _fmt_vec(toric_from_cd(cd_index(lat)))}
    # sweeping a polytope accumulates the toric h-vector of its dual, so
    # sweep the polar dual to get the input's own vector
    polar = polar_lattice(lat)
    s = choose_direction(args.direction, polar.coords)
    fn = toric_sweep if method == "sweep" else toric_sweep_symmetric
    per, total = fn(polar, s)
    return {
        "method": method,
        "toric": _fmt_vec(total),
        "swept": "polar-dual",
        "per_vertex": _per_vertex(s, per, "toric", _fmt_vec),
    }


def cmd_extended(lat: FaceLattice, args) -> dict:
    phi = cd_index(lat)
    ext = extended_toric(phi, degree=lat.dim)
    rebuilt = reconstruct_cd(ext, lat.dim)
    if rebuilt != phi:
        raise CrossCheckError(
            f"extended toric reconstruction mismatch: {rebuilt} vs {phi}"
        )
    return {
        "extended": {(w if w else "1"): _fmt_vec(v) for w, v in ext.items()},
        "reconstructed_cd": rebuilt.to_json(),
    }


def cmd_partition(lat: FaceLattice, args) -> dict:
    if lat.dim > args.max_dim:
        raise InputError(
            f"partition limited to dimension {args.max_dim}; "
            f"raise --max-dim to override"
        )
    s = choose_direction(args.direction, lat.coords)
    blocks, chains, report = checked_partition(lat, s)
    if not report.ok:
        raise CrossCheckError("; ".join(report.failures))
    order = _sweep_order(s)
    blocks = sorted(blocks, key=lambda b: (order.index(b.owner), b.word))
    return {
        "n_chains": len(chains),
        "blocks": [
            {
                "word": b.word if b.word else "1",
                "owner": b.owner,
                "size": len(b.faces),
                "faces": sorted(
                    [sorted(lat.vertices_of(i)) for i in ch] for ch in b.faces
                ),
            }
            for b in blocks
        ],
        "verified": True,
    }


def cmd_verify(lat: FaceLattice, args) -> dict:
    checks = verify.run_verification(lat, args.direction, args.max_dim, args.deep_sweep)
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise CrossCheckError("failed checks: " + "; ".join(failed))
    return {"checks": [{"name": n, "pass": p} for n, p in checks]}


# ---------------------------------------------------------------------------
# Table rendering and entry point.


def _render_table(payload: dict) -> str:
    lines = []

    def walk(obj, indent=""):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    lines.append(f"{indent}{k}:")
                    walk(v, indent + "  ")
                else:
                    lines.append(f"{indent}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    walk(v, indent + "  ")
                    lines.append("")
                else:
                    lines.append(f"{indent}- {_flat(v)}")

    walk(payload)
    return "".join(line + "\n" for line in lines)


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    if isinstance(v, dict):
        return all(not isinstance(x, (dict, list)) for x in v.values())
    return True


def _flat(v) -> str:
    if isinstance(v, dict):
        return ", ".join(f"{k}={x}" for k, x in v.items())
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _printed(render, value) -> str:
    """render(value), text of the result; a number in it too long for
    str (Python's limit is 4300 digits) raises InputError.  The whole
    result is rendered before anything is written."""
    try:
        return render(value)
    except ValueError as e:
        raise InputError(f"the result cannot be printed: {e}") from None


COMMANDS = {
    "describe": cmd_describe,
    "flag": cmd_flag,
    "cdindex": cmd_cdindex,
    "toric": cmd_toric,
    "extended": cmd_extended,
    "partition": cmd_partition,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polysweep",
        description="Exact cd-indices, toric h-vectors and sweep "
        "decompositions of convex polytopes.",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--input", required=True, help="builtin spec or JSON path")
    ap.add_argument("--method", help="cdindex: flag|sweep|symmetric; "
                    "toric: def|cd|sweep|symmetric")
    ap.add_argument("--direction", help="comma-separated rationals, e.g. 1,2,4")
    ap.add_argument("--format", choices=("json", "table"), default="json")
    ap.add_argument("--output", help="write result here instead of stdout")
    ap.add_argument("--deep-sweep", action="store_true",
                    help="recompute section cd-indices by recursive sweeps")
    ap.add_argument("--max-dim", type=int, default=4,
                    help="dimension cap for the partition construction")
    return ap


VALID_METHODS = {
    "cdindex": ("flag", "sweep", "symmetric"),
    "toric": ("def", "cd", "sweep", "symmetric"),
}


# a value such as -3,4 is read by argparse as an option, not a number
_NEGATIVE_VALUE = re.compile(r"-[0-9./]")


def _attach_direction(argv: list) -> list:
    """Rewrite `--direction -3,4` as `--direction=-3,4`."""
    out = []
    for a in argv:
        if out and out[-1] == "--direction" and _NEGATIVE_VALUE.match(a):
            out[-1] = f"--direction={a}"
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_direction(argv))
    try:
        if args.max_dim < 0:
            raise InputError(f"--max-dim must be at least 0, not {args.max_dim}")
        if args.method is not None:
            allowed = VALID_METHODS.get(args.command)
            if allowed is None:
                raise InputError(f"{args.command} takes no --method")
            if args.method not in allowed:
                raise InputError(
                    f"{args.command} method must be one of {', '.join(allowed)}"
                )
        vrep = parse_input(args.input)
        if args.direction is not None:
            args.direction = parse_direction(args.direction)
        lat = hull_lattice(vrep)
        payload = {"schema": SCHEMA, "command": args.command, "input": args.input}
        payload.update(COMMANDS[args.command](lat, args))
        table = args.format == "table" and not args.output
        text = _printed(_render_table if table else _render_json, payload)
    except (InputError, NotCDExpressible) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CrossCheckError, NotInImage) as e:
        print(f"cross-check failure: {e}", file=sys.stderr)
        return 3

    try:
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        target = args.output or "standard output"
        print(f"error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        if not args.output:
            # what is left in the buffer goes to the null device at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
