"""Seeded job generators for the three benchmark workloads.

Every job is one CLI call.  Inputs are integer polytopes built from the
seed alone, so the same seed always yields the same job list, and every
point of every generated input is a vertex of its hull (except in the
deliberately malformed requests).  A workload is a fixed cycle of job
kinds ("slots"); the seed shuffles the slots within each cycle and draws
the coordinates, so every seed runs the same mix of kinds and the
throughput of two seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    """One CLI call: argv without ``--input``, plus what goes there.

    ``vertices`` is written to a JSON file whose path becomes the
    ``--input`` value; ``spec`` is passed verbatim when there are no
    vertices.  ``expect`` is the exit code a correct program returns.
    """

    kind: str
    command: str
    options: tuple
    dim: int
    vertices: tuple | None
    spec: str | None = None
    expect: int = 0

    def input_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[str(x) for x in p] for p in self.vertices],
        }


# ---------------------------------------------------------------------------
# Point sets.  All are integer coordinates; every point is a vertex.


def _distinct_ints(rng, k, lo, hi):
    return sorted(rng.sample(range(lo, hi + 1), k))


def parabola_polygon(rng, k):
    """k points (t, t^2) with distinct integer t: a convex k-gon."""
    return [(t, t * t) for t in _distinct_ints(rng, k, -9, 9)]


def paraboloid_lift(rng, d, n):
    """n distinct integer points of R^(d-1) lifted to (x, |x|^2)."""
    radius = {3: 4, 4: 3, 5: 2}[d]
    while True:
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-radius, radius) for _ in range(d - 1)))
        pts = sorted(pts)
        if affine_rank(pts) == d - 1:
            return [p + (sum(x * x for x in p),) for p in pts]


def moment_curve(rng, d, n):
    """(t, t^2, ..., t^d) at n distinct integers t: a cyclic polytope."""
    return [
        tuple(t**k for k in range(1, d + 1))
        for t in _distinct_ints(rng, n, -10, 10)
    ]


def prism(rng, base):
    h = rng.randint(1, 5)
    return [p + (0,) for p in base] + [p + (h,) for p in base]


def pyramid(rng, base):
    """Apex at a random point above the base's hyperplane."""
    dim = len(base[0])
    apex = tuple(rng.randint(-3, 3) for _ in range(dim)) + (rng.randint(1, 5),)
    return [p + (0,) for p in base] + [apex]


def product(a, b):
    return [p + q for p in a for q in b]


def affine_rank(points) -> int:
    """Exact rank of the differences to the first point."""
    rows = [[Fraction(x - y) for x, y in zip(p, points[0])] for p in points[1:]]
    rank = 0
    ncols = len(points[0])
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# Shapes by name.  Each maker takes (rng) and returns (dim, points).

def _lift(d, n):
    return lambda rng: (d, paraboloid_lift(rng, d, n))


def _cyclic(d, n):
    return lambda rng: (d, moment_curve(rng, d, n))


def _prism_polygon(k):
    return lambda rng: (3, prism(rng, parabola_polygon(rng, k)))


def _pyramid_polygon(k):
    return lambda rng: (3, pyramid(rng, parabola_polygon(rng, k)))


def _polygon(k):
    return lambda rng: (2, parabola_polygon(rng, k))


def _product_polygons(*ks):
    def make(rng):
        pts = [()]
        for k in ks:
            pts = product(pts, parabola_polygon(rng, k))
        return 2 * len(ks), pts
    return make


def _pyramid_prism_polygon(k):
    return lambda rng: (4, pyramid(rng, prism(rng, parabola_polygon(rng, k))))


def _pyramid_pyramid_polygon(k):
    return lambda rng: (4, pyramid(rng, pyramid(rng, parabola_polygon(rng, k))))


def _prism_pyramid_polygon(k):
    return lambda rng: (4, prism(rng, pyramid(rng, parabola_polygon(rng, k))))


# ---------------------------------------------------------------------------
# Workloads.  A slot is (shape, command, options, variant); the variants
# are "direction" (a seeded generic --direction) and the four malformed
# requests, which all expect exit code 2.

SHAPES = {
    "polygon-6": _polygon(6),
    "polygon-9": _polygon(9),
    "lift3-6": _lift(3, 6),
    "lift3-7": _lift(3, 7),
    "lift3-12": _lift(3, 12),
    "lift3-16": _lift(3, 16),
    "lift4-10": _lift(4, 10),
    "lift5-10": _lift(5, 10),
    "cyclic3-6": _cyclic(3, 6),
    "cyclic3-7": _cyclic(3, 7),
    "cyclic3-8": _cyclic(3, 8),
    "cyclic3-14": _cyclic(3, 14),
    "cyclic4-6": _cyclic(4, 6),
    "cyclic4-10": _cyclic(4, 10),
    "prism-polygon-3": _prism_polygon(3),
    "prism-polygon-4": _prism_polygon(4),
    "prism-polygon-6": _prism_polygon(6),
    "pyramid-polygon-4": _pyramid_polygon(4),
    "pyramid-polygon-6": _pyramid_polygon(6),
    "product-polygons-3x4": _product_polygons(3, 4),
    "prism-pyramid-polygon-3": _prism_pyramid_polygon(3),
    "pyramid-prism-polygon-4": _pyramid_prism_polygon(4),
    "pyramid-pyramid-polygon-4": _pyramid_pyramid_polygon(4),
}

# hull-describe and verify-small cycle through ten slots, so 100 jobs
# are ten of each.  The 90th percentile then lies on the border between
# the dearest tenth of the jobs and the rest, and the median on the border
# between the fifth and sixth tenths.  Where such a border would fall
# between two shapes of different cost, which of their jobs happen to be
# slow would decide the percentile; so one shape fills both slots on
# either side of it.

# hull-describe: describe on 10-16 vertices in dimensions 3-5.  The three
# families load the brute-force hull differently: paraboloid lifts have
# many facets, cyclic polytopes are neighborly (the most faces, so the
# closure works hardest), and in products and prisms most d-subsets of
# the vertices are degenerate.  Sizes keep a cycle near 3 s at the
# parent commit, so that 100 jobs fit in a 30 s run; 18 vertices or
# dimension 5 with more than 10 vertices cost several times as much.
HULL_DESCRIBE = [
    (shape, "describe", (), "")
    for shape in (
        "lift3-12", "prism-polygon-6", "lift4-10", "cyclic3-14",
        "cyclic4-10", "cyclic4-10", "lift3-16", "product-polygons-3x4",
        "lift5-10", "lift5-10",
    )
]

# verify-small: every cross-check on 5-8 vertices in dimensions 3-4.
# Lifts and cyclic polytopes are simplicial, so their polar duals are
# larger and verify hulls those a second time; prisms and pyramids over
# polygons are the cheap end.  Half the slots pass --direction.
VERIFY_SMALL = [
    ("pyramid-polygon-4", "verify", (), "direction"),
    ("prism-polygon-3", "verify", (), ""),
    ("cyclic3-6", "verify", (), "direction"),
    ("lift3-6", "verify", (), ""),
    ("prism-polygon-4", "verify", (), "direction"),
    ("prism-polygon-4", "verify", (), ""),
    ("lift3-7", "verify", (), "direction"),
    ("cyclic3-7", "verify", (), ""),
    ("pyramid-pyramid-polygon-4", "verify", (), "direction"),
    ("pyramid-pyramid-polygon-4", "verify", (), ""),
]

# query-mix: one command per job over dimensions 2-4 and at most 9
# vertices, every command and every --method, some --deep-sweep and
# --format table, and four malformed requests per cycle of 42.  Job costs
# spread over two orders of magnitude here, so the percentiles are kept
# off thinly populated costs the same way: the four jobs on cyclic3-8
# after "describe cyclic3-8" fill the costs around the median, and the
# symmetric cd sweep of pyramid-prism-polygon-4 sits in two slots at
# the 90th percentile.
TABLE = ("--format", "table")
QUERY_MIX = [
    ("polygon-9", "describe", (), ""),
    ("cyclic3-8", "describe", (), ""),
    ("cyclic3-8", "flag", (), ""),
    ("cyclic3-8", "cdindex", ("--method", "flag"), ""),
    ("cyclic3-8", "toric", ("--method", "def"), ""),
    ("cyclic3-8", "extended", (), ""),
    ("pyramid-prism-polygon-4", "describe", (), ""),
    ("lift3-7", "describe", TABLE, ""),
    ("polygon-6", "flag", (), ""),
    ("lift3-7", "flag", (), ""),
    ("prism-pyramid-polygon-3", "flag", (), ""),
    ("prism-polygon-4", "cdindex", ("--method", "flag"), ""),
    ("cyclic4-6", "cdindex", (), ""),
    ("polygon-9", "cdindex", ("--method", "sweep"), ""),
    ("pyramid-polygon-6", "cdindex", ("--method", "sweep"), "direction"),
    ("cyclic4-6", "cdindex", ("--method", "sweep"), ""),
    ("prism-polygon-4", "cdindex", ("--method", "sweep") + TABLE, ""),
    ("lift3-7", "cdindex", ("--method", "sweep", "--deep-sweep"), ""),
    ("cyclic3-8", "cdindex", ("--method", "symmetric"), "direction"),
    ("pyramid-prism-polygon-4", "cdindex", ("--method", "symmetric"), ""),
    ("pyramid-prism-polygon-4", "cdindex", ("--method", "symmetric"), ""),
    ("lift3-7", "toric", ("--method", "def"), ""),
    ("prism-pyramid-polygon-3", "toric", (), ""),
    ("cyclic4-6", "toric", TABLE, ""),
    ("polygon-6", "toric", ("--method", "cd"), ""),
    ("cyclic3-8", "toric", ("--method", "cd"), ""),
    ("pyramid-polygon-6", "toric", ("--method", "sweep"), ""),
    ("cyclic4-6", "toric", ("--method", "sweep"), ""),
    ("prism-polygon-4", "toric", ("--method", "symmetric"), ""),
    ("polygon-9", "toric", ("--method", "symmetric"), ""),
    ("pyramid-polygon-6", "extended", (), ""),
    ("pyramid-prism-polygon-4", "extended", (), ""),
    ("prism-polygon-4", "partition", (), ""),
    ("lift3-7", "partition", (), "direction"),
    ("pyramid-prism-polygon-4", "partition", (), ""),
    ("cyclic3-8", "partition", TABLE, ""),
    ("polygon-6", "verify", (), ""),
    ("pyramid-polygon-6", "verify", (), ""),
    ("cyclic3-7", "cdindex", ("--method", "sweep"), "wrong-length-direction"),
    ("prism-polygon-4", "partition", (), "tied-direction"),
    ("lift3-7", "describe", (), "non-vertex"),
    ("", "describe", (), "unknown-builtin"),
]

WORKLOADS = {
    "hull-describe": HULL_DESCRIBE,
    "verify-small": VERIFY_SMALL,
    "query-mix": QUERY_MIX,
}


def jobs(workload: str, seed: int):
    """The endless job stream of a workload: cycle after cycle of its
    slots, each cycle shuffled.  No two jobs share an input."""
    rng = random.Random(f"{workload}/{seed}")
    seen: set = set()
    while True:
        cycle = list(WORKLOADS[workload])
        rng.shuffle(cycle)
        for slot in cycle:
            yield _make_job(rng, slot, seen)


def _make_job(rng, slot, seen) -> Job:
    shape, command, options, variant = slot
    kind = " ".join(f"{command} {' '.join(options)} {shape} {variant}".split())
    if variant == "unknown-builtin":
        while True:
            spec = f"hypersimplex:{rng.randint(2, 10**6)}"
            if spec not in seen:
                seen.add(spec)
                return Job(kind, command, options, 0, None, spec=spec, expect=2)
    while True:
        dim, pts = SHAPES[shape](rng)
        key = (dim, tuple(sorted(pts)))
        if key not in seen:
            seen.add(key)
            break
    if variant == "direction":
        options = options + (_direction_option(generic_direction(rng, pts)),)
    elif variant == "wrong-length-direction":
        options = options + (_direction_option(generic_direction(rng, pts)[:-1]),)
    elif variant == "tied-direction":
        options = options + (_direction_option(tied_direction(pts)),)
    elif variant == "non-vertex":
        n = len(pts)
        pts = pts + [tuple(Fraction(sum(c), n) for c in zip(*pts))]
    expect = 0 if variant in ("", "direction") else 2
    return Job(kind, command, options, dim, tuple(pts), expect=expect)


def _direction_option(direction) -> str:
    """One argument, so that argparse reads a leading minus sign as part
    of the value rather than as an option."""
    return "--direction=" + ",".join(str(x) for x in direction)


def generic_direction(rng, pts) -> tuple:
    """A random integer functional giving every point its own height."""
    while True:
        p = tuple(rng.randint(-30, 30) for _ in pts[0])
        heights = {sum(a * b for a, b in zip(p, x)) for x in pts}
        if len(heights) == len(pts):
            return p


def tied_direction(pts) -> tuple:
    """A nonzero functional orthogonal to the first edge direction
    x1 - x0, so the first two points get equal heights."""
    w = [b - a for a, b in zip(pts[0], pts[1])]
    k = next(i for i, x in enumerate(w) if x)
    j = (k + 1) % len(w)
    p = [0] * len(w)
    p[k], p[j] = w[j], -w[k]
    return tuple(p)
