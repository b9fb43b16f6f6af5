"""The routes to each quantity, and every cross-route invariant on one
polytope.  ``ROUTES`` maps a quantity to its methods, the first the
default.  Every agreement ``run_verification`` checks compares two rows
of that one table; the CLI serves as commands only the quantities it
prints, and reads their --method and --deep-sweep from it.  Calls into
other modules go through the module (``sweep.cd_sweep``), so that a
wrapper installed on a module attribute, such as a tracer's, sees them."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import comb

from . import flagvec, polytope, sweep, toric, truncpartition
from .errors import CrossCheckError
from .polytope import FaceLattice


@dataclass(frozen=True)
class Route:
    """One row of ROUTES.  run(lat, direction, deep) returns (value,
    per-vertex parts, direction swept), the parts None for a route without
    them and the direction None for one that does not sweep; deep marks a
    route running the recursive sweep, and polar one that sweeps the polar
    dual, as a sweep accumulates the dual's value."""

    run: Callable
    deep: bool = False
    polar: bool = False


def _sweeping(sweeper: Callable, deep: bool = False, polar: bool = False) -> Route:
    """The route sweeping lat, or its polar dual, with sweeper(lat, s),
    and sweeper(lat, s, deep) if it is deep; s is the direction given, or
    the ladder's."""

    def run(lat: FaceLattice, direction, deep_: bool) -> tuple:
        swept = polytope.polar_lattice(lat) if polar else lat
        s = sweep.choose_direction(direction, swept.coords)
        per, total = sweeper(swept, s, deep_) if deep else sweeper(swept, s)
        return total, per, s

    return Route(run, deep, polar)


ROUTES = {
    "cdindex": {
        "flag": Route(lambda lat, p, deep: (flagvec.cd_index(lat), None, None)),
        "sweep": _sweeping(lambda *a: sweep.cd_sweep(*a), deep=True),
        "symmetric": _sweeping(lambda *a: sweep.cd_sweep_symmetric(*a)),
    },
    "toric": {
        "def": Route(lambda lat, p, deep: (toric.toric_h_definition(lat), None, None)),
        "cd": Route(
            lambda lat, p, deep: (toric.toric_from_cd(flagvec.cd_index(lat)), None, None)
        ),
        "sweep": _sweeping(lambda *a: toric.toric_sweep(*a), deep=True, polar=True),
        "symmetric": _sweeping(lambda *a: toric.toric_sweep_symmetric(*a), polar=True),
    },
    # the quantities below are read by run_verification only
    "dualcd": {
        "reversed": Route(
            lambda lat, p, deep: (flagvec.reverse_words(flagvec.cd_index(lat)), None, None)
        ),
        "flag": Route(lambda lat, p, deep: (flagvec.cd_index(polytope.dual(lat)), None, None)),
    },
    "dualtoric": {  # a sweep of P accumulates the toric h-vector of its dual
        "reversed": Route(
            lambda lat, p, deep: (toric.toric_dual_h(flagvec.cd_index(lat), lat.dim), None, None)
        ),
        "sweep": _sweeping(lambda *a: toric.toric_sweep(*a), deep=True),
        "symmetric": _sweeping(lambda *a: toric.toric_sweep_symmetric(*a)),
    },
    "simpleh": {  # the h-vector of a simple polytope
        "fvector": Route(lambda lat, p, deep: (_h_from_f(lat), None, None)),
        "outdegree": _sweeping(lambda lat, s: (None, sweep.simple_h_by_outdegree(lat, s))),
    },
}


def extended(lat: FaceLattice) -> tuple[dict, flagvec.CDPolynomial]:
    """The extended toric h-vector of lat and the cd-index rebuilt from
    it; raises CrossCheckError unless the rebuilt cd-index is lat's."""
    phi = flagvec.cd_index(lat)
    ext = toric.extended_toric(phi, degree=lat.dim)
    rebuilt = toric.reconstruct_cd(ext, lat.dim)
    if rebuilt != phi:
        raise CrossCheckError(f"extended toric reconstruction mismatch: {rebuilt} vs {phi}")
    return ext, rebuilt


def run_verification(lat: FaceLattice, direction, max_dim: int, deep: bool) -> list:
    """Every cross-route invariant on one polytope; returns (name,
    passed) pairs but raises early on malformed input.  Each agreement
    compares two rows of ROUTES, each run once per direction."""
    checks: list[tuple[str, bool]] = []
    ran: dict[tuple, tuple] = {}
    d = lat.dim

    def row(quantity: str, method: str, p=None) -> tuple:
        if (quantity, method, p) not in ran:
            ran[quantity, method, p] = ROUTES[quantity][method].run(lat, p, deep)
        return ran[quantity, method, p]

    def agree(name: str, quantity: str, method: str, p, reference: str, p_ref=None) -> None:
        checks.append((name, row(quantity, method, p)[0] == row(quantity, reference, p_ref)[0]))

    checks.append(("lattice is Eulerian", polytope.is_eulerian(lat)))
    h = flagvec.flag_h(flagvec.flag_f(lat)).values  # h[m] and h[-1 - m] are complements
    checks.append(("flag h symmetry h_S = h_Sc", h == h[::-1]))
    phi = row("cdindex", "flag")[0]
    checks.append(("cd coefficients nonnegative", phi.is_nonnegative()))
    checks.append(("coefficient of c^d is 1", phi.coefficient("c" * d) == 1))
    agree("dual cd-index is the reversed cd-index", "dualcd", "flag", None, "reversed")

    s1 = sweep.choose_direction(direction, lat.coords)
    s2 = sweep.choose_direction(tuple(-x for x in s1.p), lat.coords)  # always generic
    for tag, s in (("primary", s1), ("alternate", s2)):
        agree(f"sweep total equals flag route ({tag})", "cdindex", "sweep", s.p, "flag")
        per = row("cdindex", "sweep", s.p)[1]
        if d >= 1:
            last = max(range(lat.n_vertices), key=lambda i: s.heights[i])
            checks.append((f"last vertex contributes zero ({tag})", per[last].is_zero()))
        nonnegative = all(p.is_nonnegative() for p in per.values())
        checks.append((f"per-vertex parts nonnegative ({tag})", nonnegative))
        agree(f"symmetric sweep equals flag route ({tag})", "cdindex", "symmetric", s.p, "flag")
        per_s = row("cdindex", "symmetric", s.p)[1]
        halves = all(p.is_nonnegative() and (2 * p).is_integral() for p in per_s.values())
        checks.append((f"symmetric parts nonnegative half-integers ({tag})", halves))

    agree("toric definition equals cd route", "toric", "def", None, "cd")
    agree("toric sweep equals reversed-cd route of the dual",
          "dualtoric", "sweep", s1.p, "reversed")
    agree("toric symmetric sweep equals toric sweep",
          "dualtoric", "symmetric", s1.p, "sweep", s1.p)
    if d >= 1:
        agree("toric via polar sweep equals definition", "toric", "sweep", None, "def")
    h_def = row("toric", "def")[0]
    checks.append(("toric h symmetric", toric.is_symmetric(h_def)))
    checks.append(("toric h starts at 1", h_def[0] == 1))
    checks.append(("toric h unimodal", toric.is_unimodal(h_def)))

    ext, rebuilt = extended(lat)  # raises unless rebuilt is phi
    palindromes = all(toric.is_symmetric(v) and all(x >= 0 for x in v) for v in ext.values())
    checks.append(("extended vectors symmetric and nonnegative", palindromes))
    checks.append(("extended toric reconstructs the cd-index", rebuilt == phi))

    if 1 <= d <= max_dim:
        blocks, _, report = truncpartition.checked_partition(lat, s1)
        checks.append(("truncation partition verifies", report.ok))
        words = sum(phi.terms.values())
        checks.append(("number of blocks equals cd coefficient sum", len(blocks) == words))

    if lat.is_simple() and d >= 1:
        agree("outdegree h equals f(P, x-1)", "simpleh", "outdegree", s1.p, "fvector")
        covered = sum(len(b) for b in sweep.min_vertex_partition(lat, s1).values())
        nonempty = sum(1 for k in lat.dims if k >= 0)
        checks.append(("minimal-vertex blocks cover all nonempty faces", covered == nonempty))
    return checks


def _h_from_f(lat: FaceLattice) -> tuple:
    """Coefficients of f(P, x-1): the independent h-vector oracle."""
    fv = lat.f_vector()
    return tuple(
        sum((-1) ** (i - j) * comb(i, j) * fv[i + 1] for i in range(j, lat.dim + 1))
        for j in range(lat.dim + 1)
    )
