"""The routes to each quantity, and every cross-route invariant on one
polytope.  ``ROUTES`` maps a quantity to its methods, the first the
default; the CLI's --method and --deep-sweep read it.  Calls into other
modules go through the module (``sweep.cd_sweep``), so that a wrapper
installed on a module attribute, such as a tracer's, sees them."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import comb

from . import flagvec, polytope, sweep, toric, truncpartition
from .errors import CrossCheckError
from .polytope import FaceLattice


@dataclass(frozen=True)
class Route:
    """run(lat, direction, deep) returns (value, per-vertex parts,
    direction swept), the last two None for a route that does not sweep;
    deep marks a route running the recursive sweep, and polar one that
    sweeps the polar dual, as a sweep accumulates the dual's value."""

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
    """Every cross-method invariant on one polytope; returns
    (name, passed) pairs but raises early on malformed input."""
    checks: list[tuple[str, bool]] = []
    d = lat.dim

    checks.append(("lattice is Eulerian", polytope.is_eulerian(lat)))
    h = flagvec.flag_h(flagvec.flag_f(lat))
    full = (1 << d) - 1
    checks.append(
        ("flag h symmetry h_S = h_Sc",
         all(h.values[m] == h.values[full ^ m] for m in range(full + 1)))
    )
    phi = flagvec.cd_index(lat)
    checks.append(("cd coefficients nonnegative", phi.is_nonnegative()))
    checks.append(("coefficient of c^d is 1", phi.coefficient("c" * d) == 1))
    checks.append(
        ("dual cd-index is the reversed cd-index",
         flagvec.cd_index(polytope.dual(lat)) == flagvec.reverse_words(phi))
    )

    s1 = sweep.choose_direction(direction, lat.coords)
    s2 = sweep.choose_direction(tuple(-x for x in s1.p), lat.coords)  # always generic
    for tag, s in (("primary", s1), ("alternate", s2)):
        per, total = sweep.cd_sweep(lat, s, deep=deep)
        checks.append((f"sweep total equals flag route ({tag})", total == phi))
        if d >= 1:
            last = max(range(lat.n_vertices), key=lambda i: s.heights[i])
            checks.append(
                (f"last vertex contributes zero ({tag})", per[last].is_zero())
            )
        checks.append(
            (f"per-vertex parts nonnegative ({tag})",
             all(p.is_nonnegative() for p in per.values()))
        )
        per_s, total_s = sweep.cd_sweep_symmetric(lat, s)
        checks.append(
            (f"symmetric sweep equals flag route ({tag})", total_s == phi)
        )
        checks.append(
            (f"symmetric parts nonnegative half-integers ({tag})",
             all(p.is_nonnegative() and (2 * p).is_integral() for p in per_s.values()))
        )

    toric_routes = ROUTES["toric"]
    h_def = toric_routes["def"].run(lat, None, deep)[0]
    h_cd = toric_routes["cd"].run(lat, None, deep)[0]
    checks.append(("toric definition equals cd route", h_def == h_cd))
    _, h_dualsweep = toric.toric_sweep(lat, s1, deep=deep)
    checks.append(
        ("toric sweep equals reversed-cd route of the dual",
         h_dualsweep == toric.toric_from_cd(flagvec.reverse_words(phi), degree=d))
    )
    _, h_dualsym = toric.toric_sweep_symmetric(lat, s1)
    checks.append(("toric symmetric sweep equals toric sweep", h_dualsym == h_dualsweep))
    if d >= 1:
        via_polar = toric_routes["sweep"].run(lat, None, deep)[0]
        checks.append(("toric via polar sweep equals definition", via_polar == h_def))
    checks.append(("toric h symmetric", toric.is_symmetric(h_def)))
    checks.append(("toric h starts at 1", h_def[0] == 1))
    checks.append(("toric h unimodal", toric.is_unimodal(h_def)))

    ext, rebuilt = extended(lat)  # raises unless rebuilt is phi
    checks.append(
        ("extended vectors symmetric and nonnegative",
         all(toric.is_symmetric(v) and all(x >= 0 for x in v) for v in ext.values()))
    )
    checks.append(("extended toric reconstructs the cd-index", rebuilt == phi))

    if 1 <= d <= max_dim:
        blocks, _, report = truncpartition.checked_partition(lat, s1)
        checks.append(("truncation partition verifies", report.ok))
        checks.append(
            ("number of blocks equals cd coefficient sum",
             len(blocks) == sum(phi.terms.values()))
        )

    if lat.is_simple() and d >= 1:
        hv = sweep.simple_h_by_outdegree(lat, s1)
        checks.append(("outdegree h equals f(P, x-1)", hv == _h_from_f(lat)))
        blocks = sweep.min_vertex_partition(lat, s1)
        nonempty = sum(1 for k in lat.dims if k >= 0)
        checks.append(
            ("minimal-vertex blocks cover all nonempty faces",
             sum(len(b) for b in blocks.values()) == nonempty)
        )
    return checks


def _h_from_f(lat: FaceLattice) -> tuple:
    """Coefficients of f(P, x-1): the independent h-vector oracle."""
    fv = lat.f_vector()
    d = lat.dim
    h = [0] * (d + 1)
    for i in range(d + 1):  # f_i * (x-1)^i
        fi = fv[i + 1]
        for j in range(i + 1):
            sign = -1 if (i - j) % 2 else 1
            h[j] += fi * sign * comb(i, j)
    return tuple(h)
