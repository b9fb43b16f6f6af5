"""Shared helpers: cached lattices for the named corpus polytopes, and
oracles that the package itself does not need."""

import functools
import itertools
from fractions import Fraction

import polysweep as ps
import polysweep.sweep as sweep_mod
from fraction_rref import hyperplane_through
from polysweep.cli import parse_input
from polysweep.exactnum import exact, vsub
from polysweep.polytope import bits
from polysweep.sweep import support_normal


def wrong_on_dimension(monkeypatch, dim: int):
    """Make ``sweep.cd_index`` double its value on lattices of dimension
    dim.  Only the deep sweep's check reads it, as the default sweeps
    count every value off the order: a mutant that every deep sweep, the
    cd one and the toric one that reads it, must catch."""
    real = sweep_mod.cd_index
    monkeypatch.setattr(
        sweep_mod, "cd_index", lambda lat: real(lat) * 2 if lat.dim == dim else real(lat)
    )


def vec(*entries) -> tuple:
    """A coordinate vector, each entry made exact."""
    return tuple(map(exact, entries))


@functools.lru_cache(maxsize=None)
def lat(spec: str) -> ps.FaceLattice:
    """Hull lattice for a builtin spec string, cached per session."""
    return ps.hull_lattice(parse_input(spec))


@functools.lru_cache(maxsize=None)
def default_direction(spec: str) -> ps.SweepDirection:
    return ps.choose_direction(None, lat(spec).coords)


def height_side(l: ps.FaceLattice, s: ps.SweepDirection, vi: int, fi: int) -> str:
    """Oracle for where face fi at vi, of dimension >= 1, lies against
    the sweep hyperplane through vi, read off the heights of its
    vertices: "rising" when vi is its lowest vertex, "falling" when vi is
    its highest, "crossing" when vi lies strictly between."""
    heights = [s.heights[w] for w in l.vertices_of(fi)]
    if s.heights[vi] == min(heights):
        return "rising"
    if s.heights[vi] == max(heights):
        return "falling"
    return "crossing"


def ladder_slopes(l: ps.FaceLattice, s: ps.SweepDirection, vi: int) -> tuple:
    """Oracle for the edge order at vi, over Fraction: (a, slopes) for
    the first functional a on the support normal ladder whose slopes are
    distinct, slopes mapping each edge at vi, from vi to w, to
    (height(w) - height(vi)) / a.(vi - w)."""
    pts = l.coords.vertices
    for t in itertools.count(1):
        a = support_normal(l, vi, t)
        slopes = {}
        for e in l.faces_at_vertex(vi, 1):
            (wi,) = set(l.vertices_of(e)) - {vi}
            gap = ps.dot(a, vsub(pts[vi], pts[wi]))
            slopes[e] = Fraction(s.heights[wi] - s.heights[vi]) / gap
        if len(set(slopes.values())) == len(slopes):
            return a, slopes


def eliminated_facets(l: ps.FaceLattice) -> list:
    """Oracle for the stored facet hyperplanes: each facet's hyperplane
    eliminated from its own vertices, turned to put a vertex off the
    facet on its negative side; in facet mask order."""
    pts = l.coords.vertices
    out = []
    for fi in l.by_dim[l.dim - 1]:
        normal, offset = hyperplane_through([pts[i] for i in l.vertices_of(fi)], l.dim)
        off = next(p for i, p in enumerate(pts) if not l.masks[fi] >> i & 1)
        if ps.dot(normal, off) > offset:
            normal, offset = tuple(-x for x in normal), -offset
        out.append((normal, offset))
    return out


def vrep_to_json(v: ps.VRep) -> dict:
    """The JSON object that ``polysweep.polytope.vrep_from_json`` reads."""
    return {"dim": v.dim, "vertices": [[str(x) for x in p] for p in v.vertices]}


def validate(l: ps.FaceLattice):
    """Structural oracle for a lattice: grading, intersection closure,
    singletons.  Raises ValueError on the first check that fails."""
    if len(l.by_dim[-1]) != 1 or len(l.by_dim[l.dim]) != 1:
        raise ValueError("the lattice needs one empty face and one top face")
    if any(l.masks[i].bit_count() != 1 for i in l.by_dim.get(0, ())):
        raise ValueError("a face of dimension 0 is not a single vertex")
    mask_set = set(l.masks)
    if any(a & b not in mask_set for a in l.masks for b in l.masks):
        raise ValueError("the faces are not closed under intersection")
    # every cover relation, an interval of two faces, steps dimension by one
    for i, u in enumerate(l.up):
        for j in bits(u & ~(1 << i)):
            covers = (u & l.down[j]).bit_count() == 2
            if covers and l.dims[j] != l.dims[i] + 1:
                raise ValueError("the lattice is not graded")
