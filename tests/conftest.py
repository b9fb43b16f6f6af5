"""Shared helpers: cached lattices for the named corpus polytopes."""

import functools

import polysweep as ps
from fraction_rref import hyperplane_through
from polysweep.cli import parse_input


@functools.lru_cache(maxsize=None)
def lat(spec: str) -> ps.FaceLattice:
    """Hull lattice for a builtin spec string, cached per session."""
    return ps.hull_lattice(parse_input(spec))


@functools.lru_cache(maxsize=None)
def default_direction(spec: str) -> ps.SweepDirection:
    return ps.choose_direction(None, lat(spec).coords)


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
