"""The partition as it was when every level cut its vertex figures and
sections: the reference that ``polysweep.truncpartition._partition`` is
tested against.

No library code calls it; it is kept as an oracle.  At every level and
at every vertex that owns a chain it cuts the section (``sweep_section``)
and the vertex figure (``vertex_figure``) and partitions them
recursively, points and segments included, and it picks the top or
bottom edge of a chain inside its next face by the heights of the cut
figure.  Its name does not start with ``test_``, so pytest does not
collect it.
"""

from polysweep.errors import CrossCheckError
from polysweep.polytope import FaceLattice, bits
from polysweep.sweep import (
    LOWER,
    UPPER,
    SweepDirection,
    _up_down,
    classify_face,
    map_chain,
    sweep_section,
    vertex_figure,
)
from polysweep.truncpartition import (
    Chain,
    _extreme_vertex,
    _has_vertex_entry,
    _size_law,
    enumerate_chains,
)


def cut_top_bottom(l, s, chain: Chain, want_top: bool) -> Chain:
    """Add the missing minimal label to a chain: a vertex of the chain's
    minimal face (extremal in height), or, when the chain already starts
    at a vertex v, an edge at v inside the next face (extremal in slope,
    read off the heights of the vertex figure's sub-vertices).
    """
    full = len(l.masks) - 1
    if not _has_vertex_entry(l, chain):
        f1 = chain[0] if chain else full
        v = _extreme_vertex(l, s, f1, want_top)
        return (l.index[1 << v],) + chain
    vi = l.vertices_of(chain[0])[0]
    rest = chain[1:]
    if rest and l.dims[rest[0]] < 2:
        raise CrossCheckError(f"chain {chain} already has a face of dimension 1")
    f2 = rest[0] if rest else full
    # the figure's sub-vertex j is on the j-th edge at v, at a positive
    # multiple of its slope
    edges = l.faces_at_vertex(vi, 1)
    inside = [j for j, e in enumerate(edges) if l.down[f2] >> e & 1]
    heights = vertex_figure(l, s, vi).direction.heights
    pick = (max if want_top else min)(inside, key=heights.__getitem__)
    return (chain[0], edges[pick]) + rest


def cut_partition(lat: FaceLattice, s: SweepDirection, wanted) -> list:
    """Recursive construction; returns (word, owner, chains) triples of
    the blocks whose owner is in wanted, only these built and checked."""
    if lat.dim == 0:
        return [("", 0, [()])]
    full = len(lat.masks) - 1

    singles, starts = [], []
    for w in wanted:
        v = lat.index[1 << w]
        for fi in bits(lat.up[v] & ~(1 << v)):
            cls = classify_face(lat, s, w, fi)
            if cls != LOWER:
                head = () if cls == UPPER else (v,)
                if fi == full:
                    singles.append(head)
                else:
                    starts.append(head + (fi,))
    chains = singles + enumerate_chains(lat, starts)

    members: dict[Chain, set] = {}
    key_of: dict[Chain, Chain] = {}

    def file_under(key: Chain, ch: Chain):
        prev = key_of.get(ch)
        if prev is not None and prev != key:
            raise CrossCheckError(f"chain {ch} filed under two pre-blocks")
        key_of[ch] = key
        members.setdefault(key, set()).add(ch)

    middle = []
    for ch in chains:
        if _has_vertex_entry(lat, ch):
            middle.append(ch)
            continue
        tau = cut_top_bottom(lat, s, ch, want_top=True)
        beta = cut_top_bottom(lat, s, ch, want_top=False)
        file_under(beta, beta)
        file_under(beta, tau)
        file_under(beta, ch)

    for ch in middle:
        tau = cut_top_bottom(lat, s, ch, want_top=True)
        if key_of.get(tau) != tau:
            raise CrossCheckError(f"top face {tau} of middle {ch} not upper")
        file_under(tau, ch)

    records = []
    for vi in wanted:
        ups = _up_down(lat, s, vi)[2]
        if not ups:
            continue
        rv = sweep_section(lat, s, vi)
        if rv is not None:
            every = range(rv.lattice.n_vertices)
            for word, _, sub_chains in cut_partition(rv.lattice, rv.direction, every):
                keys = []
                for sc in sub_chains:
                    mid = map_chain(rv, sc)
                    if mid not in key_of:
                        raise CrossCheckError(f"section face {mid} was never filed")
                    keys.append(key_of[mid])
                records.append(("d" + word, vi, keys))
        qv = vertex_figure(lat, s, vi)
        for word, _, sub_chains in cut_partition(qv.lattice, qv.direction, ups):
            keys = [map_chain(qv, sc) for sc in sub_chains]
            for up in keys:
                if key_of.get(up) != up:
                    raise CrossCheckError(f"figure block face {up} is not an upper face")
            records.append(("c" + word, vi, keys))

    used = [k for _, _, keys in records for k in keys]
    if len(used) != len(set(used)) or set(used) != set(members):
        raise CrossCheckError("merges do not hit every pre-block exactly once")

    out = []
    for word, owner, keys in records:
        faces: list[Chain] = []
        for k in keys:
            faces.extend(members[k])
        if len(faces) != _size_law(word):
            raise CrossCheckError(
                f"block {word} of vertex {owner} has {len(faces)} faces"
            )
        out.append((word, owner, faces))
    return out


def cut_blocks(lat: FaceLattice, s: SweepDirection) -> list:
    """(word, owner, frozenset of chains) of every block, in the order
    ``build_partition`` gives them."""
    return [
        (word, owner, frozenset(chains))
        for word, owner, chains in cut_partition(lat, s, range(lat.n_vertices))
    ]
