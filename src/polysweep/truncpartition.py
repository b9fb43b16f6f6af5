"""Partitioning the complete truncation of a polytope.

The complete truncation is the simple polytope obtained by shaving every
face at rapidly decreasing depths; its faces correspond to chains of
proper nonempty faces, with the whole truncation corresponding to the
empty chain.  It is never built with coordinates here: once the shaving
depths are small, every comparison the construction needs is decided by
vertex heights (first order) or edge slopes at a vertex (second order),
both exact.

The partition assembles pre-blocks {G, top(G), bottom(G)} for the chains
without a vertex entry, files each "middle" chain under its top face,
and then merges pre-blocks along the recursive partitions of the vertex
figures and sections.  Each resulting block carries one cd-word; the
words sum to the cd-index.

A block belongs to the vertex whose sweep step creates it, and at v the
recursion reads a figure's blocks only where their owner lies above v.
So a level is given the owners its caller keeps: the top level and the
sections all of their vertices, a figure the sub-vertices above v.  It
enumerates, files, merges and recurses for those owners only, and checks
what it built exactly: every chain is filed once, the merges hit every
filed pre-block once, and each block has 3^#c 4^#d chains.

A point's partition is one block, 1, and a segment's one block, c, owned
by its lower end, whichever way they are swept.  So figures and sections
of dimension at most 1 are read off the order, not cut: the figure at v
of a polygon, a segment over the edges at v, gives v the block cc when
both edges go up; the section at v of a polygon, a point, gives d; that
of a 3-polytope, a segment over the two crossing 2-faces at v, gives dc.
The top and bottom edges at v inside a 2-face are its up-edge and its
down-edge.  On cross:5 ``checked_partition`` makes 200 ``_partition``
calls and takes 0.20 s, where cutting points and segments made 922 and
took 0.28 s, and partitioning every figure in full made 4,898 (best of
12, one core of a 2-core Xeon).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError
from .flagvec import CDPolynomial, FlagVector, ab_from_cd, ab_index, cd_index, flag_h
from .polytope import FaceLattice, bits, memoized
from .sweep import SweepDirection, _up_down, map_chain, sweep_section, vertex_figure

Chain = tuple  # tuple[int, ...]: lattice face indices, dimensions ascending


@dataclass(frozen=True)
class Block:
    """One block of the partition: a set of chains, one cd-word, and the
    vertex whose sweep step created it."""

    word: str
    owner: int
    faces: frozenset  # frozenset[Chain]


def _size_law(word: str) -> int:
    """The number of chains in a block with this cd-word."""
    return 3 ** word.count("c") * 4 ** word.count("d")


def enumerate_chains(l: FaceLattice, starts=((),)) -> list:
    """The chains of proper nonempty faces that extend one of ``starts``
    by faces above its last face, the starts included; by default every
    chain, the empty chain included."""
    proper = sum(l.level.get(k, 0) for k in range(l.dim))
    chains: list[Chain] = list(starts)
    stack: list[Chain] = list(starts)
    while stack:
        ch = stack.pop()
        above = l.up[ch[-1]] & ~(1 << ch[-1]) & proper if ch else proper
        for i in bits(above):
            ext = ch + (i,)
            chains.append(ext)
            stack.append(ext)
    return chains


def chain_sigma(l: FaceLattice, chain: Chain) -> int:
    """The mask of the dimensions of the chain's faces."""
    return sum(1 << l.dims[i] for i in chain)


def _has_vertex_entry(l: FaceLattice, chain: Chain) -> bool:
    return bool(chain) and l.dims[chain[0]] == 0


@memoized
def _extreme_vertex(l: FaceLattice, s: SweepDirection, fi: int, want_max: bool) -> int:
    """The highest or lowest vertex of face fi, read once per level,
    direction, face and end: many chains share their minimal face."""
    vs = l.vertices_of(fi)
    key = s.heights.__getitem__
    return max(vs, key=key) if want_max else min(vs, key=key)


def _top_bottom(l, s, chain: Chain, want_top: bool) -> Chain:
    """Add the missing minimal label to a chain: a vertex of the chain's
    minimal face (extremal in height), or, when the chain already starts
    at a vertex v, an edge at v inside the next face (extremal in slope:
    inside a 2-face with an edge either way, the up-edge or the down-edge;
    otherwise read off the heights of the vertex figure's sub-vertices).
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
    edges = l.faces_at_vertex(vi, 1)
    inside = [j for j, e in enumerate(edges) if l.down[f2] >> e & 1]
    if l.dims[f2] == 2:
        # a 2-face crossing the sweep hyperplane at v holds one up-edge,
        # its top, and one down-edge, its bottom
        up = _up_down(l, s, vi)[0]
        side = [j for j in inside if bool(up >> edges[j] & 1) == want_top]
        if len(side) != 1:
            raise CrossCheckError(f"2-face {f2} of chain {chain} does not cross the sweep at v")
        return (chain[0], edges[side[0]]) + rest
    # the figure's sub-vertex j is on the j-th edge at v, at a positive
    # multiple of its slope
    heights = vertex_figure(l, s, vi).direction.heights
    pick = (max if want_top else min)(inside, key=heights.__getitem__)
    return (chain[0], edges[pick]) + rest


def _partition(lat: FaceLattice, s: SweepDirection, wanted) -> list:
    """Recursive construction; returns (word, owner, chains) triples of
    the blocks whose owner is in wanted, only these built and checked."""
    if lat.dim == 0:
        return [("", 0, [()])]
    full = len(lat.masks) - 1

    # the chains the wanted vertices own: a chain without a vertex entry
    # belongs to the lowest vertex of its minimal face, so to w when that
    # face rises from w; a chain {w} < G to w when G rises from w or
    # crosses the sweep at w; and one where G falls to w, the top of the
    # chain after {w}, to that chain's owner
    singles, starts = [], []
    for w in wanted:
        v = lat.index[1 << w]
        rising, crossing = _up_down(lat, s, w)[3:]
        for fi in bits(rising | crossing):
            head = () if rising >> fi & 1 else (v,)
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

    # pre-blocks {G, top(G), bottom(G)}, keyed by the bottom face, for
    # every chain G without a vertex entry
    middle = []
    for ch in chains:
        if _has_vertex_entry(lat, ch):
            middle.append(ch)
            continue
        tau = _top_bottom(lat, s, ch, want_top=True)
        beta = _top_bottom(lat, s, ch, want_top=False)
        file_under(beta, beta)
        file_under(beta, tau)
        file_under(beta, ch)

    # middle chains join the pre-block of their top face
    for ch in middle:
        tau = _top_bottom(lat, s, ch, want_top=True)
        if key_of.get(tau) != tau:
            raise CrossCheckError(f"top face {tau} of middle {ch} not upper")
        file_under(tau, ch)

    # merge along the recursive partitions of the sections (word d...),
    # read in full, and of the vertex figures, read at the sub-vertices
    # above the sweep plane (word c...)
    records = []
    for vi in wanted:
        _, down, ups, _, crossing = _up_down(lat, s, vi)
        if not ups:  # the last vertex swept owns no chain
            continue
        if crossing:
            for word, mids in _section_blocks(lat, s, vi, crossing):
                keys = []
                for mid in mids:
                    if mid not in key_of:
                        raise CrossCheckError(f"section face {mid} was never filed")
                    keys.append(key_of[mid])
                records.append(("d" + word, vi, keys))
        for word, keys in _figure_blocks(lat, s, vi, down, ups):
            for key in keys:
                if key_of.get(key) != key:
                    raise CrossCheckError(f"figure block face {key} is not an upper face")
            records.append(("c" + word, vi, keys))

    # every filed pre-block is hit once and every block has its size, so
    # the filed chains are exactly the chains of the wanted owners
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


def _simplex_chains(lat: FaceLattice, vi: int, atoms: list) -> list:
    """The chains of a point or a segment at vi over the faces ``atoms``
    of lat, lifted to lat: {v}, and for a segment {v} with either end.
    Its partition is one block, 1 or c, whichever way it is swept."""
    v = lat.index[1 << vi]
    if len(atoms) == 1:  # a point: its one atom is the whole point
        return [(v,)]
    return [(v,), *((v, a) for a in atoms)]


def _figure_blocks(lat: FaceLattice, s: SweepDirection, vi: int, down: int, ups) -> list:
    """(word, chains lifted to lat) of the blocks of the vertex figure at
    vi owned by its sub-vertices ``ups`` above v.  Below dimension 3 the
    figure is a point or a segment over the edges at v, read off the
    order: its one block belongs to its lowest sub-vertex, which lies
    above v exactly when every edge at v goes up."""
    if lat.dim <= 2:
        if down:
            return []
        return [("c" * (lat.dim - 1), _simplex_chains(lat, vi, lat.faces_at_vertex(vi, 1)))]
    qv = vertex_figure(lat, s, vi)
    return [
        (word, [map_chain(qv, sc) for sc in sub_chains])
        for word, _, sub_chains in _partition(qv.lattice, qv.direction, ups)
    ]


def _section_blocks(lat: FaceLattice, s: SweepDirection, vi: int, crossing: int) -> list:
    """(word, chains lifted to lat) of every block of the section at vi,
    whose faces are {v} and ``crossing``.  Below dimension 4 the section
    is a point or a segment over the crossing 2-faces at v (a polygon's
    one, a 3-polytope's two), read off the order."""
    if lat.dim <= 3:
        mids = list(bits(crossing & lat.level[2]))
        if len(mids) != lat.dim - 1:
            raise CrossCheckError(
                f"the section at vertex {vi} has {len(mids)} vertices, not {lat.dim - 1}"
            )
        return [("c" * (lat.dim - 2), _simplex_chains(lat, vi, mids))]
    rv = sweep_section(lat, s, vi)
    every = range(rv.lattice.n_vertices)
    return [
        (word, [map_chain(rv, sc) for sc in sub_chains])
        for word, _, sub_chains in _partition(rv.lattice, rv.direction, every)
    ]


def build_partition(lat: FaceLattice, s: SweepDirection) -> list:
    """The full partition of the chains of P under the given sweep."""
    return [
        Block(word=w, owner=o, faces=frozenset(faces))
        for w, o, faces in _partition(lat, s, range(lat.n_vertices))
    ]


# ---------------------------------------------------------------------------
# Verification.


@dataclass
class PartitionReport:
    ok: bool
    failures: list


def verify_partition(blocks, chains, lat: FaceLattice) -> PartitionReport:
    """Check the four defining properties of the partition:

    1. the blocks are pairwise disjoint and cover all chains;
    2. each block has 3^(#c) * 4^(#d) faces;
    3. the block words sum to the cd-index computed by the flag route;
    4. within each block, the flag h-vector of the label sets expands to
       exactly the ab-expansion of the block's word.
    """
    failures = []
    seen: set = set()
    total = 0
    for b in blocks:
        total += len(b.faces)
        overlap = seen & b.faces
        if overlap:
            failures.append(f"block overlap on {sorted(overlap)[:3]}")
        seen |= b.faces
    if total != len(chains) or seen != set(chains):
        failures.append(
            f"cover failure: {total} faces in blocks vs {len(chains)} chains"
        )

    for b in blocks:
        if len(b.faces) != _size_law(b.word):
            failures.append(
                f"size law: block {b.word} has {len(b.faces)} faces, "
                f"wants {_size_law(b.word)}"
            )

    word_sum = CDPolynomial({})
    for b in blocks:
        word_sum = word_sum + CDPolynomial.word(b.word)
    phi = cd_index(lat)
    if word_sum != phi:
        failures.append(f"word sum {word_sum} != cd-index {phi}")

    d = lat.dim
    for b in blocks:
        counts = [0] * (1 << d)
        for ch in b.faces:
            counts[chain_sigma(lat, ch)] += 1
        h_block = flag_h(FlagVector(d, tuple(counts)))
        expected = ab_from_cd(CDPolynomial.word(b.word))
        if h_block != expected:
            failures.append(
                f"block {b.word}: flag polynomial {ab_index(h_block)} "
                f"!= {ab_index(expected)}"
            )
    return PartitionReport(ok=not failures, failures=failures)


def checked_partition(lat: FaceLattice, s: SweepDirection) -> tuple:
    """build_partition, enumerate_chains, and verify_partition on the two."""
    blocks = build_partition(lat, s)
    chains = enumerate_chains(lat)
    return blocks, chains, verify_partition(blocks, chains, lat)
