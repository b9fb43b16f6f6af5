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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CrossCheckError
from .flagvec import CDPolynomial, FlagVector, ab_from_cd, ab_index, cd_index, flag_h
from .polytope import FaceLattice, bits
from .sweep import (
    LOWER,
    UPPER,
    SweepDirection,
    classify_face,
    map_chain,
    sweep_section,
    vertex_figure,
)

Chain = tuple  # tuple[int, ...]: lattice face indices, dimensions ascending


@dataclass(frozen=True)
class Block:
    """One block of the partition: a set of chains, one cd-word, and the
    vertex whose sweep step created it."""

    word: str
    owner: int
    faces: frozenset  # frozenset[Chain]

    def size_law(self) -> int:
        return 3 ** self.word.count("c") * 4 ** self.word.count("d")


def enumerate_chains(l: FaceLattice) -> list:
    """All chains of proper nonempty faces, including the empty chain."""
    proper = sum(l.level.get(k, 0) for k in range(l.dim))
    chains: list[Chain] = [()]
    stack: list[Chain] = [()]
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


def _extreme_vertex(l: FaceLattice, s: SweepDirection, fi: int, want_max: bool) -> int:
    vs = l.vertices_of(fi)
    key = s.heights.__getitem__
    return max(vs, key=key) if want_max else min(vs, key=key)


def _top_bottom(l, s, chain: Chain, want_top: bool) -> Chain:
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


def _partition(lat: FaceLattice, s: SweepDirection) -> list:
    """Recursive construction; returns (word, owner, chains) triples."""
    if lat.dim == 0:
        return [("", 0, [()])]
    full = len(lat.masks) - 1
    chains = enumerate_chains(lat)

    members: dict[Chain, set] = {}
    key_of: dict[Chain, Chain] = {}

    def file_under(key: Chain, ch: Chain):
        prev = key_of.get(ch)
        if prev is not None and prev != key:
            raise CrossCheckError(f"chain {ch} filed under two pre-blocks")
        key_of[ch] = key
        members.setdefault(key, set()).add(ch)

    # pre-blocks {G, top(G), bottom(G)}, keyed by the bottom face, for
    # every chain without a vertex entry
    with_vertex = []
    for ch in chains:
        if _has_vertex_entry(lat, ch):
            with_vertex.append(ch)
            continue
        tau = _top_bottom(lat, s, ch, want_top=True)
        beta = _top_bottom(lat, s, ch, want_top=False)
        file_under(beta, beta)
        file_under(beta, tau)
        file_under(beta, ch)

    # middle chains, as decided by their minimal face above the vertex,
    # join the pre-block of their top face
    for ch in with_vertex:
        vi = lat.vertices_of(ch[0])[0]
        cls = classify_face(lat, s, vi, ch[1] if len(ch) > 1 else full)
        if cls == UPPER:
            if key_of.get(ch) != ch:
                raise CrossCheckError(f"upper face {ch} is not its own key")
        elif cls == LOWER:
            if ch not in key_of:
                raise CrossCheckError(f"lower face {ch} was never filed")
        else:
            tau = _top_bottom(lat, s, ch, want_top=True)
            if key_of.get(tau) != tau:
                raise CrossCheckError(f"top face {tau} of middle {ch} not upper")
            file_under(tau, ch)

    if sum(len(v) for v in members.values()) != len(chains):
        raise CrossCheckError("pre-blocks do not cover the chains")

    # merge along the recursive partitions of the sections (word d...)
    # and of the vertex figures above the sweep plane (word c...)
    records = []
    top_v = max(range(lat.n_vertices), key=lambda i: s.heights[i])
    for vi in range(lat.n_vertices):
        if vi == top_v:
            continue
        qv = vertex_figure(lat, s, vi)
        rv = sweep_section(lat, s, vi)
        if rv is not None:
            for word, _, sub_chains in _partition(rv.lattice, rv.direction):
                keys = []
                for sc in sub_chains:
                    mid = map_chain(rv, sc)
                    keys.append(key_of[mid])
                records.append(("d" + word, vi, keys))
        for word, owner_w, sub_chains in _partition(qv.lattice, qv.direction):
            # v sits at height 0 in its figure
            if qv.direction.heights[owner_w] > 0:
                keys = []
                for sc in sub_chains:
                    up = map_chain(qv, sc)
                    if key_of.get(up) != up:
                        raise CrossCheckError(
                            f"figure block face {up} is not an upper face"
                        )
                    keys.append(up)
                records.append(("c" + word, vi, keys))

    used = [k for _, _, keys in records for k in keys]
    if len(used) != len(set(used)) or set(used) != set(members):
        raise CrossCheckError("merges do not hit every pre-block exactly once")

    out = []
    for word, owner, keys in records:
        faces: list[Chain] = []
        for k in keys:
            faces.extend(members[k])
        out.append((word, owner, faces))
    return out


def build_partition(lat: FaceLattice, s: SweepDirection) -> list:
    """The full partition of the chains of P under the given sweep."""
    return [
        Block(word=w, owner=o, faces=frozenset(faces))
        for w, o, faces in _partition(lat, s)
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
        if len(b.faces) != b.size_law():
            failures.append(
                f"size law: block {b.word} has {len(b.faces)} faces, "
                f"wants {b.size_law()}"
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
