from fractions import Fraction as F

import pytest

import polysweep as ps
from conftest import default_direction, lat
from polysweep.flagvec import CDPolynomial, cd_index, flag_f
from polysweep.sweep import cd_sweep, choose_direction
from polysweep.truncpartition import (
    Block,
    _top_bottom,
    build_partition,
    chain_sigma,
    enumerate_chains,
    verify_partition,
)


# the chain with its missing minimal label added, highest or lowest
def top_face(l, s, chain):
    return _top_bottom(l, s, chain, want_top=True)


def bottom_face(l, s, chain):
    return _top_bottom(l, s, chain, want_top=False)


def sweep_order(s):
    return sorted(range(len(s.heights)), key=lambda i: s.heights[i])


def chain_count_oracle(spec):
    """Chains of proper nonempty faces = sum of all flag numbers."""
    return sum(flag_f(lat(spec)).values)


def test_enumerate_chains_counts():
    assert len(enumerate_chains(lat("polygon:5"))) == 21 == chain_count_oracle("polygon:5")
    assert len(enumerate_chains(lat("pyramid:polygon:4"))) == 99
    assert chain_count_oracle("pyramid:polygon:4") == 99
    assert len(enumerate_chains(lat("cube:1"))) == 3


def test_top_bottom_face_on_edges():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    for e in pent.by_dim[1]:
        hi = max(pent.vertices_of(e), key=lambda w: s.heights[w])
        lo = min(pent.vertices_of(e), key=lambda w: s.heights[w])
        assert top_face(pent, s, (e,)) == (pent.index[1 << hi], e)
        assert bottom_face(pent, s, (e,)) == (pent.index[1 << lo], e)


def test_top_bottom_face_empty_chain():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    order = sweep_order(s)
    assert top_face(pent, s, ()) == (pent.index[1 << order[-1]],)
    assert bottom_face(pent, s, ()) == (pent.index[1 << order[0]],)


def test_top_face_middle_slope_case():
    # at a middle vertex v of the pyramid base, the chain (v subset F)
    # extends by the steepest edge of F at v
    pyr = lat("pyramid:polygon:4")
    s = choose_direction((1, 0, F(1, 4)), pyr.coords)
    vi = sweep_order(s)[1]
    vface = pyr.index[1 << vi]
    fi = next(
        f
        for f in pyr.faces_at_vertex(vi, 2)
        if ps.classify_face(pyr, s, vi, f) == "middle"
    )
    tau = top_face(pyr, s, (vface, fi))
    beta = bottom_face(pyr, s, (vface, fi))
    assert len(tau) == 3 and pyr.dims[tau[1]] == 1
    # oracle: compare the slope keys of the two edges of F at v directly,
    # as support_normal computes them, not the figure heights
    _, slope = ps.support_normal(pyr, s, vi)
    edges = [e for e in pyr.faces_at_vertex(vi, 1) if pyr.masks[e] & ~pyr.masks[fi] == 0]
    assert tau[1] == max(edges, key=lambda e: slope[e])
    assert beta[1] == min(edges, key=lambda e: slope[e])


def test_partition_segment():
    seg, s = lat("cube:1"), default_direction("cube:1")
    blocks = build_partition(seg, s)
    assert len(blocks) == 1
    (b,) = blocks
    assert b.word == "c" and len(b.faces) == 3
    assert b.owner == sweep_order(s)[0]


def test_partition_pentagon_blocks():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    blocks = build_partition(pent, s)
    order = sweep_order(s)
    got = sorted((order.index(b.owner), b.word, len(b.faces)) for b in blocks)
    assert got == [(0, "cc", 9), (1, "d", 4), (2, "d", 4), (3, "d", 4)]
    assert verify_partition(blocks, enumerate_chains(pent), pent).ok


def test_partition_pyramid_blocks():
    pyr = lat("pyramid:polygon:4")
    s = choose_direction((1, 0, F(1, 4)), pyr.coords)
    blocks = build_partition(pyr, s)
    assert len(blocks) == 7
    order = sweep_order(s)
    per_owner = {}
    for b in blocks:
        per_owner.setdefault(order.index(b.owner), []).append(b.word)
    assert {k: sorted(v) for k, v in per_owner.items()} == {
        0: ["ccc", "cd"],
        1: ["cd", "dc"],
        2: ["cd", "dc"],  # the apex
        3: ["dc"],
    }
    assert sorted(len(b.faces) for b in blocks) == [12] * 6 + [27]
    assert sum(len(b.faces) for b in blocks) == 99
    assert verify_partition(blocks, enumerate_chains(pyr), pyr).ok


def test_block_count_equals_cd_coefficient_sum():
    for spec in ("polygon:6", "cube:3", "cross:3", "simplex:3"):
        l, s = lat(spec), default_direction(spec)
        blocks = build_partition(l, s)
        assert len(blocks) == sum(cd_index(l).terms.values())


def test_partition_verifies_on_corpus_3_polytopes():
    for spec in ("simplex:3", "cube:3", "cross:3", "pyramid:polygon:4",
                 "prism:polygon:3"):
        l = lat(spec)
        for p in (None, (3, 9, 27), (1, F(1, 3), 5)):
            s = choose_direction(p, l.coords) if p else default_direction(spec)
            blocks = build_partition(l, s)
            report = verify_partition(blocks, enumerate_chains(l), l)
            assert report.ok, (spec, p, report.failures)


def test_faces_without_vertex_share_block_with_top_face():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    blocks = build_partition(pent, s)
    where = {}
    for i, b in enumerate(blocks):
        for ch in b.faces:
            where[ch] = i
    for ch in enumerate_chains(pent):
        if not chain_sigma(pent, ch) & 1:  # no vertex in the chain
            assert where[ch] == where[top_face(pent, s, ch)]


def test_owner_height_bound():
    # every face in a block is a chain whose minimal face has its lowest
    # vertex at or above the owner
    for spec in ("polygon:5", "pyramid:polygon:4", "cube:3"):
        l, s = lat(spec), default_direction(spec)
        for b in build_partition(l, s):
            for ch in b.faces:
                f1 = ch[0] if ch else len(l.masks) - 1
                lowest = min(s.heights[w] for w in l.vertices_of(f1))
                assert lowest >= s.heights[b.owner]


def test_partition_dim4():
    for spec in ("simplex:4", "cube:4", "prism:cross:3"):
        l, s = lat(spec), default_direction(spec)
        blocks = build_partition(l, s)
        report = verify_partition(blocks, enumerate_chains(l), l)
        assert report.ok, (spec, report.failures)
        assert len(blocks) == sum(cd_index(l).terms.values())


def test_adversarial_swap_detected():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    blocks = build_partition(pent, s)
    # swap two faces with different label sets between two blocks
    b0, b1 = blocks[0], blocks[1]
    f0 = next(ch for ch in b0.faces if chain_sigma(pent, ch) == 0b01)
    f1 = next(ch for ch in b1.faces if chain_sigma(pent, ch) == 0b10)
    tampered = [
        Block(b0.word, b0.owner, (b0.faces - {f0}) | {f1}),
        Block(b1.word, b1.owner, (b1.faces - {f1}) | {f0}),
    ] + list(blocks[2:])
    report = verify_partition(tampered, enumerate_chains(pent), pent)
    assert not report.ok
    assert any("flag polynomial" in msg for msg in report.failures)


def test_verify_partition_signals_each_failure_mode():
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    blocks = build_partition(pent, s)
    chains = enumerate_chains(pent)
    some_face = next(iter(blocks[1].faces))
    # drop a face: cover and size law break
    dropped = [Block(blocks[1].word, blocks[1].owner,
                     blocks[1].faces - {some_face})] + [
        b for i, b in enumerate(blocks) if i != 1
    ]
    rep = verify_partition(dropped, chains, pent)
    assert not rep.ok and any("cover" in m for m in rep.failures)
    assert any("size law" in m for m in rep.failures)
    # change a word: the word sum breaks
    renamed = [Block("cc", blocks[1].owner, blocks[1].faces)] + [
        b for i, b in enumerate(blocks) if i != 1
    ]
    rep = verify_partition(renamed, chains, pent)
    assert not rep.ok and any("word sum" in m for m in rep.failures)


def test_block_sigma_multiset_matches_word():
    # each block's label-set counts invert to the ab-expansion of its
    # word, checked here on raw counts for the pentagon's big block
    pent, s = lat("polygon:5"), default_direction("polygon:5")
    blocks = build_partition(pent, s)
    big = next(b for b in blocks if b.word == "cc")
    counts = [0] * 4
    for ch in big.faces:
        counts[chain_sigma(pent, ch)] += 1
    # the masks of {}, {0}, {1}, {0, 1}
    assert counts == [1, 2, 2, 4]


@pytest.mark.parametrize(
    "spec",
    ["segment", "polygon:3", "polygon:5", "simplex:3", "cube:3", "cross:3",
     "pyramid:polygon:4", "prism:polygon:3", "pyramid:polygon:5", "simplex:4",
     "cross:4", "product:cube:2:polygon:3"],
)
def test_blocks_of_each_vertex_sum_to_its_sweep_part(spec):
    # the partition refines the sweep: the words of the blocks a vertex
    # owns add up to that vertex's part, in either sweep direction
    l = lat(spec)
    s1 = default_direction(spec)
    for s in (s1, choose_direction(tuple(-x for x in s1.p), l.coords)):
        owned = {vi: CDPolynomial.zero() for vi in range(l.n_vertices)}
        for b in build_partition(l, s):
            owned[b.owner] = owned[b.owner] + CDPolynomial.word(b.word)
        per, _ = cd_sweep(l, s)
        assert owned == per
