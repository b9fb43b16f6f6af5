import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import polysweep as ps
import polysweep.sweep as sweep_mod
import polysweep.truncpartition as tp
from cli_compare import DIRECTIONS as CORPUS_DIRECTIONS
from cli_compare import SPECS as CORPUS_SPECS
from conftest import default_direction, ladder_slopes, lat
from cut_partition import cut_blocks
from polysweep.cli import main, parse_direction, parse_input
from polysweep.errors import CrossCheckError
from polysweep.flagvec import CDPolynomial, cd_index, flag_f
from polysweep.sweep import _up_down, cd_sweep, choose_direction, vertex_figure
from polysweep.truncpartition import (
    Block,
    _has_vertex_entry,
    _partition,
    _top_bottom,
    build_partition,
    chain_sigma,
    checked_partition,
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
    # oracle: compare the slopes of the two edges of F at v directly,
    # over Fraction, not the figure heights
    _, slope = ladder_slopes(pyr, s, vi)
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


def figures_below(l, s, levels):
    """(figure, the sub-vertices above its vertex) at every vertex but the
    last swept, and, for levels > 1, the same inside those figures."""
    out = []
    for vi in range(l.n_vertices):
        ups = _up_down(l, s, vi)[2]
        if ups:
            qv = vertex_figure(l, s, vi)
            out.append((qv, ups))
            if levels > 1:
                out.extend(figures_below(qv.lattice, qv.direction, levels - 1))
    return out


def as_blocks(triples):
    return [(word, owner, frozenset(chains)) for word, owner, chains in triples]


@pytest.mark.parametrize("spec", ["cube:4", "cross:4", "pyramid:cube:3", "prism:cross:3"])
def test_figure_partition_of_the_owners_above_is_the_full_ones_blocks(spec):
    # a figure partitioned for the sub-vertices above v has exactly the
    # blocks of those owners in the figure's full partition, in order
    l, s = lat(spec), default_direction(spec)
    figures = figures_below(l, s, 2)
    assert len(figures) > l.n_vertices
    for qv, ups in figures:
        q, sq = qv.lattice, qv.direction
        full = as_blocks(_partition(q, sq, range(q.n_vertices)))
        assert verify_partition([Block(*b) for b in full], enumerate_chains(q), q).ok
        assert as_blocks(_partition(q, sq, ups)) == [b for b in full if b[1] in ups]


def partition_calls(monkeypatch, spec) -> int:
    """The _partition calls of checked_partition under the default direction."""
    calls = []
    real = tp._partition

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tp, "_partition", counted)
    l = lat(spec)
    _, _, report = checked_partition(l, default_direction(spec))
    assert report.ok
    return len(calls)


def test_partition_builds_only_the_figure_blocks_it_reads(monkeypatch):
    # 448 and 457 when every figure was partitioned in full, 161 and 145
    # when the figures of polygons and the sections of 3-polytopes were
    # still cut and partitioned
    assert partition_calls(monkeypatch, "cube:4") == 47
    assert partition_calls(monkeypatch, "cross:4") == 31


SMALL_SPECS = [spec for spec, d in CORPUS_SPECS.items() if d <= 4]


def corpus_directions(l):
    """The ladder and, above dimension 0, the corpus direction."""
    yield ps.choose_direction(None, l.coords)
    if l.dim:
        yield ps.choose_direction(parse_direction(CORPUS_DIRECTIONS[l.dim]), l.coords)


def assert_cut_blocks(l, s):
    got = [(b.word, b.owner, b.faces) for b in build_partition(l, s)]
    assert got == cut_blocks(l, s)


@pytest.mark.parametrize("spec", SMALL_SPECS)
def test_partition_equals_the_cut_partition_on_the_corpus(spec):
    # block by block, word, owner and chains, the partition that reads
    # points and segments off the order equals the one that cuts them
    l = lat(spec)
    for s in corpus_directions(l):
        assert_cut_blocks(l, s)


@st.composite
def small_polytopes(draw):
    """A polytope of dimension 1-4: random integer points, each point the
    hull rejects as a non-vertex dropped, or the polar of one."""
    d = draw(st.integers(1, 4))
    pts = draw(st.lists(
        st.tuples(*[st.integers(-4, 4)] * d), min_size=d + 1, max_size=d + 3, unique=True
    ))
    while True:
        try:
            l = ps.hull_lattice(ps.VRep(d, tuple(pts)))
            break
        except ps.NonVertexPoint as e:
            del pts[e.index]
        except ps.NotFullDimensional:
            assume(False)
    if draw(st.booleans()):
        l = ps.hull_lattice(ps.polar_dual(l))
    return l


@settings(max_examples=60, deadline=None)
@given(small_polytopes(), st.data())
def test_partition_equals_the_cut_partition_on_random_polytopes(l, data):
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    p = data.draw(st.tuples(*[entries] * l.dim))
    try:
        s = ps.choose_direction(p, l.coords)
    except ps.NotGeneric:
        assume(False)
    event(f"dimension {l.dim}")
    assert_cut_blocks(l, s)


@pytest.mark.parametrize("k", range(3, 9))
def test_polygon_blocks_in_closed_form(k):
    # the lowest vertex owns c^2, the figure of its two up-edges; each
    # vertex strictly between owns d, its section; the highest owns none
    l = lat(f"polygon:{k}")
    rng = random.Random(k)
    directions = []
    while len(directions) < 4:
        try:
            p = (F(rng.randint(-20, 20), rng.randint(1, 9)), rng.choice((-1, 1)))
            directions.append(ps.choose_direction(p, l.coords))
        except ps.NotGeneric:
            pass
    for s in directions:
        order = sweep_order(s)
        blocks = build_partition(l, s)
        assert sorted((b.word, len(b.faces)) for b in blocks) == [("cc", 9)] + [("d", 4)] * (k - 2)
        assert next(b.owner for b in blocks if b.word == "cc") == order[0]
        assert sorted(b.owner for b in blocks if b.word == "d") == sorted(order[1:-1])
        assert sum(len(b.faces) for b in blocks) == 4 * k + 1
        words = sum((CDPolynomial.word(b.word) for b in blocks), CDPolynomial.zero())
        assert words == CDPolynomial({"cc": 1, "d": k - 2})


def test_partition_cuts_no_point_and_no_segment(monkeypatch):
    """checked_partition asks for a vertex figure only on lattices of
    dimension >= 3 and for a cut section only on lattices of dimension
    >= 4: figures and sections of lower dimension are points and
    segments, read off the order."""
    asked = []

    def spy(name, fn):
        def wrapper(lat_, s, vi):
            asked.append((name, lat_.dim))
            return fn(lat_, s, vi)
        return wrapper

    for name in ("vertex_figure", "sweep_section"):
        for mod in (sweep_mod, tp):
            monkeypatch.setattr(mod, name, spy(name, getattr(sweep_mod, name)))
    for spec in SMALL_SPECS:
        l = ps.hull_lattice(parse_input(spec))
        for s in corpus_directions(l):
            _, _, report = checked_partition(l, s)
            assert report.ok, spec
    least = {name: min(dim for n, dim in asked if n == name) for name, _ in asked}
    assert least == {"vertex_figure": 3, "sweep_section": 4}


def install_inner_mutant(monkeypatch, kind) -> list:
    """Make the first faulty level the one below the top.  "drop": it
    loses the merge record of one sub-block; "twice": it files the top of
    one chain also in the pre-block of the next.  Returns the list of the
    depths, the top level at 1, through which a CrossCheckError passed."""
    real_partition, real_top_bottom = tp._partition, tp._top_bottom
    depth, raised, done = [0], [], []
    tops = {}

    def partition(lat, s, wanted):
        depth[0] += 1
        try:
            out = real_partition(lat, s, wanted)
        except CrossCheckError:
            raised.append(depth[0])
            raise
        finally:
            depth[0] -= 1
        if kind == "drop" and depth[0] == 2 and not done:
            done.append(lat)
            return out[:-1]
        return out

    def top_bottom(lat, s, chain, want_top):
        got = real_top_bottom(lat, s, chain, want_top)
        if kind == "twice" and depth[0] == 2 and want_top and not done:
            if not _has_vertex_entry(lat, chain):
                seen = tops.setdefault(id(lat), [])
                seen.append(got)
                if len(seen) == 2:
                    done.append(lat)
                    return seen[0]
        return got

    monkeypatch.setattr(tp, "_partition", partition)
    monkeypatch.setattr(tp, "_top_bottom", top_bottom)
    return raised


INNER_MUTANTS = {
    "drop": "merges do not hit every pre-block exactly once",
    "twice": "filed under two pre-blocks",
}


@pytest.mark.parametrize("kind", sorted(INNER_MUTANTS))
def test_inner_level_mutants_raise_at_that_level(monkeypatch, kind):
    raised = install_inner_mutant(monkeypatch, kind)
    l, s = lat("cross:4"), default_direction("cross:4")
    with pytest.raises(CrossCheckError, match=INNER_MUTANTS[kind]):
        checked_partition(l, s)
    assert raised[0] == 2


@pytest.mark.parametrize("kind", sorted(INNER_MUTANTS))
@pytest.mark.parametrize("command", ["partition", "verify"])
def test_inner_level_mutants_exit_3(monkeypatch, capsys, kind, command):
    raised = install_inner_mutant(monkeypatch, kind)
    assert main([command, "--input", "cross:4"]) == 3
    assert raised[0] == 2
    assert INNER_MUTANTS[kind] in capsys.readouterr().err
