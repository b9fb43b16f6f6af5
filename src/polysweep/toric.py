"""The toric h-vector, its g-vector, the c/d operators, and the extended
toric h-vector.

Vectors are plain tuples (h_0, ..., h_d).  The c and d operators act on
the right in the classical notation; here ``act_word`` applies the
letters of a word left to right starting from the seed (1), so that the
full cd-index of a polytope, applied to (1), returns its toric h-vector.
Intermediate vectors can be negative; symmetry and unimodality are facts
about final results only.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import sweep
from .errors import CrossCheckError, NotInImage
from .exactnum import vadd, vscale, vsub
from .flagvec import CDPolynomial, _norm_coeff, cd_words, reverse_words
from .polytope import FaceLattice, bits
from .sweep import SweepDirection


def normalize_vec(h) -> tuple:
    return tuple(_norm_coeff(x) for x in h)


def zeros(n: int) -> tuple:
    return (0,) * n


def g_from_h(h) -> tuple:
    """(g_0, ..., g_{floor(d/2)}) with g_0 = h_0, g_i = h_i - h_{i-1}."""
    d = len(h) - 1
    m = d // 2
    return tuple(h[0] if i == 0 else h[i] - h[i - 1] for i in range(m + 1))


def op_c(h) -> tuple:
    """Length d+1 -> d+2: reflect the g-vector, inserting a middle zero
    when d is odd."""
    d = len(h) - 1
    g = g_from_h(h)
    if d % 2 == 0:
        return g + g[::-1]
    return g + (0,) + g[::-1]


def op_d(h) -> tuple:
    """Length d+1 -> d+3: the middle g entry alone for even d, zero for
    odd d.  An empty input (a word too long to occur) gives (0, 0)."""
    n = len(h)
    if n == 0:
        return (0, 0)
    d = n - 1
    out = [0] * (d + 3)
    if d % 2 == 0:
        g = g_from_h(h)
        out[(d + 2) // 2] = g[d // 2]
    return tuple(out)


def act_word(seed, w: str) -> tuple:
    """Apply the letters of w to the seed vector, first letter first."""
    h = tuple(seed)
    for ch in w:
        h = op_c(h) if ch == "c" else op_d(h)
    return h


@lru_cache(maxsize=None)
def _word_vector(w: str) -> tuple:
    """act_word((1,), w), computed once per word: every cd-polynomial
    read as a vector reads its words on the seed (1)."""
    return act_word((1,), w)


def toric_from_cd(phi: CDPolynomial, degree: int | None = None) -> tuple:
    """h = (1) Phi: sum of coeff * act_word((1), word).

    ``degree`` pins the answer length for a zero polynomial; otherwise it
    is inferred from the (homogeneous) polynomial.
    """
    if degree is None:
        degree = phi.homogeneous_degree()
    total = zeros(degree + 1)
    for w, c in phi.terms.items():
        if CDPolynomial.word_degree(w) != degree:
            raise ValueError(f"word {w!r} does not have degree {degree}")
        total = vadd(total, vscale(c, _word_vector(w)))
    return normalize_vec(total)


def toric_dual_h(phi: CDPolynomial, degree: int) -> tuple:
    """Toric h-vector of the dual of a polytope with cd-index phi: reverse
    the words, then act on (1).  Linear in phi, and it turns c phi into
    op_c of phi's vector and d phi into op_d of it."""
    return toric_from_cd(reverse_words(phi), degree=degree)


# ---------------------------------------------------------------------------
# Definition route: the g/h recursion over the face lattice.


def _polymul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def toric_h_definition(l: FaceLattice) -> tuple:
    """h(boundary of P) by the recursion
    h = sum over proper faces G of g(boundary of G) * (x-1)^(d-1-dim G),
    with g = h = 1 for the empty face, memoized face by face.  The
    factor depends on G only through dim G, so the g of the faces of
    each dimension are summed first."""
    x_minus_1 = [
        [(-1) ** (m - i) * comb(m, i) for i in range(m + 1)] for m in range(l.dim + 1)
    ]
    g_cache: dict[int, list] = {0: [1]}  # face index -> ascending coefficients
    h = None
    for fi in range(1, len(l.masks)):
        k = l.dims[fi]
        coeffs = [0] * (k + 1)
        for j in range(-1, k):
            # faces of one dimension have g-vectors of one length
            same_dim = [g_cache[gj] for gj in bits(l.down[fi] & l.level.get(j, 0))]
            if same_dim:
                g_sum = [sum(c) for c in zip(*same_dim)]
                for i, x in enumerate(_polymul(g_sum, x_minus_1[k - 1 - j])):
                    coeffs[i] += x
        h = tuple(coeffs[k - i] for i in range(k + 1))
        g_cache[fi] = list(g_from_h(h))
    if h is None:
        raise CrossCheckError("the lattice has no top face")
    return normalize_vec(h)


# ---------------------------------------------------------------------------
# Sweep routes.  Sweeping P accumulates the toric h-vector of the dual
# of P: each cd-index part of the sweep, read by ``toric_dual_h``.  As
# that reading is linear and carries the letters c and d to op_c and
# op_d, every part equals what the operators would accumulate.


def toric_sweep(
    lat: FaceLattice, s: SweepDirection, deep: bool = False
) -> tuple[dict, tuple]:
    """Per-vertex contributions to h(boundary of P dual) and their sum:
    the parts of ``sweep.cd_sweep``, each read as a vector; deep as for
    it, so a deep sweep checks cd-indices."""
    per, total = sweep.cd_sweep(lat, s, deep)
    return {vi: toric_dual_h(phi, lat.dim) for vi, phi in per.items()}, toric_dual_h(total, lat.dim)


def toric_sweep_symmetric(lat: FaceLattice, s: SweepDirection) -> tuple[dict, tuple]:
    """Direction-averaged form: each vertex contributes
    (h(dQ*)c + h(dR*)(2d - c^2)) / 2, the part of
    ``sweep.cd_sweep_symmetric`` read as a vector.  Entries may be
    half-integral per vertex; the total is integral."""
    per, total = sweep.cd_sweep_symmetric(lat, s)
    return {vi: toric_dual_h(phi, lat.dim) for vi, phi in per.items()}, toric_dual_h(total, lat.dim)


# ---------------------------------------------------------------------------
# Extended toric h-vector.


def d_prefixed_words(degree: int) -> list:
    """The empty word plus every cd-word of degree <= ``degree`` whose
    first letter is d."""
    out = [""]
    for k in range(2, degree + 1):
        out.extend(w for w in cd_words(k) if w.startswith("d"))
    return out


def extended_toric(phi: CDPolynomial, degree: int | None = None) -> dict:
    """h^w = (1) Phi^w for each word w in the d-prefixed family, where
    Phi^w collects the terms of Phi ending in w, suffix removed."""
    if degree is None:
        degree = phi.homogeneous_degree()
    out = {}
    for w in d_prefixed_words(degree):
        k = CDPolynomial.word_degree(w)
        parts = {
            u[: len(u) - len(w)]: c for u, c in phi.terms.items() if u.endswith(w)
        }
        out[w] = toric_from_cd(CDPolynomial(parts), degree=degree - k)
    return out


def invert_c(s) -> tuple:
    """The unique symmetric h with op_c(h) = s.

    s must mirror to itself and, for odd target degree, have middle
    entry zero; otherwise NotInImage.
    """
    n = len(s)
    if n < 2:
        raise NotInImage("input too short")
    d = n - 2
    if tuple(s) != tuple(reversed(s)):
        raise NotInImage(f"not mirror-symmetric: {s}")
    m = d // 2
    if d % 2 == 1 and s[m + 1] != 0:
        raise NotInImage(f"odd-degree middle entry must be zero: {s}")
    h = [0] * (d + 1)
    acc = 0
    for i in range(m + 1):
        acc += s[i]
        h[i] = acc
        h[d - i] = acc
    return normalize_vec(h)


def reconstruct_cd(hhat: dict, degree: int) -> CDPolynomial:
    """Rebuild the cd-index from the d-prefixed vector family.

    Every word is the empty word, starts with d (given), or is c.w'; in
    the last case h^{cw'} = invert_c(h^{w'} - op_d(h^{dw'})).  The
    coefficient of each degree-d word is the single entry of its vector.
    """
    given = {("" if k == "1" else k): tuple(v) for k, v in hhat.items()}
    table: dict[str, tuple] = {"": tuple(given[""])}
    if len(table[""]) != degree + 1:
        raise ValueError("entry for the empty word has the wrong length")
    for k in range(1, degree + 1):
        for w in cd_words(k):
            if w.startswith("d"):
                table[w] = given.get(w, zeros(degree - k + 1))
                if len(table[w]) != degree - k + 1:
                    raise ValueError(f"entry for {w} has the wrong length")
            else:
                rest = w[1:]
                # h^{dw'} starts with d, so it is given (zero if absent
                # or if its degree would exceed the total degree)
                hd = given.get("d" + rest, zeros(degree - k))
                table[w] = invert_c(vsub(table[rest], op_d(hd)))
    terms = {}
    for w in cd_words(degree):
        (coeff,) = table[w]
        if coeff:
            terms[w] = coeff
    return CDPolynomial(terms)


# ---------------------------------------------------------------------------
# Predicates used by the verification suites.


def is_symmetric(h) -> bool:
    return tuple(h) == tuple(reversed(h))


def is_unimodal(h) -> bool:
    mid = len(h) // 2
    up = all(h[i] <= h[i + 1] for i in range(mid))
    down = all(h[i] >= h[i + 1] for i in range(mid, len(h) - 1))
    return up and down
