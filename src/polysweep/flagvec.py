"""Flag f/h-vectors, the ab-index and the cd word algebra.

A subset S of the ranks {0, ..., d-1} is an int mask with bit i set for
each i in S, and a flag vector is a tuple with one value per mask.  The
flag h-vector is the ab-index Psi = sum over S of h_S u_S, where the
ab-word u_S has b exactly at the positions in S, so one tuple holds
both.  cd-polynomials are dicts word -> coefficient wrapped in a small
noncommutative-polynomial class.  Coefficients are ints except where a
computation genuinely produces half-integers (the symmetric sweep), in
which case they are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotCDExpressible
from .polytope import FaceLattice, bits, memoized


@dataclass(frozen=True)
class FlagVector:
    """Values indexed by subset masks of {0, ..., d-1}; as the flag
    h-vector, the coefficients of the ab-index."""

    d: int
    values: tuple  # values[mask]


def chain_counts(l: FaceLattice, faces: int, shift: int, seed=None) -> FlagVector:
    """The chains of the faces in the face-index mask ``faces`` topped by
    its last face, face i ranked l.dims[i] - shift: value m counts those
    whose other faces have the ranks in m.  Face i starts chains with the
    counts seed(i), by default the chain of i alone, and extends those of
    the faces below it, added one rank at a time.  Every chain count of
    the package is this recursion (Bayer and Billera)."""
    counted = {}
    levels = [l.level.get(k, 0) & faces for k in range(shift, l.dim + 1)]
    for i in bits(faces):
        chains = [0 if seed else 1]
        for r in range(l.dims[i] - shift):
            same = [counted[j] for j in bits(l.down[i] & levels[r])]
            chains += map(sum, zip(*same)) if same else [0] * (1 << r)
        counted[i] = [*map(sum, zip(chains, seed(i)))] if seed else chains
    top = faces.bit_length() - 1
    return FlagVector(l.dims[top] - shift, tuple(counted[top]))


def flag_f(l: FaceLattice) -> FlagVector:
    """f_S = number of chains of faces whose dimensions are exactly S:
    the chains of the nonempty faces topped by P."""
    return chain_counts(l, (1 << len(l.masks)) - 2, 0)


def flag_h(f: FlagVector) -> FlagVector:
    """h_S = sum over T <= S of (-1)^(|S|-|T|) f_T: the Moebius
    transform, taken one rank at a time."""
    h = list(f.values)
    for k in range(f.d):
        bit = 1 << k
        for m in range(len(h)):
            if m & bit:
                h[m] -= h[m ^ bit]
    return FlagVector(f.d, tuple(h))


def ab_index(h: FlagVector) -> dict:
    """Psi = sum over S of h_S u_S, where the ab-word u_S has b exactly
    at the bits of S; as ab-word -> nonzero coefficient, in word order."""
    words = ("".join("ab"[m >> i & 1] for i in range(h.d)) for m in range(len(h.values)))
    return dict(sorted((w, c) for w, c in zip(words, h.values) if c))


# ---------------------------------------------------------------------------
# Noncommutative cd-polynomials.


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class CDPolynomial:
    """Polynomial in the noncommuting letters c (degree 1) and d
    (degree 2); multiplication concatenates."""

    letters = "cd"
    letter_degree = {"c": 1, "d": 2}

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = _norm_coeff(c)
                if c != 0:
                    if not all(ch in self.letters for ch in w):
                        raise ValueError(f"word {w!r} is not over {self.letters!r}")
                    self.terms[w] = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({"": 1})

    @classmethod
    def word(cls, w, coeff=1):
        return cls({w: coeff})

    @classmethod
    def word_degree(cls, w: str) -> int:
        return sum(cls.letter_degree[ch] for ch in w)

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int:
        degs = {self.word_degree(w) for w in self.terms}
        if len(degs) != 1:
            raise ValueError(f"not homogeneous: {self}")
        return degs.pop()

    def coefficient(self, w: str):
        return self.terms.get(w, 0)

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return type(self)(out)

    def __mul__(self, other):
        if isinstance(other, CDPolynomial):
            out: dict = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    w = u + v
                    out[w] = out.get(w, 0) + cu * cv
            return type(self)(out)
        return type(self)({w: c * other for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        return type(self)({w: c * scalar for w, c in self.terms.items()})

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def is_integral(self) -> bool:
        return all(not isinstance(c, Fraction) for c in self.terms.values())

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (self.word_degree(w), w)):
            c = self.terms[w]
            if not w:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(w)
            else:
                parts.append(f"{c}{w}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        out = {}
        for w in sorted(self.terms, key=lambda w: (self.word_degree(w), w)):
            c = self.terms[w]
            out[w if w else "1"] = str(c) if isinstance(c, Fraction) else c
        return out


@lru_cache(maxsize=None)
def cd_words(degree: int) -> tuple:
    """All cd-words of the given degree, in lexicographic order (c < d)."""
    if degree < 0:
        return ()
    if degree == 0:
        return ("",)
    words = ["c" + w for w in cd_words(degree - 1)]
    words += ["d" + w for w in cd_words(degree - 2)]
    return tuple(sorted(words))


@lru_cache(maxsize=None)
def _expand(w: str) -> tuple:
    """The masks of the ab-words of w(a+b, ab+ba): c puts a or b at its
    position, d puts ab (b at its second position) or ba (b at its
    first).  The first mask is w's marker, the image of c -> a, d -> ab,
    which no other cd-word of the same degree shares."""
    masks, i = [0], 0
    for ch in w:
        if ch == "c":
            masks += [m | 1 << i for m in masks]
            i += 1
        else:
            masks = [m | 2 << i for m in masks] + [m | 1 << i for m in masks]
            i += 2
    return tuple(masks)


def ab_from_cd(phi: CDPolynomial) -> FlagVector:
    """The flag h-vector of phi(a+b, ab+ba); phi must be homogeneous."""
    d = phi.homogeneous_degree()
    values = [0] * (1 << d)
    for w, c in phi.terms.items():
        for m in _expand(w):
            values[m] += c
    return FlagVector(d, tuple(values))


def cd_from_ab(h: FlagVector) -> CDPolynomial:
    """The unique Phi with Phi(a+b, ab+ba) = the ab-index of h.

    Greedy triangular elimination over cd-words in lexicographic order:
    the coefficient of each word is the residual coefficient of its
    marker ab-word.  A nonzero final residual means h is not the flag
    h-vector of a cd polynomial (the source poset was not Eulerian) and
    raises.
    """
    residual = list(h.values)
    out = {}
    for w in cd_words(h.d):
        masks = _expand(w)
        c = residual[masks[0]]
        if c:
            out[w] = c
            for m in masks:
                residual[m] -= c
    if any(residual):
        left = ab_index(FlagVector(h.d, tuple(residual)))
        raise NotCDExpressible(f"residual ab-terms remain: {left}")
    return CDPolynomial(out)


def reverse_words(phi: CDPolynomial) -> CDPolynomial:
    return CDPolynomial({w[::-1]: c for w, c in phi.terms.items()})


@memoized
def cd_index(l: FaceLattice) -> CDPolynomial:
    """The cd-index by the flag route: chains -> flag h -> ab -> cd,
    once per lattice; every caller shares the result, which nothing
    mutates."""
    return cd_from_ab(flag_h(flag_f(l)))
