"""Flag f/h-vectors and the ab/cd word algebra.

Words live in plain strings over {a,b} or {c,d}; polynomials are dicts
word -> coefficient wrapped in a small noncommutative-polynomial class.
Coefficients are ints except where a computation genuinely produces
half-integers (the symmetric sweep), in which case they are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import NotCDExpressible
from .polytope import FaceLattice, bits


def subsets_of(d: int):
    """All subsets of {0, ..., d-1} as frozensets."""
    for s in range(1 << d):
        yield frozenset(i for i in range(d) if s >> i & 1)


@dataclass(frozen=True)
class FlagVector:
    """Values indexed by subsets S of {0, ..., d-1}."""

    d: int
    values: dict  # frozenset[int] -> int

    def __getitem__(self, S):
        return self.values[frozenset(S)]


def flag_f(l: FaceLattice) -> FlagVector:
    """f_S = number of chains of faces whose dimensions are exactly S.

    The chains of S ending at each face of dimension max S extend those
    of S minus max S, so every nonempty S costs one level step."""
    d = l.dim
    values = {frozenset(): 1}
    ending: dict[int, dict] = {}  # subset mask -> face -> chains ending there
    for mask, S in enumerate(subsets_of(d)):
        if not S:
            continue
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if rest:
            prev = ending[rest]
            below = l.level.get(rest.bit_length() - 1, 0)
            cur = {
                gi: sum(prev[fi] for fi in bits(l.down[gi] & below))
                for gi in l.by_dim.get(top, ())
            }
        else:
            cur = dict.fromkeys(l.by_dim.get(top, ()), 1)
        ending[mask] = cur
        values[S] = sum(cur.values())
    return FlagVector(d, values)


def flag_h(f: FlagVector) -> FlagVector:
    """h_S = sum over T <= S of (-1)^(|S|-|T|) f_T."""
    values = {}
    for S in subsets_of(f.d):
        total = 0
        for T in _subsets_of_set(S):
            sign = -1 if (len(S) - len(T)) % 2 else 1
            total += sign * f.values[T]
        values[S] = total
    return FlagVector(f.d, values)


def _subsets_of_set(S: frozenset):
    items = sorted(S)
    for s in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if s >> i & 1)


# ---------------------------------------------------------------------------
# Noncommutative word polynomials.


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class WordPoly:
    """Polynomial in noncommuting letters; multiplication concatenates."""

    letters = ""
    letter_degree: dict = {}

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

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return type(self)(out)

    def __mul__(self, other):
        if isinstance(other, WordPoly):
            if type(other) is not type(self):
                raise TypeError(f"cannot multiply by {type(other).__name__}")
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

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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


class ABPolynomial(WordPoly):
    letters = "ab"
    letter_degree = {"a": 1, "b": 1}


class CDPolynomial(WordPoly):
    letters = "cd"
    letter_degree = {"c": 1, "d": 2}


def ab_index(h: FlagVector) -> ABPolynomial:
    """Psi = sum over S of h_S w_S, where w_S has b exactly at the
    positions in S."""
    terms = {}
    for S, hs in h.values.items():
        w = "".join("b" if i in S else "a" for i in range(h.d))
        if hs:
            terms[w] = hs
    return ABPolynomial(terms)


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


def count_cd_words(d: int) -> int:
    """Fibonacci count F_d with F_0 = F_1 = 1."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    a, b = 1, 1
    for _ in range(d):
        a, b = b, a + b
    return a


_EXPAND = {"c": ("a", "b"), "d": ("ab", "ba")}


def ab_from_cd(phi: CDPolynomial) -> ABPolynomial:
    """Expand by substituting c = a+b and d = ab+ba."""
    out: dict = {}
    for w, c in phi.terms.items():
        partials = [""]
        for ch in w:
            partials = [p + opt for p in partials for opt in _EXPAND[ch]]
        for p in partials:
            out[p] = out.get(p, 0) + c
    return ABPolynomial(out)


def _marker(w: str) -> str:
    """Injective image of a cd-word under c -> a, d -> ab."""
    return w.replace("c", "a").replace("d", "ab")


def cd_from_ab(psi: ABPolynomial) -> CDPolynomial:
    """The unique Phi with Phi(a+b, ab+ba) = psi.

    Greedy triangular elimination over cd-words in lexicographic order:
    the coefficient of each word is the residual coefficient of its
    marker ab-word.  A nonzero final residual means psi is not a cd
    polynomial (the source poset was not Eulerian) and raises.
    """
    if psi.is_zero():
        return CDPolynomial.zero()
    d = psi.homogeneous_degree()
    residual = dict(psi.terms)
    out = {}
    for w in cd_words(d):
        c = residual.get(_marker(w), 0)
        if c == 0:
            continue
        out[w] = c
        for u, cu in ab_from_cd(CDPolynomial.word(w, c)).terms.items():
            nc = residual.get(u, 0) - cu
            if nc:
                residual[u] = nc
            else:
                residual.pop(u, None)
    if residual:
        raise NotCDExpressible(f"residual ab-terms remain: {residual}")
    return CDPolynomial(out)


def reverse_words(phi: CDPolynomial) -> CDPolynomial:
    return CDPolynomial({w[::-1]: c for w, c in phi.terms.items()})


def cd_index(l: FaceLattice) -> CDPolynomial:
    """The cd-index by the flag route: chains -> flag h -> ab -> cd."""
    return cd_from_ab(ab_index(flag_h(flag_f(l))))
