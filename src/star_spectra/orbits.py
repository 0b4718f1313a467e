"""Periodic orbits of star graphs as cyclic words, and their weighted counts.

An orbit that makes k out-and-back excursions from the center (period 2k) is
encoded by the length-k cyclic word of visited edge labels.  Orbits are the
same iff their words are cyclic rotations of each other; the canonical
representative is the lexicographically minimal rotation.

A word's degeneracy class is the triple (j, n, m): j distinct letters, visit
counts n_i, and cyclic block counts m_i (maximal runs).  The class fixes both
the scattering amplitude and the weighted orbit count

    Q_n^m = sum over orbits in the class of 1/r,

computed here two independent ways -- exhaustive enumeration and the closed
combinatorial formula -- in exact rational arithmetic.  `class_weight` gives
the trace formula's weight of each visit-count class, the formula's sum over
block counts taken in closed form; `necklaces` lists every cyclic word, the
word-by-word oracle the tests hold that class sum against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial

from ._guards import require_int

__all__ = [
    "OrbitClass",
    "repetition_number",
    "enumerate_class",
    "q_bruteforce",
    "q_formula",
    "class_weight",
    "necklaces",
]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class OrbitClass:
    j: int
    n: tuple
    m: tuple

    def __post_init__(self):
        require_int("j", self.j)
        if not (len(self.n) == len(self.m) == self.j >= 1):
            raise ValueError("n and m must both have j entries")
        for ni, mi in zip(self.n, self.m):
            require_int("n_i", ni)
            require_int("m_i", mi)
            if not 1 <= mi <= ni:
                raise ValueError(f"need 1 <= m_i <= n_i, got m={mi}, n={ni}")

    @property
    def half_period(self) -> int:
        return sum(self.n)

    @property
    def transmissions(self) -> int:
        return sum(self.m)


def repetition_number(word) -> int:
    """Largest r such that the word is an r-fold repeat of a primitive word."""
    w = tuple(word)
    k = len(w)
    if k == 0:
        raise ValueError("empty word")
    for p in range(1, k + 1):
        if k % p == 0 and w[:p] * (k // p) == w:
            return k // p
    return 1


def _min_rotation(w: str) -> str:
    return min(w[i:] + w[:i] for i in range(len(w)))


def enumerate_class(cls: OrbitClass) -> list:
    """One canonical word per cyclic class matching (j, n, m); exhaustive.

    Returns [] when no word realizes the requested block structure (for
    example j=2 demands equally many blocks of both letters).  Words are built
    with the first position starting an 'a' block (and, for j >= 2, the last
    letter differing from 'a') so linear block counts equal cyclic ones; the
    canonical minimal rotation then dedups the m_a-fold redundancy.
    """
    letters = _ALPHABET[: cls.j]
    if cls.j == 1:
        return [letters[0] * cls.n[0]] if cls.m[0] == 1 else []
    found = set()
    counts = dict(zip(letters, cls.n))
    blocks = dict(zip(letters, cls.m))
    k = cls.half_period

    def extend(prefix, counts, blocks, last):
        pos = len(prefix)
        if pos == k:
            found.add(_min_rotation("".join(prefix)))
            return
        remaining = k - pos
        for c in letters:
            if counts[c] == 0:
                continue
            opens_block = c != last
            if opens_block and blocks[c] == 0:
                continue
            if pos == k - 1 and c == letters[0]:
                continue  # keep the cyclic wrap a real block boundary
            counts[c] -= 1
            if opens_block:
                blocks[c] -= 1
            # every remaining block still needs a letter, and every remaining
            # letter needs an open or future block to live in
            need = sum(blocks.values())
            feasible = need <= remaining - 1 and all(
                counts[x] >= blocks[x] for x in letters
            )
            if feasible:
                prefix.append(c)
                extend(prefix, counts, blocks, c)
                prefix.pop()
            counts[c] += 1
            if opens_block:
                blocks[c] += 1

    first = letters[0]
    counts[first] -= 1
    blocks[first] -= 1
    extend([first], counts, blocks, first)
    return sorted(found)


def q_bruteforce(cls: OrbitClass, budget: int = 12) -> Fraction:
    """sum of 1/r over the enumerated class, exact."""
    if cls.half_period > budget:
        raise ValueError(
            f"half-period {cls.half_period} exceeds enumeration budget {budget}"
        )
    total = Fraction(0)
    for w in enumerate_class(cls):
        total += Fraction(1, repetition_number(w))
    return total


def q_formula(cls: OrbitClass) -> Fraction:
    """Closed form for the weighted count Q_n^m, exact rational arithmetic.

    Q = prod_i binom(n_i-1, m_i-1) * (-1)^M *
        sum_{1 <= t <= m} ((-1)^T / T) * T!/(t_1! ... t_j!) *
        prod_i binom(m_i-1, t_i-1)

    with M = sum m_i, T = sum t_i.  Only defined for j >= 2; the single-letter
    class has Q = 1/k by the repetition rule.
    """
    if cls.j < 2:
        raise ValueError("closed form applies to j >= 2 only")
    prefactor = Fraction(1)
    for ni, mi in zip(cls.n, cls.m):
        prefactor *= comb(ni - 1, mi - 1)
    total = Fraction(0)
    for t in product(*(range(1, mi + 1) for mi in cls.m)):
        big_t = sum(t)
        multinomial = factorial(big_t)
        for ti in t:
            multinomial //= factorial(ti)
        term = Fraction((-1) ** big_t * multinomial, big_t)
        for mi, ti in zip(cls.m, t):
            term *= comb(mi - 1, ti - 1)
        total += term
    return prefactor * (-1) ** cls.transmissions * total


@lru_cache(maxsize=4096)
def class_weight(counts: tuple, v: int) -> float:
    """Trace-formula weight W(n) of all orbits with visit counts n.

    W(n) = sum_{1 <= m_i <= n_i} Q_n^m b^(k-M) c^M, k = sum n_i, M = sum m_i,
    b = -1+2/v, c = 2/v: an orbit's amplitude depends only on its M
    transmissions.  With binom(n-1, m-1) binom(m-1, t-1) =
    binom(n-1, t-1) binom(n-t, m-t), the sum over m of q_formula's terms
    closes by the binomial theorem, and b - c = -1 leaves

        W(n) = (-1)^k sum_T (-c)^T (T-1)! [x^T] prod_i P_{n_i}(x),
        P_n(x) = sum_{t=1..n} binom(n-1, t-1) x^t / t!.

    A single edge is the k-fold repeat of one excursion: W = b^k / k.
    Summed in exact rationals and rounded once.  W is symmetric in the
    edges, so callers pass n sorted, one cache entry per class.
    """
    if not counts or min(counts) < 1 or v < 1:
        raise ValueError(f"need positive visit counts and alphabet, got {counts}, v={v}")
    k = sum(counts)
    if len(counts) == 1:
        return float(Fraction(2 - v, v) ** k / k)
    poly = [Fraction(1)]  # coefficients of prod_i P_{n_i}(x), from x^0
    for ni in counts:
        factor = [Fraction(comb(ni - 1, t - 1), factorial(t)) for t in range(1, ni + 1)]
        convolved = [Fraction(0)] * (len(poly) + ni)
        for i, p in enumerate(poly):
            for t, f in enumerate(factor, start=1):
                convolved[i + t] += p * f
        poly = convolved
    minus_c = Fraction(-2, v)
    total = sum(minus_c**t * factorial(t - 1) * poly[t] for t in range(1, k + 1))
    return float((-1) ** k * total)


@lru_cache(maxsize=32, typed=True)
def necklaces(k: int, v: int) -> tuple:
    """All length-k necklaces over {0..v-1} with repetition numbers.

    Fredricksen-Kessler-Maiorana generation in its loop form: returns
    ((word, r), ...) in lexicographic order, where word is the minimal
    rotation (tuple of ints) and r its repetition number.  Periodic
    necklaces are included, so summing 1/r over the result weights orbits
    exactly as the trace formula requires.  The cache is typed, so True or
    2.0 never reads the entry of 1 or 2 and always reaches the int guard.
    """
    require_int("k", k)
    require_int("v", v)
    if k < 1 or v < 1:
        raise ValueError("need positive word length and alphabet")
    a = [0] * (k + 1)  # a[1..k] is the current prenecklace
    out = [(tuple(a[1:]), k)]
    while True:
        i = k
        while i > 0 and a[i] == v - 1:
            i -= 1
        if i == 0:
            return tuple(out)
        # next prenecklace: raise position i, repeat the prefix of period i
        a[i] += 1
        for t in range(i + 1, k + 1):
            a[t] = a[t - i]
        if k % i == 0:
            out.append((tuple(a[1:]), k // i))
