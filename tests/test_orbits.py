"""Cyclic-word orbit classes: classification, enumeration, exact counting."""

from fractions import Fraction
from math import comb

import pytest

from oracles import amplitude, classify, s_amplitude
from star_spectra import (
    OrbitClass,
    class_weight,
    enumerate_class,
    necklaces,
    q_bruteforce,
    q_formula,
    repetition_number,
)


def test_classify_single_letter_word():
    cls = classify("aaa")
    assert (cls.j, cls.n, cls.m) == (1, (3,), (1,))


def test_classify_two_letter_word():
    cls = classify("aabab")
    assert (cls.j, cls.n, cls.m) == (2, (3, 2), (2, 2))


def test_classify_counts_blocks_cyclically():
    # 'baab' wraps around: the two b's form a single cyclic block
    cls = classify("baab")
    assert (cls.j, cls.n, cls.m) == (2, (2, 2), (1, 1))


def test_classify_rejects_empty_word():
    with pytest.raises(ValueError):
        classify("")


def test_class_totals():
    cls = OrbitClass(3, (3, 2, 2), (2, 1, 2))
    assert cls.half_period == 7
    assert cls.transmissions == 5


def test_class_validation():
    with pytest.raises(ValueError):
        OrbitClass(2, (2, 2), (3, 1))  # more blocks than visits
    with pytest.raises(ValueError):
        OrbitClass(2, (2,), (1, 1))  # component count mismatch
    with pytest.raises(ValueError):
        OrbitClass(0, (), ())
    with pytest.raises(ValueError):
        OrbitClass(2, (2, 2), (0, 2))  # blocks must be positive
    for j, n, m in ((True, (2,), (1,)), (1, (2.0,), (1,)), (2, (2, 2), (1, True))):
        with pytest.raises(ValueError, match="must be an int"):
            OrbitClass(j, n, m)


def test_repetition_numbers():
    assert repetition_number("abab") == 2
    assert repetition_number("aab") == 1
    assert repetition_number("aaaa") == 4
    assert repetition_number("abcabc") == 2
    assert repetition_number((0, 1, 0, 1)) == 2
    with pytest.raises(ValueError):
        repetition_number("")


def test_amplitude_counts_adjacent_pairs():
    v = 3
    back, trans = s_amplitude("backscatter", v), s_amplitude("transmit", v)
    assert amplitude("ab", v) == pytest.approx(trans**2, rel=1e-15)
    assert amplitude("aab", v) == pytest.approx(back * trans**2, rel=1e-15)
    assert amplitude("aaa", v) == pytest.approx(back**3, rel=1e-15)


def test_amplitude_factorization_for_multi_letter_words():
    # With at least two distinct letters, the unequal cyclic adjacencies are
    # exactly the block boundaries, so the amplitude factors through the
    # class: backscatter^(N-M) * transmit^M.
    words = ["aabab", "abc", "aabbcc", "abacbc", "aaabbb", "abababc"]
    for v in (3, 5, 12):
        back, trans = s_amplitude("backscatter", v), s_amplitude("transmit", v)
        for word in words:
            cls = classify(word)
            n_total, m_total = cls.half_period, cls.transmissions
            expect = back ** (n_total - m_total) * trans**m_total
            assert amplitude(word, v) == pytest.approx(expect, rel=1e-13)


def test_enumerate_small_classes():
    assert enumerate_class(OrbitClass(2, (2, 2), (2, 2))) == ["abab"]
    assert enumerate_class(OrbitClass(2, (2, 2), (1, 1))) == ["aabb"]
    assert enumerate_class(OrbitClass(1, (4,), (1,))) == ["aaaa"]
    # two-letter words must alternate blocks, forcing equal block counts
    assert enumerate_class(OrbitClass(2, (2, 3), (1, 2))) == []


def test_enumerated_words_classify_back_and_are_rotation_distinct():
    cls = OrbitClass(3, (3, 2, 2), (2, 1, 2))
    words = enumerate_class(cls)
    assert words
    seen = set()
    for word in words:
        assert classify(word) == cls
        rotations = {word[i:] + word[:i] for i in range(len(word))}
        assert not (rotations & seen)
        seen |= rotations


def test_weighted_count_known_value():
    assert q_formula(OrbitClass(2, (2, 2), (2, 2))) == Fraction(1, 2)


def test_weighted_count_matches_bruteforce_spot_checks():
    cases = [
        ((2, 2), (2, 2)),
        ((3, 3), (2, 2)),
        ((4, 2), (2, 2)),
        ((3, 3, 2), (2, 2, 1)),
        ((2, 2, 2, 2), (1, 1, 1, 1)),
        ((4, 4), (3, 3)),
    ]
    for n, m in cases:
        cls = OrbitClass(len(n), n, m)
        assert q_formula(cls) == q_bruteforce(cls)


def test_weighted_count_vanishes_for_unrealizable_block_structure():
    cls = OrbitClass(2, (2, 3), (1, 2))
    assert q_formula(cls) == 0
    assert q_bruteforce(cls) == 0


def test_single_letter_class_weight_is_one_over_length():
    for k in range(1, 9):
        assert q_bruteforce(OrbitClass(1, (k,), (1,))) == Fraction(1, k)
    with pytest.raises(ValueError):
        q_formula(OrbitClass(1, (3,), (1,)))


def test_two_letter_weighted_enumeration_matches_closed_form():
    # sum over the class of 1/r equals binom(na-1,m-1)*binom(nb-1,m-1)/m
    for na in range(1, 7):
        for nb in range(1, 7):
            for m in range(1, min(na, nb) + 1):
                cls = OrbitClass(2, (na, nb), (m, m))
                total = sum(
                    Fraction(1, repetition_number(w)) for w in enumerate_class(cls)
                )
                expect = Fraction(comb(na - 1, m - 1) * comb(nb - 1, m - 1), m)
                assert total == expect, (na, nb, m)


def test_bruteforce_budget_guard():
    with pytest.raises(ValueError):
        q_bruteforce(OrbitClass(2, (9, 9), (1, 1)), budget=12)


def _euler_phi(d):
    out, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def test_necklace_census_matches_burnside_and_word_total():
    for v in (1, 2, 3, 4):
        for k in range(1, 7):
            entries = necklaces(k, v)
            words = [w for w, _ in entries]
            assert len(set(words)) == len(words)
            burnside = (
                sum(_euler_phi(d) * v ** (k // d) for d in range(1, k + 1) if k % d == 0)
                // k
            )
            assert len(entries) == burnside
            # each necklace stands for k/r rotations; together they tile all words
            assert sum(k // r for _, r in entries) == v**k
            for word, r in entries:
                assert repetition_number(word) == r
                assert min(tuple(word[i:] + word[:i]) for i in range(k)) == tuple(word)


def test_necklaces_have_no_depth_limit():
    assert necklaces(1200, 1) == (((0,) * 1200, 1200),)


def test_class_weight_sums_the_orbits_of_one_visit_vector():
    # Every necklace with visit counts n contributes A_p / r_p; the class
    # weight must equal their sum, whichever edges carry the counts.
    for v in (1, 2, 3, 4):
        for k in range(1, 8):
            sums = {}
            for word, r in necklaces(k, v):
                counts = tuple(word.count(e) for e in range(v))
                sums[counts] = sums.get(counts, 0.0) + amplitude(word, v) / r
            for counts, total in sums.items():
                visited = tuple(sorted(c for c in counts if c))
                assert class_weight(visited, v) == pytest.approx(total, rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        class_weight((2, 0), 3)
    with pytest.raises(ValueError):
        class_weight((), 3)


def test_necklaces_validate_arguments():
    with pytest.raises(ValueError):
        necklaces(0, 2)
    with pytest.raises(ValueError):
        necklaces(3, 0)
    necklaces(1, 2)  # a cached (1, 2) must not answer for (True, 2)
    for k, v in ((True, 2), (2, True), (2.0, 2), (2, 2.0)):
        with pytest.raises(ValueError, match="must be an int"):
            necklaces(k, v)
