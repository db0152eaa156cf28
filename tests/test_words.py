"""Lyndon words, necklace counting, and De Bruijn sequences."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Word,
    fkm_sequence,
    is_debruijn_sequence,
    is_lyndon,
    is_primitive,
    lyndon_words,
    mobius,
    necklace_count,
)
from collatzgraphs.words import _divisors


def brute_lyndon(p, k):
    """Aperiodic strings that are minimal among their rotations."""
    out = []
    for digits in product(range(p), repeat=k):
        rotations = [digits[i:] + digits[:i] for i in range(k)]
        if all(digits < r for r in rotations[1:]):
            out.append(digits)
    return out


def brute_aperiodic_necklaces(p, k):
    classes = set()
    for digits in product(range(p), repeat=k):
        rotations = {digits[i:] + digits[:i] for i in range(k)}
        if len(rotations) == k:
            classes.add(min(rotations))
    return len(classes)


def test_mobius_values():
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(ValueError):
        mobius(0)


def test_divisors_match_plain_loop():
    for k in range(1, 501):
        assert _divisors(k) == [d for d in range(1, k + 1) if k % d == 0], k


def test_necklace_count_binary():
    assert [necklace_count(2, k) for k in range(1, 7)] == [2, 1, 2, 3, 6, 9]


@settings(max_examples=30)
@given(st.sampled_from((2, 3)), st.integers(1, 7))
def test_necklace_count_matches_brute_force(p, k):
    assert necklace_count(p, k) == brute_aperiodic_necklaces(p, k)


@given(st.sampled_from((2, 3, 5)), st.integers(1, 20))
def test_word_count_identity(p, k):
    # every length-k string decomposes uniquely by its primitive rotation class
    assert sum(d * necklace_count(p, d) for d in range(1, k + 1) if k % d == 0) == p**k


def test_is_lyndon():
    assert is_lyndon(Word.from_str("0011", 2))
    assert not is_lyndon(Word.from_str("10", 2))
    assert not is_lyndon(Word.from_str("0101", 2))
    assert not is_lyndon(Word(2, ()))
    assert is_lyndon(Word.from_str("1", 2))


def test_is_primitive():
    assert is_primitive(Word.from_str("10", 2))
    assert is_primitive(Word.from_str("110", 2))
    assert not is_primitive(Word.from_str("1010", 2))
    assert not is_primitive(Word.from_str("111", 2))
    assert not is_primitive(Word(2, ()))


@given(st.sampled_from((2, 3)), st.integers(1, 9))
def test_lyndon_words_exact_match_brute_force(p, k):
    assert [w.digits for w in lyndon_words(p, k)] == brute_lyndon(p, k)


def test_lyndon_words_dividing_mode():
    words = lyndon_words(2, 4, mode="dividing")
    assert [str(w) for w in words] == ["0", "0001", "0011", "01", "0111", "1"]
    with pytest.raises(ValueError):
        lyndon_words(2, 4, mode="other")


def test_lyndon_words_are_sorted_lexicographically():
    words = lyndon_words(3, 3, mode="dividing")
    assert [w.digits for w in words] == sorted(w.digits for w in words)


@given(st.sampled_from((2, 3)), st.integers(1, 8))
def test_every_listed_word_is_lyndon(p, k):
    for w in lyndon_words(p, k, mode="dividing"):
        assert is_lyndon(w)
        assert is_primitive(w)
        assert len(w) in [d for d in range(1, k + 1) if k % d == 0]


def test_fkm_known_sequences():
    assert str(fkm_sequence(2, 3)) == "00010111"
    assert str(fkm_sequence(2, 4)) == "0000100110101111"


@given(st.sampled_from((2, 3, 4)), st.integers(1, 7))
def test_fkm_length_and_verdict(p, k):
    s = fkm_sequence(p, k)
    assert len(s) == p**k
    assert is_debruijn_sequence(s, p, k)


def test_debruijn_verdicts():
    assert is_debruijn_sequence(Word.from_str("0011", 2), 2, 2)
    assert not is_debruijn_sequence(Word.from_str("0101", 2), 2, 2)  # window repeats
    assert not is_debruijn_sequence(Word.from_str("00110", 2), 2, 2)  # wrong length
    assert not is_debruijn_sequence(Word(3, (0, 0, 1, 2)), 2, 2)  # digit out of range
    with pytest.raises(ValueError):
        is_debruijn_sequence(Word.from_str("0011", 2), 2, 0)


def debruijn_oracle(s, p, k):
    """The verdict before the length test: build p**k, then compare."""
    n = p**k
    if len(s) != n or any(d >= p for d in s.digits):
        return False
    doubled = s.digits + s.digits[: k - 1]
    return len({doubled[i : i + k] for i in range(n)}) == n


@settings(max_examples=200)
@given(st.sampled_from((2, 3, 4)), st.integers(1, 6), st.integers(0, 40), st.randoms())
def test_debruijn_verdict_matches_oracle(p, k, length, rng):
    # random words of length up to 40 and of length exactly p**k, and the FKM sequence
    for s in (Word(p, tuple(rng.randrange(p) for _ in range(length))), fkm_sequence(p, k)):
        assert is_debruijn_sequence(s, p, k) == debruijn_oracle(s, p, k)
    exact = Word(p, tuple(rng.randrange(p) for _ in range(p**k)))
    assert is_debruijn_sequence(exact, p, k) == debruijn_oracle(exact, p, k)
