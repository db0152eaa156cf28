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
from collatzgraphs import words
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


def test_repeated_lyndon_words_share_digit_tuples(monkeypatch):
    first = lyndon_words(2, 10, mode="dividing")
    again = lyndon_words(2, 10, mode="dividing")
    assert again == first
    assert all(a is not b and a.digits is b.digits for a, b in zip(first, again))
    # past the cap the table starts over, and holds at most one more enumeration
    monkeypatch.setattr(words, "_INTERN_CAP", 10)
    for k in (7, 8, 8):
        assert [w.digits for w in lyndon_words(2, k)] == brute_lyndon(2, k)
        assert len(words._interned) <= 10 + len(brute_lyndon(2, k))


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


# (p, largest k) with p**k at most a few thousand: p = 5 and 7 too
SPANS = {2: 12, 3: 7, 4: 6, 5: 5, 6: 4, 7: 4}


def lyndon_oracle(p, k, mode):
    """Lyndon words before the length filter moved into Duval's loop: a tuple
    for every word up to length k, filtered afterwards."""
    keep = (lambda n: n == k) if mode == "exact" else (lambda n: k % n == 0)
    found = []
    w = [-1]
    while w:
        w[-1] += 1
        found.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == p - 1:
            w.pop()
    return [Word(p, d) for d in found if keep(len(d))]


def fkm_oracle(p, k):
    """FKM before it streamed: concatenate the Lyndon word list."""
    return Word(p, tuple(d for w in lyndon_oracle(p, k, "dividing") for d in w.digits))


def test_lyndon_words_and_fkm_match_the_list_oracles():
    for p, top in SPANS.items():
        for k in range(1, top + 1):
            for mode in ("exact", "dividing"):
                assert lyndon_words(p, k, mode) == lyndon_oracle(p, k, mode), (p, k, mode)
            assert fkm_sequence(p, k) == fkm_oracle(p, k), (p, k)


@settings(max_examples=300)
@given(st.sampled_from(sorted(SPANS)), st.data())
def test_debruijn_verdict_on_near_misses(p, data):
    # sequences of exact length p**k, next to a known De Bruijn sequence:
    # rotations, reversals and digit relabelings keep it one, and a swap of
    # two digits or one changed digit usually breaks it
    k = data.draw(st.integers(1, SPANS[p]), label="k")
    digits = list(fkm_sequence(p, k).digits)
    n = len(digits)
    i = data.draw(st.integers(0, n - 1), label="i")
    j = data.draw(st.integers(0, n - 1), label="j")
    relabel = data.draw(st.permutations(range(p)), label="relabel")
    swapped = digits.copy()
    swapped[i], swapped[j] = swapped[j], swapped[i]
    changed = digits.copy()
    changed[i] = (changed[i] + 1 + j % (p - 1)) % p
    rotated = digits[i:] + digits[:i]
    candidates = {
        "swapped": swapped,
        "changed": changed,
        "rotated": rotated,
        "reversed": rotated[::-1],
        "relabeled": [relabel[d] for d in rotated],
    }
    for name, candidate in candidates.items():
        s = Word(p, tuple(candidate))
        assert is_debruijn_sequence(s, p, k) == debruijn_oracle(s, p, k), name
    for name in ("rotated", "reversed", "relabeled"):
        assert is_debruijn_sequence(Word(p, tuple(candidates[name])), p, k), name
    assert not is_debruijn_sequence(Word(p, tuple(changed)), p, k)


def test_debruijn_near_misses_for_p_five_and_seven():
    # fixed cases, so p = 5 and 7 are covered whatever hypothesis draws
    for p, k in ((5, 3), (5, 5), (7, 2), (7, 4)):
        digits = fkm_sequence(p, k).digits
        n = len(digits)
        assert is_debruijn_sequence(Word(p, digits[n // 3 :] + digits[: n // 3]), p, k)
        for i, j in ((0, n - 1), (1, n // 2), (n // 3, n // 3 + 1)):
            swapped = list(digits)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            s = Word(p, tuple(swapped))
            assert is_debruijn_sequence(s, p, k) == debruijn_oracle(s, p, k) == (swapped == list(digits))


def one_repeat(p, k, c, d):
    """A length-p**k sequence whose cyclic windows are those of a De Bruijn
    sequence with c**k twice and d**k missing: the FKM sequence with its run of
    k digits c lengthened by one and its run of k digits d shortened by one.
    For k >= 2 only constant windows can trade places like this: a cyclic
    sequence is a closed walk in the De Bruijn graph, which stays balanced
    only when the doubled and the dropped edge are both loops."""
    digits = fkm_sequence(p, k).digits

    def rotated_to_run(s, digit):
        doubled = s + s[: k - 1]
        i = next(i for i in range(len(s)) if doubled[i : i + k] == (digit,) * k)
        return s[i:] + s[:i]

    longer = (c,) + rotated_to_run(digits, c)
    return rotated_to_run(longer, d)[1:]


@settings(max_examples=200)
@given(st.sampled_from((2, 3, 4)), st.data())
def test_debruijn_verdict_when_exactly_one_window_repeats(p, data):
    # the scan marks one flag per window and checks that none is unset at the
    # end; here exactly one flag is unset
    k = data.draw(st.integers(1, SPANS[p]), label="k")
    c, d = data.draw(st.permutations(range(p)), label="digits")[:2]
    digits = one_repeat(p, k, c, d)
    i = data.draw(st.integers(0, len(digits) - 1), label="rotation")
    s = Word(p, digits[i:] + digits[:i])
    doubled = s.digits + s.digits[: k - 1]
    windows = [doubled[j : j + k] for j in range(p**k)]
    assert len(s) == p**k and len(set(windows)) == p**k - 1
    assert windows.count((c,) * k) == 2 and (d,) * k not in windows
    assert is_debruijn_sequence(s, p, k) is debruijn_oracle(s, p, k) is False


@settings(max_examples=200)
@given(st.sampled_from((2, 3, 4)), st.integers(1, 6), st.integers(0, 40), st.randoms())
def test_debruijn_verdict_matches_oracle(p, k, length, rng):
    # random words of length up to 40 and of length exactly p**k, and the FKM sequence
    for s in (Word(p, tuple(rng.randrange(p) for _ in range(length))), fkm_sequence(p, k)):
        assert is_debruijn_sequence(s, p, k) == debruijn_oracle(s, p, k)
    exact = Word(p, tuple(rng.randrange(p) for _ in range(p**k)))
    assert is_debruijn_sequence(exact, p, k) == debruijn_oracle(exact, p, k)
