"""Rational cycles from digit words and integer cycle correspondence."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Word,
    an_plus_b_map,
    classify_orbit,
    collatz_cycle,
    collatz_cycles,
    collatz_map,
    cycle_from_word,
    cycles_with_denominator,
    lyndon_words,
    shift_map,
    word_cycle,
)

from collatzgraphs import cycles
from conftest import branch_maps, digit_words


def iterate_3n_plus_b(n, b, steps):
    """Bare integer oracle for the scaled map: n/2 or (3n+b)/2."""
    out = [n]
    for _ in range(steps):
        n = n // 2 if n % 2 == 0 else (3 * n + b) // 2
        out.append(n)
    return out


def test_cycle_from_word_examples():
    t = collatz_map()
    assert cycle_from_word(t, Word.from_str("10", 2)) == 1
    assert cycle_from_word(t, Word.from_str("1", 2)) == -1
    assert cycle_from_word(t, Word.from_str("0", 2)) == 0
    assert cycle_from_word(t, Word.from_str("110", 2)) == -5
    assert cycle_from_word(t, Word.from_str("01", 2)) == 2


def test_cycle_from_word_rotation_rotates_anchor():
    t = collatz_map()
    x = cycle_from_word(t, Word.from_str("110", 2))
    assert cycle_from_word(t, Word.from_str("101", 2)) == t.apply(x)


def test_cycle_from_word_rejects_empty():
    with pytest.raises(ValueError):
        cycle_from_word(collatz_map(), Word(2, ()))


def test_cycle_from_word_rejects_base_mismatch():
    with pytest.raises(ValueError):
        cycle_from_word(collatz_map(), Word(3, (0, 1)))


@settings(max_examples=50)
@given(branch_maps(), st.data())
def test_cycle_solution_traverses_word(f, data):
    w = data.draw(digit_words(base=f.p, min_len=1, max_len=6))
    x = cycle_from_word(f, w)
    assert f.digit_sequence(x, len(w)) == w
    # closing up after len(w) steps
    cur = x
    for _ in range(len(w)):
        cur = f.apply(cur)
    assert cur == x


def test_word_cycle_on_shift_fixed_point():
    cycle = word_cycle(shift_map(), Word.from_str("1", 2))
    assert cycle.elements == (Fraction(-1),)


def test_collatz_cycle_known_words():
    cases = {
        "10": (1, (1, 2)),
        "1": (1, (-1,)),
        "0": (1, (0,)),
        "110": (1, (-5, -7, -10)),
        "100": (5, (1, 4, 2)),
    }
    for text, (b, integers) in cases.items():
        cycle = collatz_cycle(Word.from_str(text, 2))
        assert cycle.b == b
        assert cycle.integer_cycle == integers


def test_collatz_cycle_scaling_identity():
    cycle = collatz_cycle(Word.from_str("100", 2))
    assert cycle.elements == (Fraction(1, 5), Fraction(4, 5), Fraction(2, 5))
    assert tuple(e * cycle.b for e in cycle.elements) == cycle.integer_cycle


def test_collatz_cycle_rejects_imprimitive_and_nonbinary():
    with pytest.raises(ValueError):
        collatz_cycle(Word.from_str("1010", 2))
    with pytest.raises(ValueError):
        collatz_cycle(Word(3, (0, 1, 2)))


def test_to_jsonable_shape():
    data = collatz_cycle(Word.from_str("100", 2)).to_jsonable()
    assert data == {
        "word": "100",
        "b": 5,
        "rational_cycle": ["1/5", "4/5", "2/5"],
        "integer_cycle": [1, 4, 2],
    }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rotation_coherence(data):
    # all rotations of a word carry the same element set and denominator
    k = data.draw(st.integers(1, 10))
    words = lyndon_words(2, k)
    w = data.draw(st.sampled_from(words))
    base = collatz_cycle(w)
    for i in range(1, len(w)):
        rotated = Word(2, w.digits[i:] + w.digits[:i])
        other = collatz_cycle(rotated)
        assert other.element_set() == base.element_set()
        assert other.b == base.b


def test_denominator_divides_word_discriminant():
    # b | 2^k - 3^h where k is the length and h the count of odd steps
    for k in range(1, 11):
        for w in lyndon_words(2, k):
            cycle = collatz_cycle(w)
            h = sum(w.digits)
            assert (2**k - 3**h) % cycle.b == 0
            assert gcd(cycle.b, 6) == 1


def test_distinct_words_give_distinct_cycles():
    seen = {}
    for k in range(1, 13):
        for w in lyndon_words(2, k):
            key = collatz_cycle(w).element_set()
            assert key not in seen, f"{w} collides with {seen[key]}"
            seen[key] = w


def test_collatz_cycles_is_the_lyndon_word_census(monkeypatch):
    words = [w for k in range(1, 9) for w in lyndon_words(2, k)]
    assert list(collatz_cycles(8)) == [collatz_cycle(w) for w in words]
    # lazy: the first cycle comes before any long word is enumerated (with a
    # budget large enough to admit the 2**200 digits of the longest words)
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", str(2**200))
    assert next(collatz_cycles(200)) == collatz_cycle(Word.from_str("0", 2))
    with pytest.raises(ValueError):
        collatz_cycles(0)


def census_oracle(max_len):
    """The census before the integer scan: build every word's cycle, in
    (length, lex) order, from the Lyndon word lists."""
    return [collatz_cycle(w) for k in range(1, max_len + 1) for w in lyndon_words(2, k)]


def test_cycles_with_denominator_matches_the_full_census():
    # every b <= 49 coprime to 6 at every length up to 12, against both the
    # old census and the new one filtered afterwards
    denominators = [b for b in range(1, 50) if gcd(b, 6) == 1]
    missing = set()
    for max_len in range(1, 13):
        full = census_oracle(max_len)
        assert list(collatz_cycles(max_len)) == full
        for b in denominators:
            found = cycles_with_denominator(b, max_len)
            assert found == [c for c in full if c.b == b], (b, max_len)
            if not found:
                missing.add((b, max_len))
    # the comparisons include empty answers, also at the longest length
    assert {b for b, max_len in missing if max_len == 12} == {41}


def test_census_denominator_is_checked_against_the_cycle(monkeypatch):
    # a wrong integer denominator is an internal error, never a wrong answer
    monkeypatch.setattr(cycles, "_denominator", lambda w: 5)
    with pytest.raises(RuntimeError, match="denominator 1, not 5"):
        cycles_with_denominator(5, 3)
    with pytest.raises(RuntimeError):
        next(collatz_cycles(3))
    assert cycles_with_denominator(7, 3) == []


def test_cycles_with_denominator_one():
    found = cycles_with_denominator(1, 3)
    assert [c.element_set() for c in found] == [
        frozenset({Fraction(0)}),
        frozenset({Fraction(-1)}),
        frozenset({Fraction(1), Fraction(2)}),
        frozenset({Fraction(-5), Fraction(-7), Fraction(-10)}),
    ]


def test_cycles_with_denominator_five():
    found = cycles_with_denominator(5, 5)
    assert frozenset({1, 4, 2}) in [frozenset(c.integer_cycle) for c in found]


def test_cycles_with_denominator_seven_short():
    assert cycles_with_denominator(7, 2) == []


def test_cycles_with_denominator_validation():
    with pytest.raises(ValueError):
        cycles_with_denominator(4, 3)
    with pytest.raises(ValueError):
        cycles_with_denominator(9, 3)
    with pytest.raises(ValueError):
        cycles_with_denominator(-1, 3)
    with pytest.raises(ValueError):
        cycles_with_denominator(1, 0)


def test_enumerated_cycles_confirmed_by_iteration():
    for b in (1, 5, 7, 11):
        for cycle in cycles_with_denominator(b, 10):
            k = len(cycle.integer_cycle)
            orbit = iterate_3n_plus_b(cycle.integer_cycle[0], b, k)
            assert tuple(orbit[:k]) == cycle.integer_cycle
            assert orbit[k] == cycle.integer_cycle[0]


def test_brute_force_search_finds_exactly_the_enumerated_b1_cycles():
    # reverse oracle: scan integer seeds and collect every cycle reached
    found = set()
    for n in range(-300, 301):
        orbit = iterate_3n_plus_b(n, 1, 500)
        tail = orbit[-1]
        cycle = [tail]
        cur = iterate_3n_plus_b(tail, 1, 1)[1]
        while cur != tail:
            cycle.append(cur)
            cur = iterate_3n_plus_b(cur, 1, 1)[1]
        found.add(frozenset(cycle))
    enumerated = {frozenset(c.integer_cycle) for c in cycles_with_denominator(1, 12)}
    assert found == enumerated


def test_classify_orbit_collatz():
    result = classify_orbit(collatz_map(), 3)
    assert result.cycle.integer_cycle == (1, 2)
    assert result.preperiod == 5

    result = classify_orbit(collatz_map(), 0)
    assert result.cycle.integer_cycle == (0,)
    assert result.preperiod == 0


def test_classify_orbit_anchors_at_least_element():
    result = classify_orbit(an_plus_b_map(5, 1), 1)
    assert result.cycle.integer_cycle == (1, 3, 8, 4, 2)
    assert result.preperiod == 0


def test_classify_orbit_rational_seed():
    result = classify_orbit(collatz_map(), Fraction(4, 5))
    assert result.cycle.elements == (Fraction(1, 5), Fraction(4, 5), Fraction(2, 5))
    assert result.cycle.b == 5
    assert result.preperiod == 2  # steps until the least element: 4/5 -> 2/5 -> 1/5


def test_classify_orbit_word_matches_anchor():
    result = classify_orbit(collatz_map(), 3)
    t = collatz_map()
    assert t.digit_sequence(Fraction(result.cycle.integer_cycle[0], result.cycle.b), 2) \
        == result.cycle.word


def test_classify_orbit_undetermined():
    assert classify_orbit(an_plus_b_map(5, 1), 7, max_steps=60) is None


def test_classify_orbit_rejects_bad_seed():
    with pytest.raises(ValueError):
        classify_orbit(collatz_map(), Fraction(1, 2))
    with pytest.raises(ValueError):
        classify_orbit(collatz_map(), 1, max_steps=-1)
