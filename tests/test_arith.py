"""Digit words, periodic digit streams, and modular/rational arithmetic."""

import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from collatzgraphs import (
    BranchMap,
    ClassifiedOrbit,
    PeriodicDigits,
    Permutation,
    PhiExactResult,
    RationalCycle,
    Word,
    classify_orbit,
    collatz_map,
    fkm_sequence,
    lyndon_words,
    padic_digits,
    periodic_expansion,
    phi_exact,
    residue,
)

from conftest import branch_maps, digit_words


def test_word_value_is_little_endian():
    # leftmost rendered digit is the p^0 coefficient
    assert Word.from_str("10110", 2).value() == 1 + 4 + 8
    assert Word.from_str("01", 2).value() == 2
    assert Word.from_str("21", 3).value() == 2 + 3


def test_word_str_round_trip():
    w = Word.from_str("2101", 3)
    assert str(w) == "2101"
    assert Word.from_str(str(w), 3) == w


def test_word_large_base_renders_with_commas():
    w = Word(16, (10, 0, 15))
    assert str(w) == "10,0,15"
    assert Word.from_str("10,0,15", 16) == w


def test_word_from_int_reduces_modulo_base_power():
    assert Word.from_int(13, 2, 5) == Word.from_str("10110", 2)
    assert Word.from_int(13 + 32, 2, 5) == Word.from_str("10110", 2)
    assert Word.from_int(-1, 2, 3) == Word.from_str("111", 2)


def test_word_reversed():
    assert Word.from_str("100", 2).reversed() == Word.from_str("001", 2)


def test_word_rejects_out_of_range_digits():
    with pytest.raises(ValueError):
        Word(2, (0, 2))
    with pytest.raises(ValueError):
        Word(1, (0,))


def test_word_from_int_rejects_a_base_below_two():
    for base in (1, 0, -2):
        with pytest.raises(ValueError, match="base must be at least 2"):
            Word.from_int(5, base, 3)


def assert_validated(w):
    """w is a word the validating constructor accepts, with a tuple of ints."""
    assert type(w.digits) is tuple
    assert all(type(d) is int for d in w.digits)
    assert w == Word(w.base, w.digits)


@given(st.integers(2, 5), st.integers(1, 6), st.sampled_from(("exact", "dividing")))
def test_lyndon_words_and_fkm_build_valid_words(p, k, mode):
    for w in lyndon_words(p, k, mode):
        assert_validated(w)
    assert_validated(fkm_sequence(p, k))


@given(branch_maps(), st.integers(-(10**12), 10**12), st.integers(1, 50), st.integers(0, 30))
def test_digit_sequence_builds_valid_words(f, n, q, k):
    assert_validated(f.digit_sequence(n, k))
    if gcd(q, f.p) == 1:
        assert_validated(f.digit_sequence(Fraction(n, q), k))


@given(st.integers(-(10**30), 10**30), st.integers(2, 40), st.integers(0, 40))
def test_from_int_builds_valid_words(n, base, length):
    assert_validated(Word.from_int(n, base, length))


@given(digit_words(max_len=20))
def test_reversed_builds_valid_words(w):
    assert_validated(w.reversed())
    assert w.reversed().reversed() == w


def test_word_is_slotted_and_frozen():
    trusted = lyndon_words(2, 5)[3]
    for w in (Word.from_str("00111", 2), trusted):
        assert not hasattr(w, "__dict__")
        with pytest.raises(FrozenInstanceError):
            w.base = 3
        with pytest.raises(FrozenInstanceError):
            w.digits = (1,)
    assert trusted == Word.from_str("00111", 2)
    assert hash(trusted) == hash(Word.from_str("00111", 2))
    assert hash(Word.from_int(13, 2, 5)) == hash(Word(2, [1, 0, 1, 1, 0]))


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_word_pickle_and_copy_round_trip(protocol):
    for w in (Word.from_str("2,10,0", 11), fkm_sequence(3, 2), Word(2, ())):
        for twin in (pickle.loads(pickle.dumps(w, protocol)), copy.copy(w), copy.deepcopy(w)):
            assert twin == w
            assert hash(twin) == hash(w)
            assert type(twin.digits) is tuple
            assert str(twin) == str(w)


# one instance of each record type, with its fields in constructor order
RECORDS = {
    Word: (Word(3, (2, 0, 1)), ("base", "digits")),
    PeriodicDigits: (PeriodicDigits(2, (1,), (1, 0)), ("base", "preperiod", "period")),
    BranchMap: (collatz_map(), ("p", "branches")),
    Permutation: (Permutation((2, 0, 1)), ("images",)),
    PhiExactResult: (phi_exact(collatz_map(), Fraction(1, 5)), ("digits", "value", "steps_used")),
    RationalCycle: (
        classify_orbit(collatz_map(), 7).cycle, ("word", "elements", "b", "integer_cycle")
    ),
    ClassifiedOrbit: (classify_orbit(collatz_map(), 7), ("cycle", "preperiod")),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_record_contract(kind):
    record, fields = RECORDS[kind]
    values = tuple(getattr(record, name) for name in fields)
    assert type(record) is kind and not hasattr(record, "__dict__")
    for name in (*fields, "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    twins = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    for twin in (*twins, copy.copy(record), copy.deepcopy(record), kind(*values)):
        assert type(twin) is kind
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
    assert record != values and values != record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{kind.__name__}({shown})"


def test_unpickling_runs_the_validating_constructor():
    with pytest.raises(ValueError, match="digits out of range"):
        pickle.loads(pickle.dumps(Word._of(2, (5,))))


@given(digit_words())
def test_word_int_round_trip(w):
    assert Word.from_int(w.value(), w.base, len(w)) == w


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((2, 3, 5, 7)))
def test_word_value_is_residue(n, base):
    w = Word.from_int(n, base, 6)
    assert w.value() == n % base**6


def test_mod_inverse():
    # a rational's residue needs its denominator's inverse mod m
    assert residue(Fraction(1, 3), 8) == 3
    assert residue(Fraction(1, 7), 100) * 7 % 100 == 1
    with pytest.raises(ValueError, match="2 is not invertible modulo 8"):
        residue(Fraction(1, 2), 8)
    with pytest.raises(ValueError, match="modulus must be positive"):
        residue(Fraction(1, 3), 0)
    with pytest.raises(ValueError, match="modulus must be positive"):
        residue(5, 0)
    with pytest.raises(ValueError, match="modulus must be positive"):
        residue(5, -3)


def test_residue_of_fractions():
    assert residue(Fraction(1, 3), 2) == 1
    assert residue(Fraction(-1, 3), 8) == 5  # 3*5 = 15 = -1 mod 8
    assert residue(7, 4) == 3
    with pytest.raises(ValueError):
        residue(Fraction(1, 2), 2)


@given(st.fractions(max_denominator=50), st.sampled_from((2, 3, 5)))
def test_residue_matches_numerator_times_inverse(x, p):
    if x.denominator % p == 0:
        with pytest.raises(ValueError):
            residue(x, p)
    else:
        r = residue(x, p)
        assert 0 <= r < p
        assert (x.denominator * r - x.numerator) % p == 0


def test_periodic_digits_reduces_to_primitive_period():
    s = PeriodicDigits(2, (), (1, 0, 1, 0))
    assert s.period == (1, 0)


def test_periodic_digits_absorbs_preperiod_tail():
    # 1 then (01)* is the same stream as (10)*
    s = PeriodicDigits(2, (1,), (0, 1))
    assert s.preperiod == ()
    assert s.period == (1, 0)


def test_periodic_digits_str():
    # canonical form absorbs the matching preperiod tail into the period
    assert str(PeriodicDigits(2, (1, 1), (0, 1))) == "1(10)"
    assert str(PeriodicDigits(2, (0, 1), (0, 1))) == "(01)"
    assert str(PeriodicDigits(2, (0, 1), (1, 0))) == "01(10)"


def test_periodic_digits_prefix():
    s = PeriodicDigits(2, (0,), (1, 0))
    assert s.prefix(5) == Word.from_str("01010", 2)


def test_periodic_digits_prefix_refuses_negative_length():
    with pytest.raises(ValueError, match="length must be nonnegative, got -2"):
        PeriodicDigits(2, (1, 0, 1), (1, 0)).prefix(-2)


def test_to_rational_geometric_oracle():
    # digits (1,0)* in base 2: sum 2^{2i} = 1/(1-4)
    assert PeriodicDigits(2, (), (1, 0)).to_rational() == Fraction(-1, 3)
    assert PeriodicDigits(2, (1, 0), (1,)).to_rational() == Fraction(1) + 4 * Fraction(1, 1 - 2)


@given(st.fractions(max_denominator=99), st.sampled_from((2, 3, 5)))
def test_periodic_expansion_round_trip(x, p):
    if x.denominator % p == 0:
        with pytest.raises(ValueError):
            periodic_expansion(x, p)
        return
    stream = periodic_expansion(x, p)
    assert stream.to_rational() == x


@given(st.fractions(max_denominator=99), st.sampled_from((2, 3, 5)), st.integers(1, 12))
def test_padic_digits_agree_with_expansion_prefix(x, p, n):
    if x.denominator % p == 0:
        return
    assert padic_digits(x, p, n) == periodic_expansion(x, p).prefix(n)


@given(st.fractions(max_denominator=99), st.sampled_from((2, 3, 5)), st.integers(1, 30))
def test_padic_prefix_is_congruent(x, p, n):
    # the length-n digit word is the canonical residue mod p^n
    if x.denominator % p == 0:
        return
    value = padic_digits(x, p, n).value()
    assert (x.numerator - value * x.denominator) % p**n == 0


def test_known_expansions():
    assert str(periodic_expansion(Fraction(-1, 3), 2)) == "(10)"
    assert str(periodic_expansion(13, 2)) == "1011(0)"
    assert str(periodic_expansion(Fraction(-1), 2)) == "(1)"
