"""Branch maps: presets, admissibility validation, exact application."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from collatzgraphs import (
    BranchMap,
    Word,
    an_plus_b_map,
    collatz_map,
    map_from_json,
    map_to_json,
    original_collatz_map,
    shift_map,
    standard_map,
)

from conftest import branch_maps


def test_collatz_values():
    t = collatz_map()
    assert [t.apply(n) for n in range(8)] == [0, 2, 1, 5, 2, 8, 3, 11]


def test_shift_values():
    s = shift_map()
    assert [s.apply(n) for n in (0, 1, 2, 3, 13)] == [0, 0, 1, 1, 6]


def test_original_collatz_values():
    f0 = original_collatz_map()
    assert f0.p == 3
    assert f0.branches == ((2, 0), (4, -1), (4, 1))
    assert [f0.apply(n) for n in range(7)] == [0, 1, 3, 2, 5, 7, 4]


def test_an_plus_b_values():
    f = an_plus_b_map(5, 1)
    assert [f.apply(n) for n in (1, 3, 8, 4, 2)] == [3, 8, 4, 2, 1]


def test_an_plus_b_requires_odd_parameters():
    with pytest.raises(ValueError):
        an_plus_b_map(4, 1)
    with pytest.raises(ValueError):
        an_plus_b_map(3, 2)


def test_admissibility_multiplier_must_be_coprime():
    with pytest.raises(ValueError):
        BranchMap(2, ((2, 0), (3, 1)))


def test_admissibility_branch_must_clear_residue():
    # branch 1 needs a*1 + b divisible by 2
    with pytest.raises(ValueError):
        BranchMap(2, ((1, 0), (3, 2)))
    with pytest.raises(ValueError):
        BranchMap(3, ((1, 0), (1, 1), (1, 1)))


def test_branch_count_must_match_p():
    with pytest.raises(ValueError):
        BranchMap(3, ((1, 0), (3, 1)))


def test_apply_keeps_integers_integral():
    t = collatz_map()
    assert isinstance(t.apply(7), int)
    assert isinstance(t.apply(Fraction(1, 3)), Fraction)


def test_apply_on_rationals():
    t = collatz_map()
    assert t.apply(Fraction(1, 3)) == 1  # (3*(1/3)+1)/2
    assert t.apply(Fraction(-1, 9)) == Fraction(1, 3)
    assert t.apply(Fraction(1, 5)) == Fraction(4, 5)


def test_apply_rejects_denominator_sharing_p():
    with pytest.raises(ValueError):
        collatz_map().apply(Fraction(1, 2))


def test_digit_sequence_known_values():
    t = collatz_map()
    assert t.digit_sequence(13, 5) == Word.from_str("10010", 2)
    assert t.digit_sequence(1, 4) == Word.from_str("1010", 2)
    assert shift_map().digit_sequence(13, 5) == Word.from_str("10110", 2)


@given(branch_maps(), st.integers(min_value=-10**6, max_value=10**6))
def test_apply_matches_selected_branch(f, n):
    i = n % f.p
    a, b = f.branches[i]
    assert f.apply(n) * f.p == a * n + b


@given(branch_maps(), st.integers(min_value=-10**4, max_value=10**4), st.integers(1, 8))
def test_digit_sequence_tracks_orbit_residues(f, n, k):
    w = f.digit_sequence(n, k)
    x = n
    for digit in w:
        assert digit == x % f.p
        x = f.apply(x)


@given(branch_maps(), st.integers(min_value=-10**6, max_value=10**6), st.integers(0, 8))
def test_int_fast_path_matches_the_rational_path(f, n, k):
    # ints index the branch by n % p and take digits as n % p; an integral
    # Fraction still goes through residue()
    image = f.apply(n)
    assert type(image) is int
    assert image == f.apply(Fraction(n))
    assert f.digit_sequence(n, k) == f.digit_sequence(Fraction(n), k)


def test_json_round_trip():
    f = original_collatz_map()
    assert map_from_json(map_to_json(f)) == f


def test_json_validation():
    with pytest.raises(ValueError):
        map_from_json("not json")
    with pytest.raises(ValueError):
        map_from_json('{"p": 2}')
    with pytest.raises(ValueError):
        map_from_json('{"p": 2, "branches": [[2, 0], [3, 1]]}')


def test_standard_map_presets():
    assert standard_map("collatz") == collatz_map()
    assert standard_map("shift") == shift_map()
    assert standard_map("collatz-original") == original_collatz_map()
    assert standard_map("an+b", a=5, b=1) == an_plus_b_map(5, 1)
    with pytest.raises(ValueError):
        standard_map("an+b")
    with pytest.raises(ValueError):
        standard_map("mystery")
