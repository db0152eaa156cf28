"""Digit conjugacy: permutations on residues, truncated and exact images."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Word,
    an_plus_b_map,
    collatz_map,
    conjugacy_permutation,
    digit_reversal_permutation,
    original_collatz_map,
    periodic_expansion,
    phi_exact,
    phi_inverse_truncated,
    phi_truncated,
    residue,
    shift_map,
    verify_conjugacy,
)

from conftest import branch_maps, digit_words
from dense import identity


def oracle_images(f, k):
    """Digit images recomputed by bare orbit iteration."""
    out = []
    for n in range(f.p**k):
        x, image = n, 0
        for i in range(k):
            image += (x % f.p) * f.p**i
            x = f.apply(x)
        out.append(image)
    return out


@settings(max_examples=60)
@given(branch_maps(), st.integers(1, 4))
def test_permutation_matches_digit_oracle(f, k):
    assert list(conjugacy_permutation(f, k).images) == oracle_images(f, k)


def test_collatz_permutations():
    t = collatz_map()
    assert conjugacy_permutation(t, 3).cycles() == [(1, 5)]
    assert conjugacy_permutation(t, 4).cycles() == [(1, 5), (2, 10), (9, 13)]


def test_5n_plus_1_permutation():
    phi = conjugacy_permutation(an_plus_b_map(5, 1), 3)
    assert phi.cycles() == [(1, 3), (2, 6), (5, 7)]


def test_original_map_permutation_is_order_six():
    phi = conjugacy_permutation(original_collatz_map(), 2)
    assert list(phi.images) == [0, 4, 2, 6, 7, 5, 3, 1, 8]
    assert phi.cycles() == [(1, 4, 7), (3, 6)]
    assert phi.order() == 6


def test_digit_reversal_composite_of_original_map():
    # reversing the digit words of the base-3 conjugacy yields a single 7-cycle
    phi = conjugacy_permutation(original_collatz_map(), 2)
    composite = digit_reversal_permutation(3, 2).compose(phi)
    assert composite.cycles() == [(1, 4, 5, 7, 3, 2, 6)]
    assert composite.order() == 7


def test_shift_map_conjugacy_is_identity():
    s = shift_map()
    for k in (1, 3, 6):
        assert conjugacy_permutation(s, k) == identity(2**k)


def test_digit_reversal_is_an_involution():
    rev = digit_reversal_permutation(2, 5)
    assert rev.compose(rev) == identity(32)
    assert digit_reversal_permutation(3, 2).images == (0, 3, 6, 1, 4, 7, 2, 5, 8)


@settings(max_examples=40)
@given(branch_maps(), st.integers(1, 4))
def test_image_congruent_to_input_mod_p(f, k):
    phi = conjugacy_permutation(f, k)
    assert all(phi(n) % f.p == n % f.p for n in range(f.p**k))


@settings(max_examples=30)
@given(branch_maps(), st.integers(2, 4))
def test_prefix_stability(f, k):
    # the first k-1 digits of the image never depend on the top input digit
    big = conjugacy_permutation(f, k)
    small = conjugacy_permutation(f, k - 1)
    q = f.p ** (k - 1)
    assert all(big(n) % q == small(n % q) for n in range(f.p**k))


def test_verify_conjugacy_small_battery():
    assert verify_conjugacy(collatz_map(), 6)
    assert verify_conjugacy(original_collatz_map(), 3)
    assert verify_conjugacy(an_plus_b_map(-3, 5), 4)


@settings(max_examples=25)
@given(branch_maps(), st.integers(1, 3))
def test_verify_conjugacy_randomized(f, k):
    assert verify_conjugacy(f, k)


def test_phi_truncated_known_value():
    t = collatz_map()
    assert phi_truncated(t, Word.from_str("10110", 2)) == Word.from_str("10010", 2)


@settings(max_examples=40)
@given(branch_maps(), st.data())
def test_phi_truncated_matches_digit_sequence(f, data):
    w = data.draw(digit_words(base=f.p, max_len=6))
    assert phi_truncated(f, w) == f.digit_sequence(w.value(), len(w))


@settings(max_examples=40)
@given(branch_maps(), st.data())
def test_phi_inverse_round_trip(f, data):
    w = data.draw(digit_words(base=f.p, max_len=6))
    assert phi_truncated(f, phi_inverse_truncated(f, w)) == w
    assert phi_inverse_truncated(f, phi_truncated(f, w)) == w


def test_phi_inverse_known_value():
    t = collatz_map()
    assert phi_inverse_truncated(t, Word.from_str("10010", 2)) == Word.from_str("10110", 2)


def oracle_phi_inverse_truncated(f, target):
    """The candidate search phi_inverse_truncated replaced: each of the p
    candidates at position j is re-iterated j steps from scratch, and exactly
    one must match the next image digit."""
    p = f.p
    digits = []
    value = 0
    weight = 1
    for j in range(len(target)):
        hits = []
        for c in range(p):
            cur = value + c * weight
            for _ in range(j):
                cur = f.apply(cur)
            if residue(cur, f.p) == target[j]:
                hits.append(c)
        assert len(hits) == 1
        digits.append(hits[0])
        value += hits[0] * weight
        weight *= p
    return Word(p, tuple(digits))


@settings(max_examples=80)
@given(branch_maps(), st.data())
def test_phi_inverse_matches_candidate_search(f, data):
    w = data.draw(digit_words(base=f.p, max_len=24))
    assert phi_inverse_truncated(f, w) == oracle_phi_inverse_truncated(f, w)


def oracle_running_inverse(f, target):
    """The loop phi_inverse_truncated replaced: digits below j of the image
    never depend on input digits at or above j. With y = f^j(v) for the digits
    v pinned so far and A the product of the multipliers of branches
    target[:j], adding c * p**j to v moves f^j by exactly c * A, so the next
    digit solves y + c * A = target[j] (mod p). One map step per digit."""
    p = f.p
    digits = []
    y = 0
    mult = 1
    for t in target:
        c = (t - y) * pow(mult, -1, p) % p
        digits.append(c)
        y = f.apply(y + c * mult)
        mult *= f.branches[t][0]
    return Word(p, tuple(digits))


@settings(max_examples=80)
@given(branch_maps(), st.data())
def test_phi_inverse_matches_running_loop(f, data):
    w = data.draw(digit_words(base=f.p, max_len=40))
    assert phi_inverse_truncated(f, w) == oracle_running_inverse(f, w)


@pytest.mark.parametrize(
    "f, max_k",
    [(collatz_map(), 10), (an_plus_b_map(5, 1), 10), (original_collatz_map(), 6)],
    ids=["collatz", "5n+1", "collatz-original"],
)
def test_phi_inverse_is_the_inverse_permutation(f, max_k):
    for k in range(1, max_k + 1):
        inverse = conjugacy_permutation(f, k).inverse()
        for m in range(f.p**k):
            assert phi_inverse_truncated(f, Word.from_int(m, f.p, k)).value() == inverse(m)


def test_phi_inverse_of_a_long_word_is_fast():
    # one branch composition; the candidate search took 2.6 s at 1600 digits
    rng = random.Random(3000)
    t = collatz_map()
    w = Word(2, tuple(rng.randrange(2) for _ in range(3000)))
    start = time.perf_counter()
    preimage = phi_inverse_truncated(t, w)
    assert time.perf_counter() - start < 2
    assert phi_truncated(t, preimage) == w


def test_phi_exact_known_values():
    t = collatz_map()
    one = phi_exact(t, 1)
    five = phi_exact(t, 5)
    assert one.value == Fraction(-1, 3)
    assert five.value == Fraction(-13, 3)
    assert str(one.digits) == "(10)"


def test_phi_exact_zero():
    assert phi_exact(collatz_map(), 0).value == 0


def test_phi_exact_digits_encode_value():
    res = phi_exact(collatz_map(), 5)
    assert res.digits.to_rational() == res.value


def test_phi_exact_two_adic_convergence():
    # partial digit sums must be congruent to the value mod 2^N
    t = collatz_map()
    for n in (1, 5, 13, 27):
        res = phi_exact(t, n)
        partial = res.digits.prefix(40).value()
        diff = res.value - partial
        assert diff.denominator % 2 == 1
        assert diff.numerator % 2**40 == 0


def test_phi_exact_on_shift_is_identity():
    s = shift_map()
    for r in (0, 1, 9, -4, Fraction(1, 3), Fraction(-7, 5)):
        assert phi_exact(s, r).value == r


def test_phi_exact_matches_truncation():
    t = collatz_map()
    for n in (1, 5, 7, 12):
        res = phi_exact(t, n)
        assert res.digits.prefix(8) == phi_truncated(t, Word.from_int(n, 2, 8))


def test_phi_exact_undetermined_when_budget_runs_out():
    assert phi_exact(collatz_map(), 27, max_steps=5) is None


def test_phi_exact_rejects_bad_denominator():
    with pytest.raises(ValueError):
        phi_exact(collatz_map(), Fraction(1, 2))


def test_phi_exact_respects_expansion_of_rational_seeds():
    # 1/3 sits on the cycle 1/3 -> 1 -> 2 -> 1, so its digits are 1 then (10)*
    res = phi_exact(collatz_map(), Fraction(1, 3))
    assert res.digits == periodic_expansion(res.value, 2)


def test_phi_exact_random_integers_have_denominator_three():
    rng = random.Random(7)
    t = collatz_map()
    for _ in range(25):
        res = phi_exact(t, rng.randrange(1, 10**6))
        assert res is not None
        assert res.value.denominator == 3
