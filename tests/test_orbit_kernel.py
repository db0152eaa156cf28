"""The integer orbit and digit code against the Fraction loops it replaced.

classify_orbit, phi_exact, periodic_expansion and the cycle-word functions
(cycle_from_word, word_cycle) all run on BranchMap.scaled_orbit. The oracles
below are the plain definitions they used before: step the Fraction itself
with f.apply and stop at the first repeated state, or after len(w) steps for
a cycle word. Results must agree exactly, undetermined (None) included, at
the budgets around the point where the repeat is found. padic_digits and
phi_truncated read their digits off one residue instead of stepping, and
BranchMap.digit_sequence steps a rational's residue mod p**k as an integer;
their oracles are the digit-by-digit loops.
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    BranchMap,
    ClassifiedOrbit,
    PeriodicDigits,
    PhiExactResult,
    RationalCycle,
    ResourceLimitError,
    Word,
    an_plus_b_map,
    classify_orbit,
    collatz_map,
    cycle_from_word,
    original_collatz_map,
    padic_digits,
    periodic_expansion,
    phi_exact,
    phi_truncated,
    residue,
    shift_map,
    word_cycle,
)

from conftest import branch_maps, digit_words

BUDGET = 10000


def _check_seed(f, r, max_steps):
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    state = Fraction(r)
    if gcd(state.denominator, f.p) != 1:
        raise ValueError(f"denominator of {state} is not coprime to {f.p}")
    return state


def oracle_classify_orbit(f, r, max_steps=BUDGET):
    state = _check_seed(f, r, max_steps)
    seen: dict[Fraction, int] = {}
    orbit: list[Fraction] = []
    while True:
        if state in seen:
            start = seen[state]
            looped = orbit[start:]
            shift = looped.index(min(looped))
            elements = tuple(looped[shift:] + looped[:shift])
            word = f.digit_sequence(elements[0], len(elements))
            (b,) = {e.denominator for e in elements}
            cycle = RationalCycle(word, elements, b, tuple((e * b).numerator for e in elements))
            return ClassifiedOrbit(cycle, start + shift)
        if len(orbit) >= max_steps:
            return None
        seen[state] = len(orbit)
        orbit.append(state)
        state = f.apply(state)


def oracle_phi_exact(f, r, max_steps=BUDGET):
    state = _check_seed(f, r, max_steps)
    seen: dict[Fraction, int] = {}
    digits: list[int] = []
    while True:
        if state in seen:
            start = seen[state]
            stream = PeriodicDigits(f.p, tuple(digits[:start]), tuple(digits[start:]))
            return PhiExactResult(stream, stream.to_rational(), len(digits))
        if len(digits) >= max_steps:
            return None
        seen[state] = len(digits)
        digits.append(residue(state, f.p))
        state = f.apply(state)


def oracle_periodic_expansion(r, p):
    r = Fraction(r)
    if gcd(r.denominator, p) != 1:
        raise ValueError(f"denominator of {r} is not coprime to {p}")
    seen: dict[Fraction, int] = {}
    digits: list[int] = []
    state = r
    while state not in seen:
        seen[state] = len(digits)
        d = state.numerator * pow(state.denominator, -1, p) % p
        digits.append(d)
        state = (state - d) / p
    start = seen[state]
    return PeriodicDigits(p, tuple(digits[:start]), tuple(digits[start:]))


@st.composite
def seeds(draw, p):
    """Integers, or rationals whose denominator is coprime to p."""
    n = draw(st.integers(min_value=-(10**6), max_value=10**6))
    if draw(st.booleans()):
        return n
    q = draw(st.integers(min_value=1, max_value=200).filter(lambda q: gcd(q, p) == 1))
    return Fraction(n, q)


@st.composite
def maps_and_seeds(draw):
    f = draw(branch_maps())
    return f, draw(seeds(f.p))


@st.composite
def bad_seeds(draw, p):
    """Reduced rationals whose denominator shares the factor p."""
    n = draw(st.integers(min_value=-(10**4), max_value=10**4).filter(lambda n: n % p))
    return Fraction(n, p * draw(st.integers(min_value=1, max_value=50)))


def assert_callers_match_oracles(f, r):
    """classify_orbit and phi_exact equal the Fraction loops at the budgets
    0, mu+lam-1, mu+lam and BUDGET (only 0 and BUDGET when no repeat is found)."""
    full = oracle_phi_exact(f, r)
    budgets = {0, BUDGET}
    if full is not None:
        budgets |= {full.steps_used - 1, full.steps_used}
    for budget in sorted(budgets):
        phi = full if budget == BUDGET else oracle_phi_exact(f, r, budget)
        # both loops stop at the same step, so a None from one is a None from
        # the other; that spares a second 10000-step Fraction orbit
        classified = None if phi is None else oracle_classify_orbit(f, r, budget)
        assert phi_exact(f, r, budget) == phi, (r, budget)
        assert classify_orbit(f, r, budget) == classified, (r, budget)


@settings(max_examples=30, deadline=None)
@given(maps_and_seeds())
def test_kernel_callers_match_fraction_loops(case):
    assert_callers_match_oracles(*case)


def test_collatz_like_seeds_match_fraction_loops():
    # the convergent maps and seed shapes of the orbit benchmark
    seeds = [*range(-20, 100), *(Fraction(n, q) for n in range(-20, 20) for q in (5, 7, 101))]
    for f in (collatz_map(), an_plus_b_map(3, 5)):
        for r in seeds:
            assert_callers_match_oracles(f, r)


@settings(max_examples=150, deadline=None)
@given(maps_and_seeds())
def test_scaled_orbit_states_are_the_iterates(case):
    f, r = case
    orbit = f.scaled_orbit(r, 300)
    if orbit is None:
        return
    x = Fraction(r)
    assert orbit.q == x.denominator
    for n, d in zip(orbit.states, orbit.digits):
        assert Fraction(n, orbit.q) == x
        assert d == residue(x, f.p)
        x = f.apply(x)
    assert x == Fraction(orbit.states[orbit.start], orbit.q)
    assert len(set(orbit.states)) == len(orbit.states)


@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), seeds(p))))
def test_periodic_expansion_matches_fraction_loop(case):
    p, r = case
    assert periodic_expansion(r, p) == oracle_periodic_expansion(r, p)


def test_periodic_expansion_large_numerators():
    for r in (Fraction(-(10**40) + 7, 3), 10**30, Fraction(10**25, 7**3)):
        for p in (2, 3, 5):
            assert periodic_expansion(r, p) == oracle_periodic_expansion(r, p)


@given(st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), bad_seeds(p))))
def test_denominator_sharing_p_is_rejected(case):
    p, r = case
    f = BranchMap(p, tuple((1, -d) for d in range(p)))
    for call in (
        lambda: f.scaled_orbit(r, BUDGET),
        lambda: classify_orbit(f, r),
        lambda: phi_exact(f, r),
        lambda: periodic_expansion(r, p),
    ):
        with pytest.raises(ValueError, match="not coprime"):
            call()


def test_budget_is_preperiod_plus_cycle_length():
    # 3 -> 5 -> 8 -> 4 -> 2 -> 1 -> 2: the repeat is seen after 6 steps
    t = collatz_map()
    assert t.scaled_orbit(3, 5) is None
    orbit = t.scaled_orbit(3, 6)
    assert orbit.states == [3, 5, 8, 4, 2, 1]
    assert orbit.digits == [1, 1, 0, 0, 0, 1]
    assert orbit.start == 4
    assert classify_orbit(t, 3, 5) is None
    assert classify_orbit(t, 3, 6).cycle.word == Word(2, (1, 0))
    with pytest.raises(ValueError):
        t.scaled_orbit(3, -1)


def test_periodic_expansion_budget_is_the_step_bound(monkeypatch):
    # the orbit of n/q repeats within |n|.bit_length() + q + 2 steps, one
    # stored state per step; a period of up to ord_q(2) ~ 7**20 digits would
    # otherwise run for as long as the period
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="orbit states.*COLLATZGRAPHS_SIZE_LIMIT"):
        periodic_expansion(Fraction(10**25, 7**20), 2)
    assert time.perf_counter() - start < 1
    # a denominator sharing p is bad input whatever its size
    with pytest.raises(ValueError, match="not coprime"):
        periodic_expansion(Fraction(1, 2**30), 2)
    r = Fraction(13, 7)
    bound = r.numerator.bit_length() + r.denominator + 2
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", str(bound))
    assert periodic_expansion(r, 2) == oracle_periodic_expansion(r, 2)
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", str(bound - 1))
    with pytest.raises(ResourceLimitError, match=f"orbit states.*budget of {bound - 1} items"):
        periodic_expansion(r, 2)


def test_scaled_orbit_charges_its_stored_states(monkeypatch):
    # 5n+1 from 7 diverges, its states growing by about 0.16 bits per step:
    # at step 4096 the states so far are charged as 4096 * 10 machine words
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "20000")
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="orbit state machine words.*20000 items"):
        classify_orbit(an_plus_b_map(5, 1), 7, 10**6)
    assert time.perf_counter() - start < 1
    # 1/9901 under the shift map: a 9900-step cycle of one-word states is
    # charged at steps 4096 and 8192 and stays under the same budget
    orbit = classify_orbit(shift_map(), Fraction(1, 9901), 10**6)
    assert len(orbit.cycle.elements) == 9900
    assert classify_orbit(collatz_map(), 27, 10**6).cycle.integer_cycle == (1, 2)


def oracle_padic_digits(r, p, n):
    r = Fraction(r)
    digits = []
    for _ in range(n):
        d = residue(r, p)
        digits.append(d)
        r = (r - d) / p
    return Word(p, tuple(digits))


@given(
    st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), seeds(p))),
    st.integers(min_value=0, max_value=40),
)
def test_padic_digits_match_digit_extraction(case, n):
    p, r = case
    assert padic_digits(r, p, n) == oracle_padic_digits(r, p, n)


def oracle_digit_sequence(f, x, k):
    digits = []
    for _ in range(k):
        digits.append(residue(x, f.p))
        x = f.apply(x)
    return Word(f.p, tuple(digits))


@settings(max_examples=300)
@given(maps_and_seeds(), st.integers(min_value=0, max_value=30))
def test_digit_sequence_matches_fraction_walk(case, k):
    f, r = case
    assert f.digit_sequence(r, k) == oracle_digit_sequence(f, Fraction(r), k)


@given(
    st.sampled_from((2, 3, 5)).flatmap(lambda p: st.tuples(st.just(p), bad_seeds(p))),
    st.integers(min_value=1, max_value=8),
)
def test_digit_sequence_rejects_denominator_sharing_p(case, k):
    p, r = case
    f = BranchMap(p, tuple((1, -d) for d in range(p)))
    with pytest.raises(ValueError):
        oracle_digit_sequence(f, r, k)
    with pytest.raises(ValueError):
        f.digit_sequence(r, k)


def oracle_phi_truncated(f, w):
    digits = []
    cur = w
    while len(cur) > 0:
        digits.append(cur[0])
        if len(cur) == 1:
            break
        cur = Word.from_int(f.apply(cur.value()), f.p, len(cur) - 1)
    return Word(f.p, tuple(digits))


@settings(max_examples=150)
@given(branch_maps(), st.data())
def test_phi_truncated_matches_truncated_walk(f, data):
    w = data.draw(digit_words(base=f.p, max_len=12))
    assert phi_truncated(f, w) == oracle_phi_truncated(f, w)


def oracle_cycle_from_word(f, w):
    k = len(w)
    a_total, b_total, power = 1, 0, 1
    for d in w:
        a, b = f.branches[d]
        a_total, b_total = a * a_total, a * b_total + b * power
        power *= f.p
    x = Fraction(b_total, power - a_total)
    if f.digit_sequence(x, k) != w:
        raise RuntimeError(f"cycle solution {x} does not traverse {w}")
    return x


def oracle_word_cycle(f, w):
    anchor = x = oracle_cycle_from_word(f, w)
    elements = []
    for _ in range(len(w)):
        elements.append(x)
        x = f.apply(x)
    assert x == anchor  # the orbit closes after len(w) steps
    (b,) = {e.denominator for e in elements}
    return RationalCycle(w, tuple(elements), b, tuple(e.numerator for e in elements))


@st.composite
def cycle_words(draw, p):
    """Non-empty words over p letters, primitive or a power of a shorter word."""
    root = draw(digit_words(base=p, min_len=1, max_len=5))
    return Word(p, root.digits * draw(st.integers(min_value=1, max_value=3)))


@settings(max_examples=150)
@given(branch_maps(), st.data())
def test_cycle_words_match_fraction_walk(f, data):
    w = data.draw(cycle_words(f.p))
    expected = oracle_word_cycle(f, w)
    assert cycle_from_word(f, w) == expected.elements[0]
    assert word_cycle(f, w) == expected


def test_imprimitive_cycle_word_keeps_its_length():
    for f, text in ((collatz_map(), "1010"), (original_collatz_map(), "12011201")):
        w = Word.from_str(text, f.p)
        cycle = word_cycle(f, w)
        assert len(cycle.elements) == len(w)
        assert cycle == oracle_word_cycle(f, w)
