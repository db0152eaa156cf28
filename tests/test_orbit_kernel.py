"""The scaled-integer orbit kernel against the Fraction loops it replaced.

classify_orbit, phi_exact and periodic_expansion all run on
BranchMap.scaled_orbit. The oracles below are the plain definitions they used
before: step the Fraction itself with f.apply and stop at the first repeated
state. Results must agree exactly, undetermined (None) included, at the
budgets around the point where the repeat is found.
"""

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
    Word,
    an_plus_b_map,
    classify_orbit,
    collatz_map,
    periodic_expansion,
    phi_exact,
)

from conftest import branch_maps

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
        digits.append(f.residue(state))
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
        assert d == f.residue(x)
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
