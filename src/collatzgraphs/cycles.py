"""Cycles of branch maps over the rationals, and the 3n+b integer correspondence.

A digit word w of length k pins down the unique rational x whose orbit
traverses the branches w_0, w_1, ... cyclically: composing the branches gives
f^k(x) = (A*x + B) / p**k with A the product of the branch multipliers, and
the cycle condition f^k(x) = x solves to x = B / (p**k - A).

For the 3n+1 map, scaling a rational cycle by its common denominator b turns
it into an integer cycle of the 3n+b map, since T(n/b) = T_b(n)/b where
T_b(n) = (3n+b)/2 on odds and n/2 on evens. The denominators that occur are
exactly the odd divisors of 2**k - 3**h coprime to 3.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from .arith import Word, _Record
from .limits import check_size
from .maps import BranchMap, ScaledOrbit, an_plus_b_map, collatz_map
from .words import _duval, is_primitive


class RationalCycle(_Record):
    """A rational cycle together with its scaled integer form.

    elements[0] traverses word; every element has the same reduced
    denominator b; integer_cycle is b * elements, elementwise.
    """

    __slots__ = ("word", "elements", "b", "integer_cycle")
    word: Word
    elements: tuple[Fraction, ...]
    b: int
    integer_cycle: tuple[int, ...]

    def __init__(
        self, word: Word, elements: tuple[Fraction, ...], b: int, integer_cycle: tuple[int, ...]
    ):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "integer_cycle", integer_cycle)

    def element_set(self) -> frozenset[Fraction]:
        return frozenset(self.elements)

    def to_jsonable(self) -> dict:
        return {
            "word": str(self.word),
            "b": self.b,
            "rational_cycle": [str(e) for e in self.elements],
            "integer_cycle": list(self.integer_cycle),
        }


def _compose(f: BranchMap, digits) -> tuple[int, int, int]:
    """(A, B, p**k) with f^k(x) = (A*x + B) / p**k for every x whose orbit
    takes the branches digits[0], ..., digits[k-1] in turn."""
    a_total, b_total, power = 1, 0, 1
    for d in digits:
        a, b = f.branches[d]
        a_total, b_total = a * a_total, a * b_total + b * power
        power *= f.p
    return a_total, b_total, power


def _word_orbit(f: BranchMap, w: Word) -> ScaledOrbit:
    """The scaled integer orbit of the rational whose f-orbit traverses w.

    Composing the branches of w gives x = B / (p**k - A), which is degenerate
    only when A equals p**k; admissible maps (multipliers coprime to p) never
    achieve that for k >= 1. The admissibility conditions also force x to
    actually take branch w_i at step i and to return after k steps, so its
    orbit is a pure cycle spelling w (repeated, when w is a power of a shorter
    word); a mismatch is an internal error, not bad input.

    The k stored states are fractions of B and p**k - A, so each is charged
    as the 64-bit words of the larger of the two before any state is stored.
    """
    if w.base != f.p:
        raise ValueError(f"word base {w.base} does not match p={f.p}")
    k = len(w)
    if k < 1:
        raise ValueError("cycle word must be non-empty")
    a_total, b_total, power = _compose(f, w.digits)
    if a_total == power:
        raise ValueError(f"word {w} is degenerate: multiplier product equals {power}")
    bits = max(b_total.bit_length(), (power - a_total).bit_length())
    check_size("cycle state machine words", k * -(-bits // 64))
    x = Fraction(b_total, power - a_total)
    orbit = f.scaled_orbit(x, k)
    if orbit is None or orbit.start != 0 or orbit.digits * (k // len(orbit.digits)) != list(w):
        raise RuntimeError(f"cycle solution {x} does not traverse {w}")
    return orbit


def cycle_from_word(f: BranchMap, w: Word) -> Fraction:
    """The unique rational whose f-orbit traverses the digit word w cyclically."""
    orbit = _word_orbit(f, w)
    return Fraction(orbit.states[0], orbit.q)


def _rational_cycle(states: list[int], q: int, word: Word) -> RationalCycle:
    """The cycle record of the rationals n/q, n in states, labeled by word."""
    elements = tuple(Fraction(n, q) for n in states)
    denominators = {e.denominator for e in elements}
    if len(denominators) != 1:
        raise RuntimeError(f"cycle elements do not share a denominator: {elements}")
    # every element is (its numerator) / b, so b * elements are the numerators
    return RationalCycle(word, elements, denominators.pop(), tuple(e.numerator for e in elements))


def word_cycle(f: BranchMap, w: Word) -> RationalCycle:
    """Full cycle record of w under f: the anchor solution and its orbit,
    len(w) elements long even when w repeats a shorter word."""
    orbit = _word_orbit(f, w)
    return _rational_cycle(orbit.states * (len(w) // len(orbit.states)), orbit.q, w)


def collatz_cycle(w: Word) -> RationalCycle:
    """Cycle data of a primitive binary word under the 3n+1 map.

    Rotating w rotates the cycle, so any rotation of a Lyndon word is
    accepted; the cycle is anchored at the element whose orbit spells w
    itself.  The common denominator b is automatically odd and coprime to 3
    (it divides 2**k - 3**h), and the scaled elements are re-verified to be a
    genuine integer cycle of the 3n+b map.
    """
    if w.base != 2:
        raise ValueError(f"expected a binary word, got base {w.base}")
    if not is_primitive(w):
        raise ValueError(f"{w} is a repeated shorter word")
    cycle = word_cycle(collatz_map(), w)
    if gcd(cycle.b, 6) != 1:
        raise RuntimeError(f"denominator {cycle.b} is not coprime to 6")
    scaled = an_plus_b_map(3, cycle.b).scaled_orbit(cycle.integer_cycle[0], len(w))
    if scaled is None or scaled.start != 0 or tuple(scaled.states) != cycle.integer_cycle:
        raise RuntimeError(f"scaled cycle of {w} is not a closed 3n+{cycle.b} orbit")
    return cycle


_COLLATZ = collatz_map()


def _denominator(w: tuple[int, ...]) -> int:
    """The reduced denominator of B / (2**k - 3**h), the anchor of w's 3n+1
    cycle, from the integer composition of w alone: no rational is built."""
    a, b, power = _compose(_COLLATZ, w)
    return abs(power - a) // gcd(b, power - a)


def _census(max_len: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(w, b) for every binary Lyndon word w of length <= max_len, lazily, in
    (length, lex) order: b is the denominator of w's 3n+1 cycle. Checks
    max_len and charges the 2**max_len digits of the longest words against
    the size budget at the call.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    check_size("cycle word digits", 1, 2, max_len)
    return ((w, _denominator(w)) for k in range(1, max_len + 1) for w in _duval(2, k, (k,)))


def _census_cycle(w: tuple[int, ...], b: int) -> RationalCycle:
    """collatz_cycle of w, whose denominator the census computed as b."""
    cycle = collatz_cycle(Word(2, w))
    if cycle.b != b:
        raise RuntimeError(f"cycle of {cycle.word} has denominator {cycle.b}, not {b}")
    return cycle


def collatz_cycles(max_len: int) -> Iterator[RationalCycle]:
    """The 3n+1 cycle of every binary Lyndon word of length <= max_len, one
    at a time, in (length, lex) word order. The 2**max_len digits of the
    longest words count against the size budget, checked at the call."""
    return (_census_cycle(w, b) for w, b in _census(max_len))


def cycles_with_denominator(b: int, max_len: int) -> list[RationalCycle]:
    """All 3n+1 rational cycles of denominator exactly b indexed by binary
    Lyndon words of length <= max_len, in (length, lex) word order. Only the
    words whose census denominator is b become cycles."""
    if b < 1 or b % 2 == 0 or b % 3 == 0:
        raise ValueError(f"b must be positive, odd and coprime to 3, got {b}")
    return [_census_cycle(w, c) for w, c in _census(max_len) if c == b]


class ClassifiedOrbit(_Record):
    """Outcome of bounded forward iteration that reached a cycle.

    The cycle is anchored at its least element; preperiod is the number of
    steps before that anchor first appears in the orbit.
    """

    __slots__ = ("cycle", "preperiod")
    cycle: RationalCycle
    preperiod: int

    def __init__(self, cycle: RationalCycle, preperiod: int):
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "preperiod", preperiod)


def classify_orbit(
    f: BranchMap, r: int | Fraction, max_steps: int = 10000
) -> ClassifiedOrbit | None:
    """Iterate r under f until a state repeats, then report the cycle reached.

    r = n/q is iterated as the integer orbit of n under f_q (see
    BranchMap.scaled_orbit); since q > 0 the least rational element of the
    cycle is its least integer state. Returns None (undetermined) when the
    preperiod plus the cycle length exceeds max_steps. Divergence can never
    be certified by iteration, only cycling can.
    """
    orbit = f.scaled_orbit(r, max_steps)
    if orbit is None:
        return None
    start = orbit.start
    looped = orbit.states[start:]
    shift = looped.index(min(looped))
    cycle_digits = orbit.digits[start:]
    word = Word(f.p, tuple(cycle_digits[shift:] + cycle_digits[:shift]))
    return ClassifiedOrbit(
        _rational_cycle(looped[shift:] + looped[:shift], orbit.q, word), start + shift
    )
