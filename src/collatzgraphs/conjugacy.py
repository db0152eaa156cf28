"""Conjugacy maps between modular map graphs and De Bruijn graphs.

For an admissible branch map f, the word of orbit residues n -> (x_0, ...,
x_{k-1}) with x_i = f^i(n) mod p is a bijection mod p**k, and it carries the
modular graph of f mod p**k onto the p-ary De Bruijn graph of dimension k.
The same digit map extends to truncated residues (words) and, exactly, to
rationals with denominator coprime to p, where the digit stream is eventually
periodic precisely when the orbit falls into a cycle.
"""

from fractions import Fraction

from .arith import PeriodicDigits, Word, _Record
from .graphs import Permutation, check_isomorphism, debruijn_graph, modular_graph
from .limits import check_size
from .maps import BranchMap


def conjugacy_permutation(f: BranchMap, k: int) -> Permutation:
    """The digit map n -> sum x_i(n) p**i on {0..p**k - 1}.

    Digit i of the image is the residue of the i-th iterate of n (digit 0,
    the least significant, is n's own residue), so the image is always
    congruent to n mod p.
    """
    if k < 1:
        raise ValueError(f"word length must be at least 1, got {k}")
    check_size("permutation entries", 1, f.p, k)
    return Permutation(tuple(f.digit_sequence(n, k).value() for n in range(f.p**k)))


def verify_conjugacy(f: BranchMap, k: int) -> bool:
    """Check that the digit map is an isomorphism from the mod-p**k graph of f
    onto the De Bruijn graph of dimension k."""
    # the modulus p**k itself is refused on its exponent before it is built
    check_size("modular graph edges", 1, f.p, k + 1)
    c = modular_graph(f, f.p**k)
    b = debruijn_graph(f.p, k)
    return check_isomorphism(c, b, conjugacy_permutation(f, k))


def digit_reversal_permutation(p: int, k: int) -> Permutation:
    """n -> the number whose length-k word is n's word reversed.

    An involution on {0..p**k - 1}; it is also an isomorphism from the
    transposed De Bruijn graph onto the De Bruijn graph, since reversing
    words turns suffix overlap into prefix overlap.
    """
    if k < 1:
        raise ValueError(f"word length must be at least 1, got {k}")
    check_size("permutation entries", 1, p, k)
    return Permutation(tuple(Word.from_int(n, p, k).reversed().value() for n in range(p**k)))


def phi_truncated(f: BranchMap, w: Word) -> Word:
    """The digit map applied to a truncated residue.

    Digit i of the result is the residue mod p of the i-th iterate of
    w.value(), so the value equals conjugacy_permutation(f, len(w)) applied
    to w.value(). Digit i only depends on the input mod p**(i+1), so the
    result is the same for every integer in the residue class w stands for.
    """
    if w.base != f.p:
        raise ValueError(f"word base {w.base} does not match p={f.p}")
    return f.digit_sequence(w.value(), len(w))


def phi_inverse_truncated(f: BranchMap, target: Word) -> Word:
    """The unique word w of the same length with phi_truncated(f, w) == target.

    Built one digit at a time: digits below j of the image never depend on
    input digits at or above j. With y = f^j(v) for the digits v pinned so
    far and A the product of the multipliers of branches target[:j], adding
    c * p**j to v moves f^j by exactly c * A, so the next digit solves
    y + c * A = target[j] (mod p); A is a unit mod p because every
    multiplier is. One map step per digit; the result is checked against
    phi_truncated, and a mismatch (f is not admissible) is an internal error.
    """
    if target.base != f.p:
        raise ValueError(f"word base {target.base} does not match p={f.p}")
    p = f.p
    digits: list[int] = []
    y = 0
    mult = 1
    for t in target:
        c = (t - y) * pow(mult, -1, p) % p
        digits.append(c)
        y = f.apply(y + c * mult)
        mult *= f.branches[t][0]
    w = Word(p, tuple(digits))
    if phi_truncated(f, w) != target:
        raise RuntimeError("preimage does not map onto the target; map branches are not De Bruijn")
    return w


class PhiExactResult(_Record):
    """Exact digit-map value of a rational input.

    digits is the full eventually periodic digit stream of the orbit residues
    and value the rational it denotes; steps_used counts the map applications
    spent before the orbit revisited a state.
    """

    __slots__ = ("digits", "value", "steps_used")
    digits: PeriodicDigits
    value: Fraction
    steps_used: int

    def __init__(self, digits: PeriodicDigits, value: Fraction, steps_used: int):
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "steps_used", steps_used)


def phi_exact(f: BranchMap, r: int | Fraction, max_steps: int = 10000) -> PhiExactResult | None:
    """Exact digit-map value of a rational with denominator coprime to p.

    Records the orbit residues of r = n/q, iterated as the integer orbit of
    n under f_q (see BranchMap.scaled_orbit), until a state repeats; the
    residue stream is then eventually periodic, and its p-adic value is
    returned exactly. Returns None (undetermined) when the preperiod plus the
    cycle length exceeds max_steps; never an approximation.
    """
    orbit = f.scaled_orbit(r, max_steps)
    if orbit is None:
        return None
    digits = orbit.digits
    stream = PeriodicDigits(f.p, tuple(digits[: orbit.start]), tuple(digits[orbit.start :]))
    return PhiExactResult(stream, stream.to_rational(), len(digits))
