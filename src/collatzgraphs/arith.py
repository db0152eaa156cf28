"""Exact arithmetic: digit words, p-adic digit expansions, periodic digit streams.

Everything in this package is exact integer or rational arithmetic; no floats
anywhere. Rationals are plain ``fractions.Fraction`` values (already reduced,
with positive denominators). A rational a/q with gcd(q, p) = 1 embeds into the
p-adic integers, so it has a well defined residue mod p and an eventually
periodic base-p digit expansion.

Digit order convention, used throughout: digit i is the coefficient of p**i,
so the leftmost digit of a rendered word is the least significant one. In
base 2 the word "10110" denotes 1 + 4 + 8 = 13.
"""

from fractions import Fraction
from math import gcd

from .limits import check_size


def residue(x: int | Fraction, m: int) -> int:
    """Canonical residue of x in {0..m-1}.

    For a rational, the residue is numerator * denominator**-1 mod m, which
    requires the denominator to be a unit mod m (ValueError otherwise).
    """
    if isinstance(x, int):
        return x % m
    x = Fraction(x)
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return x.numerator * pow(x.denominator, -1, m) % m
    except ValueError:
        raise ValueError(f"{x.denominator} is not invertible modulo {m}") from None


class _Record:
    """Base of the package's immutable records.

    A subclass lists its fields, in order, as its __slots__ and stores them
    in __init__ with object.__setattr__. Equality (same class only), hashing,
    the Name(field=value, ...) repr and pickling all derive from those
    fields; unpickling and copying go back through the subclass constructor,
    so they validate as it does. Assigning or deleting a field raises
    dataclasses.FrozenInstanceError. Records that validate or canonicalise
    do it in __post_init__, which __init__ calls last (the benchmark's trace
    counts constructions by that name).
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        # imported here so that importing the package never loads dataclasses
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Word(_Record):
    """A finite digit word over the alphabet {0..base-1}.

    Words double as truncated residues: a word of length N denotes its value
    sum(digits[i] * base**i), a canonical representative mod base**N.

    The public constructor validates the base and every digit. Word._of
    skips that check: it is only for digits the library computed itself, as
    a tuple of ints in range(base) with base >= 2 (Duval's loop, a divmod by
    the base, a residue mod p, a reversal of a valid word).
    """

    __slots__ = ("base", "digits")
    base: int
    digits: tuple[int, ...]

    def __init__(self, base: int, digits: tuple[int, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "digits", tuple(digits))
        self.__post_init__()

    @classmethod
    def _of(cls, base: int, digits: tuple[int, ...]) -> "Word":
        """A Word of trusted digits, built without __post_init__."""
        w = object.__new__(cls)
        object.__setattr__(w, "base", base)
        object.__setattr__(w, "digits", digits)
        return w

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        if self.digits and (min(self.digits) < 0 or max(self.digits) >= self.base):
            raise ValueError(f"digits out of range for base {self.base}: {self.digits}")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    def __str__(self) -> str:
        if self.base <= 10:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def value(self) -> int:
        """The number this word denotes (digit i weighted by base**i)."""
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def reversed(self) -> "Word":
        return Word._of(self.base, self.digits[::-1])

    @classmethod
    def from_int(cls, n: int, base: int, length: int) -> "Word":
        """The length-digit word of the canonical residue of n mod base**length."""
        if base < 2:
            raise ValueError(f"base must be at least 2, got {base}")
        if length < 0:
            raise ValueError(f"length must be nonnegative, got {length}")
        n %= base**length
        digits = []
        for _ in range(length):
            n, d = divmod(n, base)
            digits.append(d)
        return cls._of(base, tuple(digits))

    @classmethod
    def from_str(cls, text: str, base: int) -> "Word":
        """Parse a rendered word; single characters for base <= 10, else comma separated."""
        if not text:
            return cls(base, ())
        if base <= 10:
            return cls(base, tuple(int(c) for c in text))
        return cls(base, tuple(int(part) for part in text.split(",")))


class PeriodicDigits(_Record):
    """An eventually periodic digit stream: preperiod, then period repeated forever.

    Construction canonicalizes: the period is made primitive (never a power of
    a shorter word) and any preperiod tail that could be absorbed into a
    rotation of the period is absorbed. Equality is therefore structural:
    two streams are equal iff they agree digit by digit.
    """

    __slots__ = ("base", "preperiod", "period")
    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __init__(self, base: int, preperiod: tuple[int, ...], period: tuple[int, ...]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "preperiod", tuple(preperiod))
        object.__setattr__(self, "period", tuple(period))
        self.__post_init__()

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be at least 2, got {self.base}")
        pre = self.preperiod
        per = self.period
        if not per:
            raise ValueError("period must be non-empty")
        digits = pre + per
        if min(digits) < 0 or max(digits) >= self.base:
            raise ValueError(f"digits out of range for base {self.base}")
        n = len(per)
        for span in range(1, n + 1):
            if n % span == 0 and per[:span] * (n // span) == per:
                per = per[:span]
                break
        # a preperiod digit matching the period's last digit shifts into the
        # period (rotated right) without changing the stream
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def __str__(self) -> str:
        pre = Word(self.base, self.preperiod)
        per = Word(self.base, self.period)
        return f"{pre}({per})"

    def prefix(self, n: int) -> Word:
        """The first n digits of the stream, unrolled."""
        digits = list(self.preperiod)
        i = 0
        while len(digits) < n:
            digits.append(self.period[i % len(self.period)])
            i += 1
        return Word(self.base, tuple(digits[:n]))

    def to_rational(self) -> Fraction:
        """The p-adic value of the stream: A + p**|pre| * B / (1 - p**|per|)."""
        p = self.base
        a = Word(p, self.preperiod).value()
        b = Word(p, self.period).value()
        return a + Fraction(p ** len(self.preperiod) * b, 1 - p ** len(self.period))


def padic_digits(r: int | Fraction, p: int, n: int) -> Word:
    """First n base-p digits of the rational r.

    The result is the unique length-n word congruent to r mod p**n: the
    residue of r mod p**n (through the inverse of the denominator), written
    in base p. The denominator of r must be coprime to p.
    """
    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    if n < 0:
        raise ValueError(f"digit count must be nonnegative, got {n}")
    r = Fraction(r)
    if gcd(r.denominator, p) != 1:
        raise ValueError(f"denominator of {r} is not coprime to {p}")
    return Word.from_int(residue(r, p**n), p, n)


def periodic_expansion(r: int | Fraction, p: int) -> PeriodicDigits:
    """The full (eventually periodic) base-p expansion of a rational.

    The digits are the orbit residues of r under the base-p shift map
    x -> (x - d) / p, d = x mod p (branches (1, -d)), iterated on the
    numerator n of r = n/q by BranchMap.scaled_orbit. That map drives n into
    [-q, 0] within |n|.bit_length() + 1 steps and keeps it there, so the
    orbit repeats within |n|.bit_length() + q + 2 steps; the digits emitted
    between the two visits form the period. The orbit keeps one state per
    step, so that bound is checked against the size budget first.
    """
    # maps builds on this module
    from .maps import BranchMap

    if p < 2:
        raise ValueError(f"base must be at least 2, got {p}")
    r = Fraction(r)
    if gcd(r.denominator, p) != 1:
        raise ValueError(f"denominator of {r} is not coprime to {p}")
    bound = abs(r.numerator).bit_length() + r.denominator + 2
    check_size("orbit states of a periodic expansion", bound)
    shift = BranchMap(p, tuple((1, -d) for d in range(p)))
    orbit = shift.scaled_orbit(r, bound)
    start = orbit.start
    return PeriodicDigits(p, tuple(orbit.digits[:start]), tuple(orbit.digits[start:]))
