"""Branch maps: p-branch affine maps such as the 3n+1 map and its relatives.

A branch map sends n in the class i mod p to (a_i * n + b_i) / p. Two
conditions make a coefficient table admissible:

* a_i * i + b_i = 0 (mod p), so each branch divides exactly (integers map to
  integers, and rationals with denominator coprime to p stay that way);
* gcd(a_i, p) = 1, which makes the p lifts of a residue hit p distinct
  targets one level up. That is the property the conjugacy machinery needs.

Maps evaluate on integers and on rationals with denominator coprime to p.

A rational orbit is an integer orbit in disguise: for r = n/q with gcd(q, p) = 1,
f(n/q) = f_q(n)/q where f_q sends n to (a_i * n + b_i * q) / p on the branch
i = n * q**-1 mod p. BranchMap.scaled_orbit iterates that integer map.
"""

import json
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .arith import Word, _Record, residue
from .limits import check_size

# scaled_orbit charges its stored states to the size budget once per this many
# steps: often enough that a divergent orbit is stopped soon after it passes
# the budget, rarely enough that the charge costs nothing per step
_CHARGE_STEPS = 4096


class ScaledOrbit(NamedTuple):
    """The orbit of r = n/q up to its first repeated state, scaled by q.

    states[i] / q is the i-th iterate of r and digits[i] its residue mod p.
    The states are pairwise distinct, and the iterate after the last one is
    states[start]: states[start:] is the cycle.
    """

    q: int
    states: list[int]
    digits: list[int]
    start: int


class BranchMap(_Record):
    """A p-branch affine map; branches[i] = (a_i, b_i) applies on n = i (mod p)."""

    __slots__ = ("p", "branches")
    p: int
    branches: tuple[tuple[int, int], ...]

    def __init__(self, p: int, branches: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "branches", tuple(tuple(br) for br in branches))
        self.__post_init__()

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be at least 2, got {self.p}")
        if len(self.branches) != self.p:
            raise ValueError(f"expected {self.p} branches, got {len(self.branches)}")
        for i, (a, b) in enumerate(self.branches):
            if gcd(a, self.p) != 1:
                raise ValueError(f"branch {i}: a={a} shares a factor with p={self.p}")
            if (a * i + b) % self.p != 0:
                raise ValueError(
                    f"branch {i}: a*i+b = {a * i + b} is not divisible by p={self.p}"
                )

    def apply(self, x: int | Fraction) -> int | Fraction:
        """One forward step. Exact: integer in, integer out."""
        if isinstance(x, int):
            a, b = self.branches[x % self.p]
            return (a * x + b) // self.p
        a, b = self.branches[residue(x, self.p)]
        return (a * x + b) / self.p

    def digit_sequence(self, x: int | Fraction, k: int) -> Word:
        """The word x_0 .. x_{k-1} of orbit residues: x_i = (i-th iterate) mod p.

        Digit i depends only on x mod p**(i+1), so a rational x is replaced
        by its residue mod p**k and the integer orbit is stepped instead.
        """
        if k < 0:
            raise ValueError(f"length must be nonnegative, got {k}")
        p = self.p
        if not isinstance(x, int):
            x = residue(x, p**k)
        digits = []
        for _ in range(k):
            digits.append(x % p)
            x = self.apply(x)
        return Word._of(p, tuple(digits))

    def scaled_orbit(self, r: int | Fraction, max_steps: int) -> ScaledOrbit | None:
        """Iterate r = n/q through its integer numerator until a state repeats.

        A repeat found after mu + lam map steps (preperiod mu, cycle length
        lam) needs max_steps >= mu + lam; with a smaller budget the result is
        None (undetermined). Raises ValueError unless gcd(q, p) = 1.

        Every _CHARGE_STEPS steps the stored states are charged to the size
        budget as taken * (64-bit words of the current state), so a divergent
        orbit raises ResourceLimitError instead of filling memory.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
        if isinstance(r, int):
            n, q = r, 1
        else:
            r = Fraction(r)
            n, q = r.numerator, r.denominator
            if gcd(q, self.p) != 1:
                raise ValueError(f"denominator of {r} is not coprime to {self.p}")
        p = self.p
        q_inv = pow(q, -1, p)
        steps = [(a, b * q) for a, b in self.branches]
        seen: dict[int, int] = {}
        digits: list[int] = []
        append = digits.append
        taken = 0
        limit = min(max_steps, _CHARGE_STEPS)
        while n not in seen:
            if taken >= limit:
                if taken >= max_steps:
                    return None
                check_size("orbit state machine words", taken * -(-n.bit_length() // 64))
                limit = min(max_steps, taken + _CHARGE_STEPS)
            i = n * q_inv % p
            seen[n] = taken
            taken += 1
            append(i)
            a, bq = steps[i]
            n = (a * n + bq) // p
        return ScaledOrbit(q, list(seen), digits, seen[n])


def collatz_map() -> BranchMap:
    """n/2 on evens, (3n+1)/2 on odds."""
    return BranchMap(2, ((1, 0), (3, 1)))


def an_plus_b_map(a: int, b: int) -> BranchMap:
    """n/2 on evens, (a*n + b)/2 on odds; a and b must both be odd."""
    if a % 2 == 0 or b % 2 == 0:
        raise ValueError(f"a and b must both be odd, got a={a}, b={b}")
    return BranchMap(2, ((1, 0), (a, b)))


def shift_map() -> BranchMap:
    """The binary digit shift: n/2 on evens, (n-1)/2 on odds."""
    return an_plus_b_map(1, -1)


def original_collatz_map() -> BranchMap:
    """The three-branch map 2n/3, (4n-1)/3, (4n+1)/3 on the classes mod 3."""
    return BranchMap(3, ((2, 0), (4, -1), (4, 1)))


PRESETS = ("collatz", "shift", "collatz-original", "an+b")


def standard_map(kind: str, a: int | None = None, b: int | None = None) -> BranchMap:
    """Look up a named preset; "an+b" additionally needs odd a and b."""
    if kind == "collatz":
        return collatz_map()
    if kind == "shift":
        return shift_map()
    if kind == "collatz-original":
        return original_collatz_map()
    if kind == "an+b":
        if a is None or b is None:
            raise ValueError("preset an+b needs both a and b")
        return an_plus_b_map(a, b)
    raise ValueError(f"unknown map preset {kind!r}; choose from {', '.join(PRESETS)}")


def map_to_json(f: BranchMap) -> str:
    """Wire form: {"p": p, "branches": [[a0, b0], ...]}."""
    return json.dumps({"p": f.p, "branches": [list(br) for br in f.branches]})


def map_from_json(text: str) -> BranchMap:
    """Parse the wire form, re-validating the admissibility conditions."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid map JSON: {exc}") from None
    if not isinstance(data, dict) or set(data) != {"p", "branches"}:
        raise ValueError('map JSON must be an object with keys "p" and "branches"')
    p = data["p"]
    branches = data["branches"]
    if not isinstance(p, int) or not isinstance(branches, list):
        raise ValueError("map JSON: p must be an integer and branches a list")
    pairs = []
    for br in branches:
        if not (isinstance(br, list) and len(br) == 2 and all(isinstance(v, int) for v in br)):
            raise ValueError(f"map JSON: branch {br!r} is not a pair of integers")
        pairs.append((br[0], br[1]))
    return BranchMap(p, tuple(pairs))
