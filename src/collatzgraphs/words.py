"""Lyndon words, necklace counting, and FKM De Bruijn sequences."""

from collections.abc import Container

from .arith import Word
from .limits import check_size


def _factor(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1 in ascending prime order, by trial
    division: O(sqrt(n)) divisions."""
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def _divisors(n: int) -> list[int]:
    """The positive divisors of n in ascending order, from its factorization."""
    divisors = [1]
    for prime, e in _factor(n):
        divisors = [x * prime**i for i in range(e + 1) for x in divisors]
    return sorted(divisors)


def mobius(n: int) -> int:
    """The Moebius function: 0 on square factors, else (-1)**(number of primes)."""
    if n < 1:
        raise ValueError(f"mobius needs a positive integer, got {n}")
    pairs = _factor(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def necklace_count(p: int, k: int) -> int:
    """Aperiodic rotation classes (equivalently Lyndon words) of length k over
    p letters: (1/k) * sum over d | k of mobius(d) * p**(k/d)."""
    if p < 2 or k < 1:
        raise ValueError(f"need p >= 2 and k >= 1, got p={p}, k={k}")
    # the largest power, p**k, has k base-p digits; refused before any is built
    check_size("necklace count digits", k)
    # only squarefree d contribute; skipping the rest skips their huge powers
    total = sum(mu * p ** (k // d) for d in _divisors(k) if (mu := mobius(d)))
    return total // k


def is_lyndon(w: Word) -> bool:
    """Strictly smaller than every proper rotation of itself (hence aperiodic)."""
    d = w.digits
    if not d:
        return False
    return all(d < d[i:] + d[:i] for i in range(1, len(d)))


def is_primitive(w: Word) -> bool:
    """Not a repetition of a strictly shorter word.

    Primitive words are exactly the rotations of Lyndon words; every one has
    len(w) distinct rotations.
    """
    d = w.digits
    k = len(d)
    if k == 0:
        return False
    return all(d[:m] * (k // m) != d for m in _divisors(k) if m < k)


def _duval(p: int, cap: int, lengths: Container[int]):
    """The Lyndon words over {0..p-1} of length <= cap whose length is in
    lengths, in lexicographic order, as digit tuples. Duval's algorithm
    visits every Lyndon word up to cap; only the kept ones become tuples."""
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) in lengths:
            yield tuple(w)
        m = len(w)
        while len(w) < cap:
            w.append(w[len(w) - m])
        while w and w[-1] == p - 1:
            w.pop()


def _lyndon_lengths(p: int, k: int, mode: str) -> frozenset[int]:
    """Validate (p, k, mode) and charge the p**k digits that the Lyndon words
    of the kept lengths store at most; return those lengths."""
    if p < 2 or k < 1:
        raise ValueError(f"need p >= 2 and k >= 1, got p={p}, k={k}")
    if mode == "exact":
        lengths = frozenset((k,))
    elif mode == "dividing":
        lengths = frozenset(_divisors(k))
    else:
        raise ValueError(f'mode must be "exact" or "dividing", got {mode!r}')
    check_size("Lyndon word digits", 1, p, k)
    return lengths


# One shared digit tuple per distinct Lyndon word handed out: lists of the
# same Lyndon words held at once (a caller keeping an earlier enumeration)
# store each word's digits once, not once per list. Emptied once it passes
# _INTERN_CAP words, so it holds at most that plus one enumeration.
_interned: dict[tuple[int, ...], tuple[int, ...]] = {}
_INTERN_CAP = 1 << 15


def lyndon_words(p: int, k: int, mode: str = "exact") -> list[Word]:
    """Lyndon words over p letters in lexicographic order.

    mode "exact" keeps length k only; mode "dividing" keeps lengths dividing
    k, which is the concatenation order of the FKM construction. Either
    stores at most p**k digits (exactly p**k when dividing), which is the
    count checked against the size budget. Equal words from different calls
    share their digit tuple.
    """
    lengths = _lyndon_lengths(p, k, mode)
    if len(_interned) > _INTERN_CAP:
        _interned.clear()
    share = _interned.setdefault
    of = Word._of
    return [of(p, share(w, w)) for w in _duval(p, k, lengths)]


def fkm_sequence(p: int, k: int) -> Word:
    """The FKM De Bruijn sequence of span k over p letters: the concatenation,
    in lexicographic order, of the Lyndon words whose length divides k."""
    digits: list[int] = []
    for w in _duval(p, k, _lyndon_lengths(p, k, "dividing")):
        digits.extend(w)
    return Word._of(p, tuple(digits))


def is_debruijn_sequence(s: Word, p: int, k: int) -> bool:
    """Does every length-k word over p letters occur exactly once cyclically in s?

    Requires length exactly p**k with digits below p; a verdict, not an error,
    on any failure. Then the p**k cyclic windows, read as base-p codes, are
    p**k values in range(p**k): they are pairwise distinct exactly when they
    cover the whole range. So the scan only marks each code and checks at the
    end that no code went unmarked.
    """
    if p < 2 or k < 1:
        raise ValueError(f"need p >= 2 and k >= 1, got p={p}, k={k}")
    # p**k >= 2**k > len(s) here: the length decides before p**k is built
    if k >= len(s).bit_length():
        return False
    n = p**k
    if len(s) != n or any(d >= p for d in s.digits):
        return False
    # window i read as a base-p number, first digit most significant, rolled
    # along the cyclic sequence: w -> (w*p + next digit) mod p**k
    seen = bytearray(n)
    w = 0
    for d in s.digits[: k - 1]:
        w = w * p + d
    for d in s.digits[k - 1 :] + s.digits[: k - 1]:
        w = (w * p + d) % n
        seen[w] = 1
    return 0 not in seen
