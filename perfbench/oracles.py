"""Plain-definition answers that the benchmark checks the library against.

Nothing here imports collatzgraphs. Each check recomputes its answer from the
definition: iterate a map and take residues, step a cycle until it closes,
slide a window along a sequence. A bug shared with the library therefore
cannot hide behind a matching answer.

A map is a pair (p, branches) with branches[i] = (a_i, b_i): n in the class
i mod p goes to (a_i * n + b_i) / p. Rationals x = n / q (q coprime to p) are
iterated through the scaled integer n under n -> (a_i * n + b_i * q) / p,
since f(n / q) = that value / q.

Every check returns None when the answer is right and raises Mismatch when it
is not.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

COLLATZ = (2, ((1, 0), (3, 1)))
ORIGINAL = (3, ((2, 0), (4, -1), (4, 1)))


def an_plus_b(a: int, b: int) -> tuple:
    return (2, ((1, 0), (a, b)))


class Mismatch(Exception):
    """The library's answer differs from the plain definition."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def unit_inverse(q: int, p: int) -> int:
    """The c in 0..p-1 with q * c = 1 (mod p), by search."""
    for c in range(p):
        if q * c % p == 1 % p:
            return c
    raise ValueError(f"{q} is not a unit mod {p}")


def scaled_step(fmap: tuple, n: int, q: int, q_inv: int) -> tuple[int, int]:
    """(residue of n/q mod p, numerator of f(n/q) over the same q)."""
    p, branches = fmap
    i = n * q_inv % p
    a, b = branches[i]
    top = a * n + b * q
    if top % p:
        raise Mismatch(f"branch {i} does not divide {top} by {p}")
    return i, top // p


def step(fmap: tuple, x: Fraction) -> Fraction:
    q = x.denominator
    _, top = scaled_step(fmap, x.numerator, q, unit_inverse(q, fmap[0]))
    return Fraction(top, q)


def residues(fmap: tuple, n: int, k: int) -> list[int]:
    """Residues mod p of the first k iterates of the integer n."""
    out = []
    for _ in range(k):
        i, n = scaled_step(fmap, n, 1, 1)
        out.append(i)
    return out


def from_digits(digits, p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def digit_map(fmap: tuple, k: int) -> list[int]:
    """images[n] = sum of (i-th iterate of n mod p) * p**i, for n < p**k."""
    p = fmap[0]
    return [from_digits(residues(fmap, n, k), p) for n in range(p**k)]


def conjugacy_holds(fmap: tuple, k: int, images: list[int]) -> bool:
    """Do the images carry the mod-p**k graph of f onto the De Bruijn graph?

    Modular graph: one edge (r mod m, f(r) mod m) per residue r mod p*m.
    De Bruijn graph: n -> n // p + x * p**(k-1) for each digit x.
    """
    p = fmap[0]
    m = p**k
    mapped = Counter()
    for r in range(p * m):
        _, t = scaled_step(fmap, r, 1, 1)
        mapped[images[r % m], images[t % m]] += 1
    debruijn = Counter((n, n // p + x * p ** (k - 1)) for n in range(m) for x in range(p))
    return mapped == debruijn


def uniform_walks(fmap: tuple, k: int, l_max: int) -> bool:
    """Is the number of l-step walks between any two residues mod p**k exactly
    p**(l-k) for every k <= l <= l_max? Counted from each start by stepping
    walk-count vectors along the distinct edges."""
    p = fmap[0]
    m = p**k
    succ = [
        sorted({scaled_step(fmap, v + j * m, 1, 1)[1] % m for j in range(p)}) for v in range(m)
    ]
    for start in range(m):
        counts = [0] * m
        counts[start] = 1
        for length in range(1, l_max + 1):
            nxt = [0] * m
            for v, c in enumerate(counts):
                if c:
                    for t in succ[v]:
                        nxt[t] += c
            counts = nxt
            if length >= k and any(c != p ** (length - k) for c in counts):
                return False
    return True


def check_permutation(fmap: tuple, k: int, images, cycles=None, order=None) -> None:
    """images must be the digit map; cycles and order, when given, must be its
    nontrivial cycles (least element first, ascending) and its order."""
    want = digit_map(fmap, k)
    expect(list(images) == want, f"digit map at k={k} differs from iterate-and-take-residue")
    if cycles is None and order is None:
        return
    seen = set()
    found = []
    for start in range(len(want)):
        if start in seen or want[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        cur = want[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = want[cur]
        found.append(tuple(cyc))
    if cycles is not None:
        expect([tuple(c) for c in cycles] == found, f"cycles of the k={k} digit map differ")
    if order is not None:
        want_order = 1
        for c in found:
            a, b = want_order, len(c)
            while b:
                a, b = b, a % b
            want_order = want_order * len(c) // a
        expect(order == want_order, f"order {order} != {want_order}")


class Orbit:
    """The orbit of x = n / q up to its first repeated state, by plain stepping.

    states[i] and digits[i] are the scaled numerator and residue of the i-th
    iterate; states[mu] is where the cycle starts and lam its length.
    """

    def __init__(self, fmap: tuple, x: Fraction, max_steps: int):
        p = fmap[0]
        self.fmap = fmap
        self.start = x
        self.q = x.denominator
        q_inv = unit_inverse(self.q, p)
        n = x.numerator
        seen: dict[int, int] = {}
        self.states: list[int] = []
        self.digits: list[int] = []
        self.mu = self.lam = None
        for i in range(max_steps + 1):
            if n in seen:
                self.mu = seen[n]
                self.lam = i - self.mu
                return
            if i == max_steps:
                return
            seen[n] = i
            self.states.append(n)
            d, n = scaled_step(fmap, n, self.q, q_inv)
            self.digits.append(d)

    @property
    def determined(self) -> bool:
        return self.mu is not None


def check_classified(orbit: Orbit, got) -> None:
    """got is None, or (elements, word digits, b, integer cycle, preperiod) as
    classify_orbit reports them: the cycle anchored at its least element."""
    x = orbit.start
    if not orbit.determined:
        expect(got is None, f"{x}: no state repeats within the step budget, got a cycle")
        return
    expect(got is not None, f"{x}: the orbit repeats after {orbit.mu + orbit.lam} steps")
    elements, word, b, integer_cycle, preperiod = got
    loop = orbit.states[orbit.mu :]
    shift = loop.index(min(loop))
    want = [Fraction(n, orbit.q) for n in loop[shift:] + loop[:shift]]
    expect(list(elements) == want, f"{x}: cycle {elements} != {want}")
    expect(preperiod == orbit.mu + shift, f"{x}: preperiod {preperiod} != {orbit.mu + shift}")
    check_cycle(orbit.fmap, elements, word, b, integer_cycle)


def check_cycle(fmap: tuple, elements, word, b: int, integer_cycle) -> None:
    """The elements close up under f in len(word) steps, their residues spell
    word, they share the denominator b, and integer_cycle is b * elements."""
    p = fmap[0]
    k = len(elements)
    expect(k == len(word) and k >= 1, "cycle and word lengths differ")
    for i, x in enumerate(elements):
        expect(x.denominator == b, f"element {x} does not have denominator {b}")
        expect(x.numerator * unit_inverse(x.denominator, p) % p == word[i], f"{x} is off word")
        expect(step(fmap, x) == elements[(i + 1) % k], f"{x} does not step to the next element")
    expect(list(integer_cycle) == [x.numerator for x in elements], "integer cycle is not b * x")


def check_scaled_collatz(b: int, integer_cycle) -> None:
    """integer_cycle must be a cycle of the integer 3n+b map."""
    scaled = an_plus_b(3, b)
    k = len(integer_cycle)
    for i, n in enumerate(integer_cycle):
        _, nxt = scaled_step(scaled, n, 1, 1)
        expect(nxt == integer_cycle[(i + 1) % k], f"{integer_cycle} is not a 3n+{b} cycle")


def periodic_value(pre, per, p: int) -> Fraction:
    """The p-adic value of the digit stream pre, per, per, ..."""
    head = from_digits(pre, p)
    return head + Fraction(p ** len(pre) * from_digits(per, p), 1 - p ** len(per))


def check_phi(orbit: Orbit, got) -> None:
    """got is None, or (preperiod digits, period digits, value, steps used) as
    phi_exact reports them."""
    x = orbit.start
    if not orbit.determined:
        expect(got is None, f"phi({x}): no state repeats within the step budget, got a value")
        return
    expect(got is not None, f"phi({x}): the orbit repeats after {orbit.mu + orbit.lam} steps")
    pre, per, value, steps = got
    mu, lam = orbit.mu, orbit.lam
    expect(steps == mu + lam, f"phi({x}): steps {steps} != {mu + lam}")
    expect(len(per) >= 1 and lam % len(per) == 0, f"phi({x}): period {per} does not divide {lam}")
    n = max(len(pre), mu) + lam
    stream = list(pre) + list(per) * (n // len(per) + 1)
    want = orbit.digits + orbit.digits[mu:] * (n // lam + 1)
    expect(stream[:n] == want[:n], f"phi({x}): digit stream differs from the orbit residues")
    want_value = periodic_value(orbit.digits[:mu], orbit.digits[mu:], orbit.fmap[0])
    expect(value == want_value, f"phi({x}) = {value}, not {want_value}")


def is_lyndon(word: tuple) -> bool:
    return bool(word) and all(word < word[i:] + word[:i] for i in range(1, len(word)))


def census(max_len: int) -> dict[int, list[tuple]]:
    """b -> binary Lyndon words of length <= max_len whose 3n+1 cycle has
    denominator b, in (length, lex) order, from every binary word."""
    out: dict[int, list[tuple]] = {}
    for k in range(1, max_len + 1):
        for word in product((0, 1), repeat=k):
            if not is_lyndon(word):
                continue
            num, mult = 0, 1
            for i, d in enumerate(word):
                a, b = COLLATZ[1][d]
                num, mult = a * num + b * 2**i, a * mult
            out.setdefault(Fraction(num, 2**k - mult).denominator, []).append(word)
    return out


def check_census(b: int, max_len: int, cycles, table: dict) -> None:
    """cycles: (word, elements, b, integer cycle) per cycle, in library order;
    table: census(max_len)."""
    words = [tuple(c[0]) for c in cycles]
    expect(words == table.get(b, []), f"b={b} max_len={max_len}: words {words} differ")
    for word, elements, cb, integer_cycle in cycles:
        expect(cb == b, f"cycle {word} has denominator {cb}, not {b}")
        check_cycle(COLLATZ, elements, word, b, integer_cycle)
        check_scaled_collatz(b, integer_cycle)


def mobius(n: int) -> int:
    primes, d = 0, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            primes += 1
        d += 1
    return -1 if (primes + (n > 1)) % 2 else 1


def necklaces(p: int, k: int) -> int:
    return sum(mobius(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def check_lyndon_list(p: int, k: int, words: list[tuple]) -> None:
    """Strictly increasing, every word Lyndon of length k, as many as the
    necklace formula counts: together that is exactly the Lyndon set."""
    expect(len(words) == necklaces(p, k), f"{len(words)} Lyndon words, want {necklaces(p, k)}")
    expect(all(a < b for a, b in zip(words, words[1:])), "Lyndon words are not increasing")
    expect(all(len(w) == k and max(w) < p and is_lyndon(w) for w in words), "non-Lyndon word")


def check_debruijn(p: int, k: int, digits, verdict: bool) -> None:
    """Every length-k window, read cyclically, occurs exactly once."""
    n = p**k
    ok = len(digits) == n and all(0 <= d < p for d in digits)
    if ok:
        doubled = list(digits) + list(digits[: k - 1])
        window = from_digits(doubled[:k], p)
        seen = {window}
        top = p ** (k - 1)
        for i in range(k, n + k - 1):
            window = window // p + doubled[i] * top
            seen.add(window)
        ok = len(seen) == n
    expect(ok, f"sequence is not De Bruijn for p={p}, k={k}")
    expect(verdict is True, f"is_debruijn_sequence said {verdict} for p={p}, k={k}")


def debruijn_edges(p: int, k: int) -> list[tuple[int, int, int]]:
    m = p**k
    return sorted((n, n // p + x * p ** (k - 1), n + x * m) for n in range(m) for x in range(p))


def line_of_modular_edges(fmap: tuple, m: int) -> list[tuple[int, int]]:
    """Line graph of the modular graph mod m: label r -> label r' whenever
    f(r) = r' (mod m)."""
    p = fmap[0]
    out = []
    for r in range(p * m):
        t = scaled_step(fmap, r, 1, 1)[1] % m
        out.extend((r, t + j * m) for j in range(p))
    return sorted(out)


# Facts pinned by hand; each workload checks the ones its layers can reach.
PINNED_CYCLES_K4 = [(1, 5), (2, 10), (9, 13)]
PINNED_PHI_5 = ("100(01)", Fraction(-13, 3))
PINNED_B1_COUNT = 5
