"""The one size budget: a cap on how many items any builder may store.

Every object in this package lives on the p**k residues of a p-ary De Bruijn
graph, so every size grows exponentially in k. Each builder counts what it
stores (vertices, edges, permutation or matrix entries, orbit states, digits)
and checks that count against size_limit() before it builds anything; stored
big integers count as their 64-bit machine words. The
default, 2**22 items, keeps the largest graph it admits (2**22 edges, about
420 bytes each while built and exported) under 2 GiB; set
COLLATZGRAPHS_SIZE_LIMIT to change it.
"""

import os

DEFAULT_SIZE_LIMIT = 1 << 22
SIZE_LIMIT_ENV = "COLLATZGRAPHS_SIZE_LIMIT"


class ResourceLimitError(RuntimeError):
    """Requested object exceeds the configured size budget."""


def size_limit() -> int:
    """The budget in items: COLLATZGRAPHS_SIZE_LIMIT, or 2**22 when unset."""
    raw = os.environ.get(SIZE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SIZE_LIMIT_ENV} must be an integer, got {raw!r}") from None


def check_size(what: str, factor: int, base: int = 1, exponent: int = 0) -> None:
    """Raise ResourceLimitError when factor * base**exponent items of `what`
    exceed the budget.

    With base >= 2 and factor >= 1 the count is over the limit as soon as
    exponent exceeds the bit length of limit // factor, so a huge exponent is
    refused before the power is built. The message never formats the count.
    """
    limit = size_limit()
    if base < 2 or factor < 1:
        over = factor * base**exponent > limit
    else:
        cap = limit // factor
        over = exponent > cap.bit_length() or base**exponent > cap
    if over:
        raise ResourceLimitError(
            f"{what} would exceed the size budget of {limit} items"
            f" (set {SIZE_LIMIT_ENV} to raise it)"
        )
