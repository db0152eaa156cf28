"""Exact walk-count checks: long walks in modular map graphs equalize.

For an admissible branch map mod p**k, the number of length-l walks between
any two vertices is exactly p**(l-k) once l >= k (and the count cannot be
uniform at l = k-1). All arithmetic is exact integers. The check computes the
rows of A**k one at a time by pushing walk counts along successor lists, so
it holds O(n) counts at once and never builds a whole matrix; it still
charges the n*n entries of A**k against the size budget of limits.py.
"""

from .graphs import Digraph, modular_graph
from .limits import check_size
from .maps import BranchMap


def _walk_count_violation(
    g: Digraph, p: int, k: int, l_max: int
) -> tuple[int, int, int, int] | None:
    """First (l, i, j, entry), in dense-scan order (by l, then row i, then
    column j), where the number of l-step walks from i to j along the
    distinct edges of g is not p**(l-k), for k <= l <= l_max; None when
    there is none.

    Each row of A**k is pushed out from its start vertex along the successor
    lists. Past l = k no rows are needed: when A**k is all ones, A**(k+1) =
    J*A has every row equal to the in-degree vector, so a violation, if any,
    is (k+1, 0, j, indeg(j)) at the first j with in-degree != p; when every
    in-degree is p, A**(k+m) = p**m * J for all m. Needs 0 <= k <= l_max.
    """
    n = g.n
    check_size("matrix entries", n * n)
    successors = [set() for _ in range(n)]
    for s, t in zip(g.sources, g.targets):
        successors[s].add(t)
    succ = [list(ts) for ts in successors]
    for i in range(n):
        row = {i: 1}
        for _ in range(k):
            nxt: dict[int, int] = {}
            get = nxt.get
            for u, c in row.items():
                for w in succ[u]:
                    nxt[w] = get(w, 0) + c
            row = nxt
        if len(row) != n or any(c != 1 for c in row.values()):
            j = next(j for j in range(n) if row.get(j, 0) != 1)
            return (k, i, j, row.get(j, 0))
    if l_max > k:
        in_degrees = [0] * n
        for ts in succ:
            for t in ts:
                in_degrees[t] += 1
        for j, d in enumerate(in_degrees):
            if d != p:
                return (k + 1, 0, j, d)
    return None


def uniform_power_violation(
    f: BranchMap, k: int, l_max: int
) -> tuple[int, int, int, int] | None:
    """First (l, i, j, entry) where the l-step walk counts of the mod-p**k
    graph of f deviate from the uniform value p**(l-k), scanning k <= l <=
    l_max; None when every checked power is uniform."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if l_max < k:
        raise ValueError(f"l_max must be at least k={k}, got {l_max}")
    # the entries of A**k, refused on the exponent before p**k is built
    check_size("matrix entries", 1, f.p, 2 * k)
    return _walk_count_violation(modular_graph(f, f.p**k), f.p, k, l_max)


def check_uniform_power(f: BranchMap, k: int, l_max: int) -> bool:
    """True when every power l in [k, l_max] of the adjacency matrix is the
    constant matrix p**(l-k)."""
    return uniform_power_violation(f, k, l_max) is None
