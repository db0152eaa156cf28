"""Exact adjacency-matrix checks: long walks in modular map graphs equalize.

For an admissible branch map mod p**k, the number of length-l walks between
any two vertices is exactly p**(l-k) once l >= k (and the count cannot be
uniform at l = k-1). All arithmetic is exact integers; matrices are plain
lists of rows, whose n*n entries count against the size budget of limits.py.
"""

from .graphs import Digraph, modular_graph
from .limits import check_size
from .maps import BranchMap

Matrix = list[list[int]]


def adjacency_matrix(g: Digraph) -> Matrix:
    """0/1 matrix of the distinct (source, target) edges of g."""
    check_size("adjacency matrix entries", g.n * g.n)
    m = [[0] * g.n for _ in range(g.n)]
    for s, t in g.simple_edges():
        m[s][t] = 1
    return m


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    # Support lists keep the cost at nnz(a) * nnz(b per row), which is what
    # makes iterated products against a sparse adjacency matrix affordable.
    n = len(a)
    support = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(n):
            v = row[t]
            if v:
                for j, w in support[t]:
                    acc[j] += v * w
    return out


def matrix_power(m: Matrix, e: int) -> Matrix:
    """Exact integer matrix power by repeated squaring; m**0 is the identity."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    check_size("matrix entries", n * n)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(row) for row in m]
    while e:
        if e & 1:
            result = _matmul(result, base)
        e >>= 1
        if e:
            base = _matmul(base, base)
    return result


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
    check_size("matrix entries", 1, f.p, 2 * k)
    dim = f.p**k
    adj = adjacency_matrix(modular_graph(f, dim))

    def scan(mat: Matrix, l: int) -> tuple[int, int, int, int] | None:
        expected = f.p ** (l - k)
        for i in range(dim):
            row = mat[i]
            for j in range(dim):
                if row[j] != expected:
                    return (l, i, j, row[j])
        return None

    power = adj
    if k == 1:
        bad = scan(power, 1)
        if bad:
            return bad
    for l in range(2, l_max + 1):
        power = _matmul(power, adj)
        if l >= k:
            bad = scan(power, l)
            if bad:
                return bad
    return None


def check_uniform_power(f: BranchMap, k: int, l_max: int) -> bool:
    """True when every power l in [k, l_max] of the adjacency matrix is the
    constant matrix p**(l-k)."""
    return uniform_power_violation(f, k, l_max) is None
