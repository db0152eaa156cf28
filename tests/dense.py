"""Dense exact adjacency matrices: the test oracle of the walk-count check.

spectral.uniform_power_violation computes the rows of A**k one at a time and
never builds a whole matrix. These plain n x n helpers are what it used to
multiply; the tests keep them to check the row-by-row scan against whole
powers, and check them in turn against a naive product and against numpy.
They charge the same size budget the library's builders do.

The permutation and degree helpers at the end were library methods that only
tests called; they are kept here unchanged, as functions.
"""

from collatzgraphs import Digraph, Permutation
from collatzgraphs.graphs import _count
from collatzgraphs.limits import check_size

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


def in_degrees(g: Digraph) -> list[int]:
    return _count(g.targets, g.n)


def identity(size: int) -> Permutation:
    return Permutation(tuple(range(size)))


def from_cycles(size: int, cycles) -> Permutation:
    images = list(range(size))
    touched = set()
    for cyc in cycles:
        for v in cyc:
            if not 0 <= v < size:
                raise ValueError(f"cycle element {v} outside 0..{size - 1}")
            if v in touched:
                raise ValueError(f"cycles are not disjoint at {v}")
            touched.add(v)
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))
