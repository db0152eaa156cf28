"""Uniform walk-count checks, and the dense matrix oracle they are checked against."""

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    ResourceLimitError,
    check_uniform_power,
    collatz_map,
    modular_graph,
    original_collatz_map,
    size_limit,
    uniform_power_violation,
)

from conftest import branch_maps
from dense import adjacency_matrix, matrix_power


def naive_matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def test_adjacency_of_small_modular_graph():
    m = adjacency_matrix(modular_graph(collatz_map(), 2))
    assert m == [[1, 1], [1, 1]]


def test_adjacency_counts_simple_edges_once():
    # modulus 1 has two parallel loops but a single simple edge
    m = adjacency_matrix(modular_graph(collatz_map(), 1))
    assert m == [[1]]


def test_matrix_power_zero_is_identity():
    m = [[0, 1], [1, 1]]
    assert matrix_power(m, 0) == [[1, 0], [0, 1]]


def test_matrix_power_against_naive():
    m = adjacency_matrix(modular_graph(collatz_map(), 8))
    expected = m
    for e in range(2, 6):
        expected = naive_matmul(expected, m)
        assert matrix_power(m, e) == expected


def test_matrix_power_validation():
    with pytest.raises(ValueError):
        matrix_power([[1, 2]], 2)
    with pytest.raises(ValueError):
        matrix_power([[1]], -1)


def test_walk_counts_are_uniform():
    assert check_uniform_power(collatz_map(), 3, 6)
    assert check_uniform_power(original_collatz_map(), 2, 5)
    assert uniform_power_violation(collatz_map(), 2, 5) is None


def test_uniform_power_entry_values():
    # l-step walk counts between any two residues mod p^k equal p^(l-k)
    t = collatz_map()
    a = adjacency_matrix(modular_graph(t, 8))
    for l in range(3, 7):
        power = matrix_power(a, l)
        assert all(entry == 2 ** (l - 3) for row in power for entry in row)


@settings(max_examples=20, deadline=None)
@given(branch_maps(), st.integers(1, 3))
def test_uniformity_holds_for_admissible_maps(f, k):
    assert check_uniform_power(f, k, k + 2)


def test_uniform_power_validation():
    with pytest.raises(ValueError):
        uniform_power_violation(collatz_map(), 0, 3)
    with pytest.raises(ValueError):
        uniform_power_violation(collatz_map(), 3, 2)


def test_matrix_limit_env_override(monkeypatch):
    # one budget for every builder; a dense n x n matrix counts n*n entries
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "64")
    assert size_limit() == 64
    with pytest.raises(ResourceLimitError, match="COLLATZGRAPHS_SIZE_LIMIT"):
        uniform_power_violation(collatz_map(), 4, 5)
    assert check_uniform_power(collatz_map(), 3, 4)
