"""Differential checks against independent implementations in sympy, networkx
and numpy. These packages are test-only oracles: each test skips when its
package is missing, and the library never imports them.

They are imported once here, not inside the tests: a cold import of sympy or
numpy takes 0.1-0.5 s, which would count against hypothesis's deadline for
the first example of a test run on its own."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Permutation,
    check_isomorphism,
    collatz_map,
    conjugacy_permutation,
    debruijn_graph,
    mobius,
    modular_graph,
    original_collatz_map,
)

from conftest import branch_maps
from dense import adjacency_matrix, matrix_power

try:
    import numpy as np
except ImportError:
    np = None
try:
    import sympy
    import sympy.combinatorics
except ImportError:
    sympy = None
try:
    import networkx as nx
except ImportError:
    nx = None


def needs(module, name):
    return pytest.mark.skipif(module is None, reason=f"{name} is not installed")


@needs(sympy, "sympy")
def test_mobius_matches_sympy():
    assert [mobius(n) for n in range(1, 2001)] == [int(sympy.mobius(n)) for n in range(1, 2001)]


@needs(sympy, "sympy")
@settings(max_examples=100)
@given(st.permutations(range(12)))
def test_permutation_cycles_and_order_match_sympy(images):
    ours = Permutation(tuple(images))
    theirs = sympy.combinatorics.Permutation(list(images))
    assert ours.cycles() == [tuple(c) for c in theirs.cyclic_form]
    assert ours.order() == theirs.order()


def _multigraph(g):
    h = nx.MultiDiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((s, t) for s, t, _ in g.edges)
    return h


def _relabeled_equals(g, h, phi):
    """networkx's answer to check_isomorphism: relabel g's multigraph by phi
    and compare its edges, with multiplicity, to h's."""
    mapped = nx.relabel_nodes(_multigraph(g), dict(enumerate(phi.images)))
    return Counter(mapped.edges()) == Counter(_multigraph(h).edges())


@needs(nx, "networkx")
@pytest.mark.parametrize("f", [collatz_map(), original_collatz_map()], ids=["collatz", "original"])
@pytest.mark.parametrize("k", range(1, 7))
def test_check_isomorphism_matches_networkx(f, k):
    g = modular_graph(f, f.p**k)
    h = debruijn_graph(f.p, k)
    phi = conjugacy_permutation(f, k)
    assert check_isomorphism(g, h, phi) is True
    assert _relabeled_equals(g, h, phi)
    # a shuffled bijection: both must give the same verdict
    rng = random.Random(k)
    images = list(phi.images)
    rng.shuffle(images)
    wrong = Permutation(tuple(images))
    assert check_isomorphism(g, h, wrong) == _relabeled_equals(g, h, wrong)


@needs(nx, "networkx")
@settings(max_examples=30)
@given(branch_maps(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_random_bijections_match_networkx(f, k, rng):
    g = modular_graph(f, f.p**k)
    h = debruijn_graph(f.p, k)
    images = list(range(f.p**k))
    rng.shuffle(images)
    for phi in (conjugacy_permutation(f, k), Permutation(tuple(images))):
        assert check_isomorphism(g, h, phi) == _relabeled_equals(g, h, phi)


@needs(np, "numpy")
@settings(max_examples=60)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.integers(0, 12),
)
def test_matrix_power_matches_numpy(m, e):
    # object dtype keeps numpy's products exact Python ints
    expected = np.linalg.matrix_power(np.array(m, dtype=object), e)
    assert matrix_power(m, e) == [[int(v) for v in row] for row in expected]


@needs(np, "numpy")
@pytest.mark.parametrize("k", range(1, 5))
def test_adjacency_powers_match_numpy(k):
    adj = adjacency_matrix(modular_graph(collatz_map(), 2**k))
    for e in range(k + 3):
        expected = np.linalg.matrix_power(np.array(adj, dtype=object), e)
        assert matrix_power(adj, e) == [[int(v) for v in row] for row in expected]
