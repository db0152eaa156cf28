"""The array-backed graphs and the sparse walk-count check against the code
they replaced.

Graphs used to be a frozenset of (source, target, label) triples, built one
validated tuple at a time, and check_isomorphism compared two Counters of
(source, target) pairs. uniform_power_violation multiplied dense n x n
matrices and scanned each power from l = k up. Those plain definitions are
the oracles below: every builder, derived view, export and verdict must agree
with them exactly, and _walk_count_violation must return the dense scan's
first violation tuple for tuple, on graphs that are not De Bruijn too.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Digraph,
    Permutation,
    check_isomorphism,
    collatz_map,
    conjugacy_permutation,
    debruijn_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    line_graph,
    modular_graph,
    restricted_graph,
    transpose,
    uniform_power_violation,
)
from collatzgraphs.spectral import _walk_count_violation

from conftest import branch_maps
from dense import adjacency_matrix, identity, in_degrees, matrix_power

# ------------------------------------------------------------ frozenset oracles


def oracle_modular(f, m):
    return frozenset((r % m, f.apply(r) % m, r) for r in range(f.p * m))


def oracle_debruijn(p, k):
    m, step = p**k, p ** (k - 1)
    return frozenset(
        (n, (n - n % p) // p + x * step, n + x * m) for n in range(m) for x in range(p)
    )


def oracle_line(edges):
    outgoing = {}
    for s, _, label in edges:
        outgoing.setdefault(s, []).append(label)
    return frozenset(
        (label, succ, None) for _, t, label in edges for succ in outgoing.get(t, ())
    )


def oracle_transpose(edges):
    return frozenset((t, s, label) for s, t, label in edges)


def oracle_restricted(f, bound):
    return frozenset(
        (v, f.apply(v), None) for v in range(bound) if 0 <= f.apply(v) < bound
    )


def oracle_degrees(edges, n, end):
    degs = [0] * n
    for edge in edges:
        degs[edge[end]] += 1
    return degs


def _edge_sort_key(edge):
    s, t, label = edge
    return (s, t, label is not None, 0 if label is None else label)


def oracle_json(n, edges):
    return json.dumps(
        {"m": n, "edges": [[s, t, label] for s, t, label in sorted(edges, key=_edge_sort_key)]}
    )


def oracle_dot(n, edges):
    lines = ["digraph {"] + [f"  {v};" for v in range(n)]
    for s, t, label in sorted(edges, key=_edge_sort_key):
        lines.append(f"  {s} -> {t};" if label is None else f'  {s} -> {t} [label="{label}"];')
    return "\n".join(lines + ["}"]) + "\n"


def oracle_isomorphism(g_edges, h_edges, phi):
    mapped = Counter((phi(s), phi(t)) for s, t, _ in g_edges)
    return mapped == Counter((s, t) for s, t, _ in h_edges)


def dense_violation(g, p, k, l_max):
    """The scan uniform_power_violation used to make: each dense power from
    l = k up, rows then columns, against p**(l-k)."""
    adj = adjacency_matrix(g)
    for l in range(k, l_max + 1):
        for i, row in enumerate(matrix_power(adj, l)):
            for j, entry in enumerate(row):
                if entry != p ** (l - k):
                    return (l, i, j, entry)
    return None


def assert_matches(g, n, edges):
    """Every view of g equals the same view of the frozenset oracle."""
    assert g.n == n
    assert len(g.edges) == len(edges)
    assert g.edges == edges and edges == g.edges
    assert set(g.edges) == edges
    assert g.simple_edges() == frozenset((s, t) for s, t, _ in edges)
    assert g.edge_multiset() == Counter((s, t) for s, t, _ in edges)
    assert g.out_degrees() == oracle_degrees(edges, n, 0)
    assert in_degrees(g) == oracle_degrees(edges, n, 1)
    assert graph_to_json(g) == oracle_json(n, edges)
    assert graph_to_dot(g) == oracle_dot(n, edges)
    assert g == Digraph(n, edges)
    assert hash(g) == hash(Digraph(n, edges))
    assert graph_from_json(graph_to_json(g)) == g


# ------------------------------------------------------------------ builders


@settings(max_examples=60, deadline=None)
@given(branch_maps(), st.integers(1, 24))
def test_builders_match_frozenset_oracles(f, m):
    edges = oracle_modular(f, m)
    g = modular_graph(f, m)
    assert_matches(g, m, edges)
    assert_matches(line_graph(g), f.p * m, oracle_line(edges))
    assert_matches(transpose(g), m, oracle_transpose(edges))
    assert_matches(restricted_graph(f, m), m, oracle_restricted(f, m))


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 1), (3, 3), (4, 2), (5, 2)])
def test_debruijn_and_its_line_graph_match_oracles(p, k):
    edges = oracle_debruijn(p, k)
    g = debruijn_graph(p, k)
    assert_matches(g, p**k, edges)
    assert_matches(line_graph(g), p ** (k + 1), oracle_line(edges))
    assert_matches(transpose(g), p**k, oracle_transpose(edges))


def test_line_graph_of_a_graph_with_a_sink_matches_oracle():
    edges = frozenset({(0, 1, 0), (1, 2, 1), (0, 2, 2)})
    assert_matches(line_graph(Digraph(3, edges)), 3, oracle_line(edges))


def test_edge_view_membership_and_set_algebra():
    g = modular_graph(collatz_map(), 4)
    assert (2, 3, 6) in g.edges
    assert (2, 3, 5) not in g.edges
    assert (2, 3) not in g.edges
    assert g.edges <= frozenset(g.edges) | {(0, 0, None)}
    assert g.edges != frozenset()


def test_constructor_keeps_validating_and_deduplicating():
    assert len(Digraph(2, [(0, 1, None), (0, 1, None)]).edges) == 1
    with pytest.raises(ValueError, match="64 bits"):
        Digraph(2, [(0, 1, 2**64)])
    with pytest.raises(ValueError):
        Digraph(-1, [])
    assert Digraph(0, []).edges == frozenset()


def test_equality_is_structural():
    a = Digraph(3, [(0, 1, None), (1, 2, 5)])
    assert a == Digraph(3, [(1, 2, 5), (0, 1, None)])
    assert a != Digraph(3, [(0, 1, None), (1, 2, 4)])
    assert a != Digraph(4, [(0, 1, None), (1, 2, 5)])
    assert a != Digraph(3, [(0, 1, None)])
    assert transpose(transpose(a)) == a


# -------------------------------------------------------------- isomorphism


@settings(max_examples=60, deadline=None)
@given(branch_maps(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_check_isomorphism_matches_counter_oracle(f, k, rng):
    g = modular_graph(f, f.p**k)
    h = debruijn_graph(f.p, k)
    images = list(range(f.p**k))
    rng.shuffle(images)
    for phi in (conjugacy_permutation(f, k), Permutation(tuple(images))):
        want = oracle_isomorphism(oracle_modular(f, f.p**k), oracle_debruijn(f.p, k), phi)
        assert check_isomorphism(g, h, phi) is want
        assert check_isomorphism(transpose(g), transpose(h), phi) is want
    assert check_isomorphism(g, h, conjugacy_permutation(f, k)) is True


def test_check_isomorphism_counts_multiplicity():
    # same simple edges, different multiplicities
    g = Digraph(2, [(0, 1, 0), (0, 1, 1), (1, 0, 2)])
    h = Digraph(2, [(0, 1, 0), (1, 0, 1), (1, 0, 2)])
    for phi in (identity(2), Permutation((1, 0))):
        assert check_isomorphism(g, h, phi) is oracle_isomorphism(g.edges, h.edges, phi)


# ---------------------------------------------------------- walk counts


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    return Digraph(n, [(s, t, i) for i, (s, t) in enumerate(pairs)])


@settings(max_examples=200, deadline=None)
@given(small_digraphs(), st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_walk_count_violation_matches_dense_scan(g, p, k, extra):
    assert _walk_count_violation(g, p, k, k + extra) == dense_violation(g, p, k, k + extra)


@settings(max_examples=40, deadline=None)
@given(branch_maps(), st.integers(1, 30), st.integers(1, 3), st.integers(0, 3))
def test_walk_count_violation_on_restricted_graphs(f, bound, k, extra):
    g = restricted_graph(f, bound)
    assert _walk_count_violation(g, f.p, k, k + extra) == dense_violation(g, f.p, k, k + extra)


@pytest.mark.parametrize("q,k", [(2, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_walk_count_violation_in_degree_branch(q, k, p):
    # A**k is all ones on a De Bruijn graph; with p != q every later power
    # is off by the in-degree, first at (k+1, 0, 0, q)
    g = debruijn_graph(q, k)
    for l_max in (k, k + 1, k + 3):
        got = _walk_count_violation(g, p, k, l_max)
        assert got == dense_violation(g, p, k, l_max)
        assert got == (None if p == q or l_max == k else (k + 1, 0, 0, q))


def test_walk_count_violation_on_a_single_loop():
    g = Digraph(1, [(0, 0, None)])
    assert _walk_count_violation(g, 1, 0, 4) is None
    assert _walk_count_violation(g, 2, 2, 5) == (3, 0, 0, 1)


@settings(max_examples=30, deadline=None)
@given(branch_maps(), st.integers(1, 3), st.integers(0, 3))
def test_uniform_power_violation_matches_dense_scan(f, k, extra):
    g = modular_graph(f, f.p**k)
    assert uniform_power_violation(f, k, k + extra) == dense_violation(g, f.p, k, k + extra)

