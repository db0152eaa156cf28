"""Labeled digraphs, permutations, and the graph constructions."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from collatzgraphs import (
    Digraph,
    Permutation,
    ResourceLimitError,
    check_isomorphism,
    collatz_map,
    conjugacy_permutation,
    debruijn_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    line_graph,
    map_from_json,
    modular_graph,
    restricted_graph,
    size_limit,
    transpose,
)

from conftest import branch_maps
from dense import from_cycles, identity, in_degrees


def brute_debruijn_edges(p, k):
    """Edge set straight from the word-overlap definition."""
    def word(n):
        return tuple(n // p**i % p for i in range(k))

    def value(w):
        return sum(d * p**i for i, d in enumerate(w))

    edges = set()
    for n in range(p**k):
        a = word(n)
        for x in range(p):
            b = a[1:] + (x,)
            edges.add((n, value(b), value(a + (x,))))
    return edges


def test_digraph_validates_vertex_range():
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 2, None)}))
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(-1, 0, None)}))


def test_digraph_validates_distinct_labels():
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 1, 3), (1, 0, 3)}))


def test_modular_graph_mod_3():
    g = modular_graph(collatz_map(), 3)
    assert g.n == 3
    assert g.edges == frozenset(
        {(0, 0, 0), (1, 2, 1), (2, 1, 2), (0, 2, 3), (1, 2, 4), (2, 2, 5)}
    )
    assert g.simple_edges() == frozenset({(0, 0), (0, 2), (1, 2), (2, 1), (2, 2)})


def test_modular_graph_mod_1():
    g = modular_graph(collatz_map(), 1)
    assert g.edges == frozenset({(0, 0, 0), (0, 0, 1)})


def test_modular_graph_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        modular_graph(collatz_map(), 0)


def test_debruijn_graph_against_definition():
    for p, k in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        g = debruijn_graph(p, k)
        assert g.n == p**k
        assert g.edges == frozenset(brute_debruijn_edges(p, k))


def test_debruijn_vertex_5_successors():
    g = debruijn_graph(2, 3)
    assert {t for s, t, _ in g.edges if s == 5} == {2, 6}


def test_debruijn_rejects_bad_parameters():
    with pytest.raises(ValueError):
        debruijn_graph(1, 3)
    with pytest.raises(ValueError):
        debruijn_graph(2, 0)


def test_degrees_are_uniform():
    g = modular_graph(collatz_map(), 8)
    assert g.out_degrees() == [2] * 8
    assert in_degrees(g) == [2] * 8


def test_line_graph_needs_dense_labels():
    with pytest.raises(ValueError):
        line_graph(Digraph(2, frozenset({(0, 1, None), (1, 0, 0)})))
    with pytest.raises(ValueError):
        line_graph(Digraph(2, frozenset({(0, 1, 1), (1, 0, 2)})))


def test_line_graph_of_modular_graph_is_next_modulus():
    t = collatz_map()
    small = modular_graph(t, 4)
    big = modular_graph(t, 8)
    lg = line_graph(small)
    assert lg.n == big.n
    assert Counter((s, t_) for s, t_, _ in lg.edges) == big.edge_multiset()


def test_transpose_involution_and_degrees():
    g = modular_graph(collatz_map(), 5)
    tg = transpose(g)
    assert transpose(tg) == g
    assert in_degrees(tg) == g.out_degrees()


def test_check_isomorphism_true_and_false():
    t = collatz_map()
    g = modular_graph(t, 8)
    b = debruijn_graph(2, 3)
    phi = conjugacy_permutation(t, 3)
    assert check_isomorphism(g, b, phi)
    assert not check_isomorphism(g, b, identity(8))


def test_check_isomorphism_size_mismatch():
    g = modular_graph(collatz_map(), 4)
    b = debruijn_graph(2, 3)
    with pytest.raises(ValueError):
        check_isomorphism(g, b, identity(4))


def test_restricted_graph_drops_escaping_edges():
    g = restricted_graph(collatz_map(), 8)
    # 3 -> 5 stays, 5 -> 8 escapes
    assert (3, 5) in g.simple_edges()
    assert all(t < 8 for _, t in g.simple_edges())
    assert g.simple_edges() <= modular_graph(collatz_map(), 8).simple_edges()


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    with pytest.raises(ValueError):
        Permutation((0, 2))


def test_permutation_cycles_and_order():
    phi = Permutation((0, 5, 10, 3, 4, 1, 6, 7, 8, 13, 2, 11, 12, 9, 14, 15))
    assert phi.cycles() == [(1, 5), (2, 10), (9, 13)]
    assert phi.order() == 2
    assert identity(4).cycles() == []
    assert identity(4).order() == 1


def test_permutation_from_cycles():
    phi = from_cycles(8, [(1, 4, 7), (3, 6)])
    assert phi.cycles() == [(1, 4, 7), (3, 6)]
    assert phi.order() == 6
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        from_cycles(4, [(0, 9)])


def test_permutation_compose_applies_right_first():
    f = Permutation((1, 0, 2))
    g = Permutation((0, 2, 1))
    assert f.compose(g).images == tuple(f(g(i)) for i in range(3))


@given(st.permutations(list(range(8))))
def test_permutation_inverse(images):
    phi = Permutation(tuple(images))
    assert phi.compose(phi.inverse()) == identity(8)
    assert phi.inverse().compose(phi) == identity(8)


@given(st.permutations(list(range(9))))
def test_permutation_cycles_rebuild(images):
    phi = Permutation(tuple(images))
    assert from_cycles(9, phi.cycles()) == phi


@settings(max_examples=40)
@given(branch_maps(), st.integers(1, 12))
def test_modular_graph_shape(f, m):
    g = modular_graph(f, m)
    assert g.n == m
    assert len(g.edges) == f.p * m
    assert sorted(label for _, _, label in g.edges) == list(range(f.p * m))


def test_graph_json_round_trip():
    g = modular_graph(collatz_map(), 6)
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_validation():
    with pytest.raises(ValueError):
        graph_from_json("[]")
    with pytest.raises(ValueError):
        graph_from_json('{"m": 2, "edges": [[0, 1, 0], [0, 1, 0]]}')


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (graph_from_json, '{"m": true, "edges": [[0, 0, null]]}',
         "graph JSON: m must be an integer and edges a list"),
        (graph_from_json, '{"m": 2, "edges": [[true, 1, null]]}',
         "graph JSON: edge [True, 1, None] has non-integer endpoints"),
        (graph_from_json, '{"m": 2, "edges": [[0, 1, false]]}',
         "graph JSON: edge [0, 1, False] has a non-integer label"),
        (map_from_json, '{"p": true, "branches": [[1, 0], [3, 1]]}',
         "map JSON: p must be an integer and branches a list"),
        (map_from_json, '{"p": 2, "branches": [[true, false], [3, 1]]}',
         "map JSON: branch [True, False] is not a pair of integers"),
    ],
    ids=["m", "endpoint", "label", "p", "coefficient"],
)
def test_wire_forms_refuse_json_booleans(parse, text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_graph_to_dot_golden():
    g = modular_graph(collatz_map(), 2)
    assert graph_to_dot(g) == (
        "digraph {\n"
        "  0;\n"
        "  1;\n"
        '  0 -> 0 [label="0"];\n'
        '  0 -> 1 [label="2"];\n'
        '  1 -> 0 [label="1"];\n'
        '  1 -> 1 [label="3"];\n'
        "}\n"
    )


def test_vertex_limit_env_override(monkeypatch):
    # one budget for every builder; modular_graph counts its p*m edges
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "8")
    assert size_limit() == 8
    assert len(modular_graph(collatz_map(), 4).edges) == 8
    with pytest.raises(ResourceLimitError, match="COLLATZGRAPHS_SIZE_LIMIT"):
        modular_graph(collatz_map(), 5)
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "not a number")
    with pytest.raises(ValueError):
        size_limit()
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT")
    assert size_limit() == 2**22
