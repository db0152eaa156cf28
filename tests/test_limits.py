"""The one size budget: what each builder counts, and where it stops."""

import re
import time
from fractions import Fraction

import pytest

from collatzgraphs import (
    Digraph,
    ResourceLimitError,
    Word,
    collatz_cycles,
    collatz_map,
    conjugacy_permutation,
    cycle_from_word,
    debruijn_graph,
    digit_reversal_permutation,
    fkm_sequence,
    graph_from_json,
    graph_to_json,
    line_graph,
    lyndon_words,
    modular_graph,
    necklace_count,
    original_collatz_map,
    periodic_expansion,
    restricted_graph,
    uniform_power_violation,
)
from collatzgraphs.limits import check_size

# vertex 2 is a sink, so the line graph has one edge (0 -> 1 -> 2), not three
SINK_GRAPH = Digraph(3, frozenset({(0, 1, 0), (1, 2, 1), (0, 2, 2)}))
# six edges, written once under the default budget
GRAPH_JSON = graph_to_json(modular_graph(collatz_map(), 3))

# (call, the number of items it stores)
BUILDS = {
    "modular_graph p=2": (lambda: modular_graph(collatz_map(), 6), 2 * 6),
    "modular_graph p=3": (lambda: modular_graph(original_collatz_map(), 5), 3 * 5),
    "debruijn_graph p=2": (lambda: debruijn_graph(2, 3), 2**4),
    "debruijn_graph p=3": (lambda: debruijn_graph(3, 2), 3**3),
    "line_graph": (lambda: line_graph(debruijn_graph(2, 2)), 8 * 2),
    "line_graph with a sink": (lambda: line_graph(SINK_GRAPH), 1),
    "restricted_graph": (lambda: restricted_graph(collatz_map(), 10), 10),
    "Digraph": (lambda: Digraph(7, ()), 7),
    "graph_from_json": (lambda: graph_from_json(GRAPH_JSON), 2 * 3),
    "conjugacy_permutation p=2": (lambda: conjugacy_permutation(collatz_map(), 4), 2**4),
    "conjugacy_permutation p=3": (lambda: conjugacy_permutation(original_collatz_map(), 2), 3**2),
    "digit_reversal_permutation": (lambda: digit_reversal_permutation(3, 2), 3**2),
    "lyndon_words exact": (lambda: lyndon_words(2, 5), 2**5),
    "lyndon_words dividing": (lambda: lyndon_words(3, 3, mode="dividing"), 3**3),
    "fkm_sequence": (lambda: fkm_sequence(2, 4), 2**4),
    "necklace_count": (lambda: necklace_count(3, 6), 6),
    "collatz_cycles": (lambda: collatz_cycles(5), 2**5),
    # 70 states, each charged as the 3 words of the 148-bit bound
    # 70 * (3 - 1).bit_length() + (2 * 70).bit_length() with M = 3
    "cycle_from_word": (lambda: cycle_from_word(collatz_map(), Word(2, (1,) * 70)), 70 * 3),
    "uniform_power_violation": (lambda: uniform_power_violation(collatz_map(), 3, 4), 8 * 8),
    "periodic_expansion": (lambda: periodic_expansion(Fraction(13, 7), 2), 4 + 7 + 2),
}


@pytest.mark.parametrize("name", BUILDS)
def test_budget_boundary(name, monkeypatch):
    build, count = BUILDS[name]
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", str(count))
    build()
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", str(count - 1))
    with pytest.raises(ResourceLimitError, match="COLLATZGRAPHS_SIZE_LIMIT"):
        build()


def test_huge_power_is_refused_on_its_exponent(monkeypatch):
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    start = time.perf_counter()
    for base in (2, 3, 10**6):
        with pytest.raises(ResourceLimitError) as info:
            check_size("test items", 1, base, 10**8)
    assert time.perf_counter() - start < 0.1
    # the message names the limit, never the (possibly unprintable) count
    assert str(info.value) == (
        "test items would exceed the size budget of 4194304 items"
        " (set COLLATZGRAPHS_SIZE_LIMIT to raise it)"
    )


def test_long_cycle_word_is_refused_before_it_is_composed(monkeypatch):
    # charged from k and the map alone: 10000 digits are 3.13M words, under
    # the default budget, and 200000 are refused without composing
    monkeypatch.delenv("COLLATZGRAPHS_SIZE_LIMIT", raising=False)
    cycle_from_word(collatz_map(), Word(2, (1, 0) * 5000))
    w = Word(2, (1, 0) * 100000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="cycle state machine words"):
        cycle_from_word(collatz_map(), w)
    assert time.perf_counter() - start < 0.1


def test_check_size_counts_factor_times_power(monkeypatch):
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "96")
    check_size("items", 3, 2, 5)
    check_size("items", 96)
    check_size("items", 0)
    for factor, base, exponent in ((97, 1, 0), (97, 2, 0), (3, 2, 6), (1, 2, 7), (200, 2, 1)):
        with pytest.raises(ResourceLimitError, match=re.escape("budget of 96 items")):
            check_size("items", factor, base, exponent)
    monkeypatch.setenv("COLLATZGRAPHS_SIZE_LIMIT", "0")
    with pytest.raises(ResourceLimitError):
        check_size("items", 1, 2, 0)
