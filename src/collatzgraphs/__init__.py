"""Modular transition graphs of p-branch affine maps, their digit conjugacy
to De Bruijn shift graphs, and the rational-cycle and necklace combinatorics
attached to them.  Everything is exact: integers, fractions, and eventually
periodic digit streams; no floats anywhere.

Digit convention, used uniformly: position i holds the coefficient of p**i,
and rendered words put position 0 leftmost, so "10110" in base 2 is 13.
"""

from .arith import (
    PeriodicDigits,
    Word,
    padic_digits,
    residue,
)
from .conjugacy import (
    PhiExactResult,
    conjugacy_permutation,
    digit_reversal_permutation,
    phi_exact,
    phi_inverse_truncated,
    phi_truncated,
    verify_conjugacy,
)
from .cycles import (
    ClassifiedOrbit,
    RationalCycle,
    classify_orbit,
    collatz_cycle,
    collatz_cycles,
    cycle_from_word,
    cycles_with_denominator,
    word_cycle,
)
from .graphs import (
    Digraph,
    Permutation,
    check_isomorphism,
    debruijn_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    line_graph,
    modular_graph,
    restricted_graph,
    transpose,
)
from .limits import ResourceLimitError, size_limit
from .maps import (
    PRESETS,
    BranchMap,
    an_plus_b_map,
    collatz_map,
    map_from_json,
    map_to_json,
    original_collatz_map,
    periodic_expansion,
    shift_map,
    standard_map,
)
from .spectral import (
    check_uniform_power,
    uniform_power_violation,
)
from .words import (
    fkm_sequence,
    is_debruijn_sequence,
    is_lyndon,
    is_primitive,
    lyndon_words,
    mobius,
    necklace_count,
)

__version__ = "0.1.0"

__all__ = [
    "BranchMap",
    "ClassifiedOrbit",
    "Digraph",
    "PRESETS",
    "PeriodicDigits",
    "Permutation",
    "PhiExactResult",
    "RationalCycle",
    "ResourceLimitError",
    "Word",
    "an_plus_b_map",
    "check_isomorphism",
    "check_uniform_power",
    "classify_orbit",
    "collatz_cycle",
    "collatz_cycles",
    "collatz_map",
    "conjugacy_permutation",
    "cycle_from_word",
    "cycles_with_denominator",
    "debruijn_graph",
    "digit_reversal_permutation",
    "fkm_sequence",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "is_debruijn_sequence",
    "is_lyndon",
    "is_primitive",
    "line_graph",
    "lyndon_words",
    "map_from_json",
    "map_to_json",
    "mobius",
    "modular_graph",
    "necklace_count",
    "original_collatz_map",
    "padic_digits",
    "periodic_expansion",
    "phi_exact",
    "phi_inverse_truncated",
    "phi_truncated",
    "residue",
    "restricted_graph",
    "shift_map",
    "size_limit",
    "standard_map",
    "transpose",
    "uniform_power_violation",
    "verify_conjugacy",
    "word_cycle",
]
