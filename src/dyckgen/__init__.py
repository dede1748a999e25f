"""Ordered generation of Dyck words with a loopless bitwise successor.

The integer core advances a word in three branch-free statements (the
paper's five, with the division and the square replaced by a table
lookup); a string counterpart does the same rewrite in place over any
two-symbol alphabet. Around them: prefix-count analysis, exact Catalan
counting, a brute-force oracle, lattice-path rendering and a small CLI.
"""

from .analysis import (
    Decomposition,
    PrefixCounts,
    catalan,
    decompose,
    paper_next,
    prefix_counts,
    successor_from_decomposition,
)
from .bits import (
    MAX_HALF_LENGTH,
    DyckWord,
    enumerate_words,
    is_dyck,
    max_value,
    max_word,
    min_value,
    min_word,
    next_unchecked,
    next_word,
    walk_values,
)
from .oracle import brute_force_all, brute_force_next
from .paths import RIGHT, UP, LatticePath, from_path, render_grid, to_path
from .strings import (
    BITS,
    PARENS,
    DyckString,
    SymbolPair,
    first_violation,
    is_dyck_text,
    next_in_place,
    next_string,
)

__version__ = "0.1.0"

__all__ = [
    "BITS",
    "MAX_HALF_LENGTH",
    "PARENS",
    "RIGHT",
    "UP",
    "Decomposition",
    "DyckString",
    "DyckWord",
    "LatticePath",
    "PrefixCounts",
    "SymbolPair",
    "brute_force_all",
    "brute_force_next",
    "catalan",
    "decompose",
    "enumerate_words",
    "first_violation",
    "from_path",
    "is_dyck",
    "is_dyck_text",
    "max_value",
    "max_word",
    "min_value",
    "min_word",
    "next_in_place",
    "next_string",
    "next_unchecked",
    "next_word",
    "paper_next",
    "prefix_counts",
    "render_grid",
    "successor_from_decomposition",
    "to_path",
    "walk_values",
]
