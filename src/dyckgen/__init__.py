"""Ordered generation of Dyck words with a loopless bitwise successor.

The integer core advances a word in three branch-free statements (the
paper's five, with the division and the square replaced by a table
lookup); a string counterpart does the same rewrite in place over any
two-symbol alphabet. Around them: prefix-count analysis, exact Catalan
counting, a brute-force oracle, lattice-path rendering and a small CLI.
"""

from . import analysis, bits, oracle, paths, strings
from .analysis import *
from .bits import *
from .oracle import *
from .paths import *
from .strings import *

__version__ = "0.1.0"

__all__ = [
    *analysis.__all__,
    *bits.__all__,
    *oracle.__all__,
    *paths.__all__,
    *strings.__all__,
]
