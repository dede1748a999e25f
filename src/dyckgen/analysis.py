"""Structural anatomy of Dyck words.

Prefix counts, the decomposition of a non-maximum word around its last
zero-one boundary, a template successor rebuilt from that decomposition,
the paper's five-statement successor, and exact Catalan counting. These
are the slow-but-obvious counterparts used to cross-check the bit
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .bits import DyckWord
from .strings import BITS

__all__ = [
    "Decomposition",
    "PrefixCounts",
    "catalan",
    "decompose",
    "paper_next",
    "prefix_counts",
    "successor_from_decomposition",
]


class PrefixCounts(NamedTuple):
    ones: int
    zeros: int


def prefix_counts(w: DyckWord | str, i: int) -> PrefixCounts:
    """Counts of ones and zeros among positions 1..i (1-based, MSB first)."""
    window = w.bits if isinstance(w, DyckWord) else BITS.decode(w)
    if not 1 <= i <= len(window):
        raise ValueError(f"position must be in 1..{len(window)}, got {i}")
    ones = window.count("1", 0, i)
    return PrefixCounts(ones=ones, zeros=i - ones)


@dataclass(frozen=True)
class Decomposition:
    """Anatomy of a non-maximum word around its last zero-one boundary.

    k is the 1-based position of the zero that gets rewritten, x the
    number of ones after position k + 1, y the number of trailing zeros.
    The word itself reads prefix + "01" + x ones + y zeros, and its
    successor reads prefix + "10" + (y - x) zeros + x "10" pairs.
    """

    k: int
    x: int
    y: int

    @property
    def prefix_len(self) -> int:
        """Length of the shared prefix, k - 1."""
        return self.k - 1


def decompose(w: DyckWord) -> Decomposition:
    """Locate the last zero-one boundary of w.

    Raises ValueError on the maximum word, which has no boundary and no
    successor.
    """
    window = w.bits
    for k in range(2 * w.n - 1, 0, -1):  # window[k - 1] is position k
        if window[k - 1] == "0" and window[k] == "1":
            tail = window[k + 1 :]
            x = tail.count("1")
            return Decomposition(k=k, x=x, y=len(tail) - x)
    raise ValueError(f"{window} is the maximum word of its size; no decomposition")


def successor_from_decomposition(w: DyckWord, d: Decomposition) -> DyckWord:
    """Rebuild the successor from the template, bypassing the bit trick.

    Independent reference route: keep the prefix, write "10" at the
    boundary, then y - x zeros, then x alternating "10" pairs. The result
    is revalidated on construction.
    """
    window = w.bits
    rebuilt = window[: d.k - 1] + "10" + "0" * (d.y - d.x) + "10" * d.x
    return DyckWord(int(rebuilt, 2), w.n)


def paper_next(w: int) -> int:
    """The paper's successor, statement for statement: the reference form.

    Isolate the lowest set bit, ripple-add it, diff to locate the changed
    run, shrink the run into a 2x-bit mask, then refill the tail from the
    alternating literal. The shift is a logical shift, equivalent to
    truncating division by four. Same contract as ``bits.next_unchecked``,
    which computes the same value without the division and the square;
    w == 0 raises ZeroDivisionError here.
    """
    a = w & -w
    b = w + a
    c = w ^ b
    c = ((c // a) >> 2) + 1
    return ((c * c - 1) & 0xAAAAAAAAAAAAAAAA) | b


def catalan(n: int) -> int:
    """The n-th Catalan number, the count of Dyck words of length 2n.

    Exact-division recurrence: C(0) = 1, C(k+1) = C(k) * 2(2k+1) / (k+2),
    where every division is exact, so intermediates never leave the
    integers and never exceed the result itself.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    value = 1
    for k in range(n):
        value = value * 2 * (2 * k + 1) // (k + 2)
    return value
