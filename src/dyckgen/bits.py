"""Dyck words as nonnegative integers with a loopless successor.

A word of half-length n occupies the low 2n bits of a value, most
significant bit of the window first, so lexicographic order on words
coincides with numeric order on values. The successor is three
straight-line integer statements: the first two are Gosper's (isolate
the lowest set bit, ripple-add it), the third refills the rewritten tail
from a 66-entry table of alternating 64-bit masks indexed by a popcount,
with no division and no multiplication. The paper's five statements stay
in ``analysis.paper_next`` as the reference. Minimum and maximum words
are built by shifting, never by raising 4 to the n, so nothing overflows
a 2n-bit window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from .strings import first_violation

__all__ = [
    "MAX_HALF_LENGTH",
    "DyckWord",
    "check_half_length",
    "enumerate_words",
    "is_dyck",
    "max_value",
    "max_word",
    "min_value",
    "min_word",
    "next_unchecked",
    "next_word",
    "walk_values",
]

MAX_HALF_LENGTH = 32


def check_half_length(n: int) -> None:
    """Raise ValueError unless 1 <= n <= 32 (2n must fit a 64-bit word)."""
    if not 1 <= n <= MAX_HALF_LENGTH:
        raise ValueError(f"half-length must be in 1..{MAX_HALF_LENGTH}, got {n}")


# _TAIL[k]: the tail refilled behind a rewrite whose changed run has k
# bits, 2k - 4 low bits of the alternating literal. In the paper's form the
# run c = w ^ (w + a) holds k = popcount(c) ones starting at bit a, so
# c // a is 2**k - 1 and (((c // a) >> 2) + 1)**2 - 1 is 2**(2k - 4) - 1;
# k < 2 gives the empty mask there too. k runs to 65 for w below 2**64.
_TAIL = tuple(
    ((1 << max(0, 2 * k - 4)) - 1) & 0xAAAAAAAAAAAAAAAA for k in range(66)
)


def next_unchecked(w: int) -> int:
    """Next Dyck word of the same size, assuming one exists.

    The input must be a valid Dyck word that is not the maximum of its
    size; anything else is garbage in, garbage out (no checks at this
    layer). The three statements: isolate the lowest set bit, ripple-add
    it, then refill the tail below the new leading bit from a table of
    alternating masks indexed by the length of the changed run. For every
    nonzero w below 2**64 the result equals the paper's five statements
    (``analysis.paper_next``), valid word or not; w == 0 returns 0 here,
    where the paper's form raises ZeroDivisionError.
    """
    a = w & -w
    b = w + a
    return _TAIL[(w ^ b).bit_count()] | b


def is_dyck(value: int, n: int) -> bool:
    """True iff the low 2n bits of ``value`` encode a Dyck word.

    Total function: out-of-range n, negative values, or set bits above
    the window all return False rather than raising.
    """
    if not 1 <= n <= MAX_HALF_LENGTH or value < 0 or value >> (2 * n):
        return False
    return first_violation(format(value, f"0{2 * n}b")) is None


def min_value(n: int) -> int:
    """The alternating word 1010...10 on 2n bits, as a raw integer.

    The top 2n bits of the 64-bit alternating literal, shifted down; the
    closed form 2/3 * (4**n - 1) is equal but would overflow a fixed-width
    register at n = 32, so it stays out of the construction.
    """
    check_half_length(n)
    return 0xAAAAAAAAAAAAAAAA >> (64 - 2 * n)


def max_value(n: int) -> int:
    """n ones followed by n zeros, as a raw integer (equals 4**n - 2**n).

    Two single-width shifts; never shifts by the full 2n, which is the
    edge that bites fixed-width registers when 2n equals the word size.
    """
    check_half_length(n)
    return ((1 << n) - 1) << n


@dataclass(frozen=True, slots=True)
class DyckWord:
    """A validated Dyck word: ``value`` holds the 2n-bit window, MSB first."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if not is_dyck(self.value, self.n):
            raise ValueError(
                f"{self.value} is not a Dyck word of half-length {self.n}"
            )

    @classmethod
    def from_bits(cls, text: str) -> DyckWord:
        """Parse an explicit window of '1'/'0' characters, e.g. '101100'.

        One scan: a window that passes ``first_violation`` and fits n <= 32
        is a Dyck word, so it is not validated again.
        """
        problem = first_violation(text) if text else "empty window"
        if problem is not None:
            raise ValueError(problem)
        n = len(text) // 2
        check_half_length(n)
        return cls._trusted(int(text, 2), n)

    @classmethod
    def _trusted(cls, value: int, n: int) -> DyckWord:
        # Fast path for words already known to be valid, such as those the
        # successor produces: skips the O(n) revalidation and the frozen
        # __setattr__ by writing the two slots through their descriptors.
        word = _new(cls)
        _set_value(word, value)
        _set_n(word, n)
        return word

    @property
    def bits(self) -> str:
        """The 2n-character window as text, MSB first."""
        return format(self.value, f"0{2 * self.n}b")

    def __str__(self) -> str:
        return self.bits


_new = object.__new__
_set_value = DyckWord.value.__set__
_set_n = DyckWord.n.__set__


def min_word(n: int) -> DyckWord:
    """The smallest Dyck word of half-length n: 1010...10."""
    return DyckWord(min_value(n), n)


def max_word(n: int) -> DyckWord:
    """The largest Dyck word of half-length n: n ones then n zeros."""
    return DyckWord(max_value(n), n)


def next_word(w: DyckWord) -> DyckWord | None:
    """Checked successor: None when w is the maximum word of its size."""
    if w.value == max_value(w.n):
        return None
    return DyckWord._trusted(next_unchecked(w.value), w.n)


def enumerate_words(n: int) -> Iterator[DyckWord]:
    """All Dyck words of half-length n in strictly increasing order.

    Starts at min_word(n), ends at max_word(n), and yields exactly
    Catalan(n) words: the values of ``walk_values(n)``, each wrapped in a
    ``DyckWord``. Raises ValueError at once for n outside 1..32.
    """
    return map(DyckWord._trusted, walk_values(n), repeat(n))


def walk_values(n: int) -> Iterator[int]:
    """The values of all Dyck words of half-length n, in increasing order.

    The allocation-light core of enumeration: plain ints, with the three
    statements of ``next_unchecked`` inlined. Raises ValueError at once
    for n outside 1..32.
    """
    return _walk(min_value(n), max_value(n))


def _walk(value: int, last: int) -> Iterator[int]:
    tail = _TAIL
    while value != last:
        yield value
        a = value & -value
        b = value + a
        value = tail[(value ^ b).bit_count()] | b
    yield value
