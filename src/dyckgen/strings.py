"""Dyck words as symbol sequences: validator, symbol codec, successor.

Works over any two distinct single-character symbols, for example '(' and
')'. ``first_violation`` is the package's one prefix-balance scan; a
``SymbolPair`` encodes '1'/'0' windows into its symbols and decodes them
back. A word here is plain text: ``next_string`` validates and advances
it, ``next_in_place`` advances a mutable sequence unchecked. One backward
scan finds the rewrite point, one forward pass rewrites to the end, so a
call touches each position at most twice and allocates no auxiliary
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableSequence

__all__ = [
    "BITS",
    "PARENS",
    "SymbolPair",
    "first_violation",
    "is_dyck_text",
    "next_in_place",
    "next_string",
]


@dataclass(frozen=True)
class SymbolPair:
    """The two characters playing the roles of one and zero."""

    one: str
    zero: str

    def __post_init__(self) -> None:
        if len(self.one) != 1 or len(self.zero) != 1:
            raise ValueError("symbols must be single characters")
        if self.one == self.zero:
            raise ValueError("symbols must be distinct")

    def encode(self, window: str) -> str:
        """A '1'/'0' window written in these symbols."""
        return window.translate({ord("1"): self.one, ord("0"): self.zero})

    def decode(self, text: str) -> str:
        """Text in these symbols read back as a '1'/'0' window.

        Raises ValueError naming the first character that is neither symbol.
        """
        foreign = text.translate({ord(self.one): None, ord(self.zero): None})
        if foreign:
            raise ValueError(_foreign(foreign[0], self))
        return text.translate({ord(self.one): "1", ord(self.zero): "0"})


def _foreign(ch: str, symbols: SymbolPair) -> str:
    return f"character {ch!r} is neither {symbols.one!r} nor {symbols.zero!r}"


BITS = SymbolPair("1", "0")
PARENS = SymbolPair("(", ")")


def first_violation(text, symbols: SymbolPair = BITS) -> str | None:
    """None when text is a Dyck word over symbols, else the first fault.

    Odd length is reported first; then one left-to-right pass stops at the
    first foreign symbol or the first prefix with more zeros than ones
    (1-based position); unequal totals are reported last. text may be any
    sequence of characters, and '' counts as valid.
    """
    if len(text) % 2:
        return f"odd length {len(text)}"
    one, zero = symbols.one, symbols.zero
    ones = zeros = 0
    for ch in text:
        if ch == one:
            ones += 1
        elif ch != zero:
            return _foreign(ch, symbols)
        elif zeros < ones:
            zeros += 1
        else:
            return f"prefix violation at position {ones + zeros + 1}"
    if ones != zeros:
        return f"unbalanced word: {ones} ones, {zeros} zeros"
    return None


def is_dyck_text(text, symbols: SymbolPair = BITS) -> bool:
    """True iff text is a Dyck word over symbols; '' counts as valid."""
    return first_violation(text, symbols) is None


def next_in_place(w: MutableSequence[str], symbols: SymbolPair = BITS) -> None:
    """Advance w to its successor in place; clear it when none exists.

    w must already be a Dyck word over the given symbols. That is not
    checked here: garbage in, garbage out, in exchange for never paying a
    validation pass. The backward scan guard ``i > 0`` is enough because a
    Dyck word never starts with a zero, so the rewritten position is at
    least the second one.
    """
    one = symbols.one
    zero = symbols.zero
    if one == zero:
        raise ValueError("symbols must be distinct")
    m = len(w) - 1
    y = 0  # trailing zeros scanned so far
    x = 0  # ones sitting between the trailing zeros and the rewrite point
    i = m
    while i > 0:
        if w[i] == zero:
            y += 1
        elif w[i - 1] == zero:
            # Greatest position holding a zero directly before a one:
            # swap the pair, then rebuild everything to its right as
            # y - x zeros followed by alternating one-zero pairs.
            w[i - 1] = one
            w[i] = zero
            for _ in range(y - x):
                i += 1
                w[i] = zero
            while i < m:
                i += 1
                w[i] = one
                i += 1
                w[i] = zero
            return
        else:
            x += 1
        i -= 1
    w.clear()  # maximum word: no successor of this size


def next_string(text: str, symbols: SymbolPair = BITS) -> str | None:
    """Checked, non-mutating successor; None when text is the maximum word.

    Unlike the in-place primitive this validates its input up front and
    raises ValueError on anything that is not a Dyck word over the given
    symbols. The empty word is treated as already maximal.
    """
    if not is_dyck_text(text, symbols):
        raise ValueError(
            f"{text!r} is not a Dyck word over "
            f"{symbols.one!r}/{symbols.zero!r}"
        )
    buffer = list(text)
    next_in_place(buffer, symbols)
    return "".join(buffer) if buffer else None

