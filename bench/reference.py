"""The benchmark's own ground truth, independent of the code under test.

Nothing here imports dyckgen. A word is a window of 2n bits, most
significant first, read as '1' = open and '0' = close; it is a Dyck word
iff no prefix holds more zeros than ones and the totals match. Words are
ordered as integers, which is lexicographic order with '0' < '1'.

Two successors live here on purpose: ``paper_next`` is a frozen copy of
the paper's five statements, used to check streams and library calls;
``definition_next`` rebuilds the successor from the order and the prefix
condition alone, used to predict CLI output.
"""

from __future__ import annotations

import random
from math import comb

ALTERNATING_64 = 0xAAAAAAAAAAAAAAAA
FORMATS = ("bits", "parens", "int", "custom:ab")
SYMBOLS = {"bits": ("1", "0"), "parens": ("(", ")"), "custom:ab": ("a", "b")}


def paper_next(w: int) -> int:
    """Frozen copy of the paper's five statements (valid, non-maximal w)."""
    a = w & -w
    b = w + a
    c = w ^ b
    c = ((c // a) >> 2) + 1
    return ((c * c - 1) & ALTERNATING_64) | b


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def min_window(n: int) -> str:
    return "10" * n


def max_window(n: int) -> str:
    return "1" * n + "0" * n


def _smallest_completion(prefix: str, n: int) -> str:
    # Lexicographically smallest valid completion: a zero wherever the
    # prefix condition allows one, a one otherwise.
    ones = prefix.count("1")
    zeros = len(prefix) - ones
    out = [prefix]
    for _ in range(2 * n - len(prefix)):
        if zeros < ones:
            out.append("0")
            zeros += 1
        else:
            out.append("1")
            ones += 1
    return "".join(out)


def definition_next(window: str) -> str | None:
    """Smallest Dyck word above ``window`` of the same length, or None.

    Raises the last zero that can become a one without breaking the
    bound of n ones, then completes with the smallest valid tail.
    """
    n = len(window) // 2
    ones_before = [0]
    for ch in window:
        ones_before.append(ones_before[-1] + (ch == "1"))
    for i in range(len(window) - 1, 0, -1):
        if window[i] == "0" and ones_before[i] + 1 <= n:
            return _smallest_completion(window[:i] + "1", n)
    return None


def definition_words(n: int, limit: int) -> list[str]:
    """The first ``limit`` words of half-length n in increasing order."""
    words = []
    window = min_window(n)
    while window is not None and len(words) < limit:
        words.append(window)
        window = definition_next(window)
    return words


def render_word(window: str, fmt: str) -> str:
    """A '1'/'0' window written in one of the CLI formats."""
    if fmt == "int":
        return str(int(window, 2))
    one, zero = SYMBOLS[fmt]
    return window.translate(str.maketrans("10", one + zero))


def random_window(rng: random.Random, n: int) -> str:
    """A uniformly random Dyck word of half-length n, by the cycle lemma.

    Every arrangement of n ups and n + 1 downs has exactly one rotation
    whose proper prefixes stay nonnegative; cutting after the first
    minimum finds it, and dropping the final down leaves a Dyck word.
    """
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    total = lowest = cut = 0
    for i, step in enumerate(steps):
        total += step
        if total < lowest:
            lowest, cut = total, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join("1" if step > 0 else "0" for step in rotated[:-1])


# Balance walk over 8-bit chunks, most significant bit first: for each
# byte the net change and the lowest running balance inside it.
_CHUNK = []
for _byte in range(256):
    _bal = _low = 0
    for _pos in range(7, -1, -1):
        _bal += 1 if (_byte >> _pos) & 1 else -1
        _low = min(_low, _bal)
    _CHUNK.append((_bal, _low))


def is_dyck_value(value: int, n: int) -> bool:
    """True iff the low 2n bits of ``value`` are a Dyck word, a byte at a time."""
    width = 2 * n
    if value < 0 or value >> width:
        return False
    pad = -width % 8  # trailing ones never break a prefix
    value = (value << pad) | ((1 << pad) - 1)
    balance = 0
    for shift in range(width + pad - 8, -1, -8):
        delta, low = _CHUNK[(value >> shift) & 0xFF]
        if balance + low < 0:
            return False
        balance += delta
    return balance == pad


PARENS_TO_BITS = bytes.maketrans(b"()", b"10")


def _values(lines, translate: bytes | None):
    """Parse stream lines to ints; a line that does not parse gives None."""
    for line in lines:
        if translate is not None:
            line = line.translate(translate)
        try:
            yield int(line, 2), len(line)
        except ValueError:
            yield None, len(line)


def check_complete_stream(lines, n: int, translate: bytes | None = None) -> int:
    """Failures in a full enumeration: non-Dyck lines, order, count.

    Each bad line and each adjacent pair out of strict order counts once;
    a wrong total counts its difference from Catalan(n).
    """
    failures = 0
    count = 0
    previous = -1
    for value, length in _values(lines, translate):
        count += 1
        if value is None or length != 2 * n or not is_dyck_value(value, n):
            failures += 1
            continue
        if value <= previous:
            failures += 1
        previous = value
    return failures + abs(count - catalan(n))


def check_prefix_stream(
    lines, n: int, limit: int, translate: bytes | None = None
) -> int:
    """Failures in a ``--limit`` prefix: start word, steps, count.

    The first line must be 1010...10 and each line must be the frozen
    five-statement successor of the line before it.
    """
    failures = 0
    count = 0
    previous = None
    for value, length in _values(lines, translate):
        count += 1
        if value is None or length != 2 * n:
            failures += 1
            previous = None
            continue
        if previous is None:
            if count == 1 and value != int(min_window(n), 2):
                failures += 1
        elif value != paper_next(previous):
            failures += 1
        previous = value
    return failures + abs(count - limit)
