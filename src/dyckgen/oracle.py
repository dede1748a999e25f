"""Brute-force ground truth for Dyck word generation.

Everything here is re-derived from the definition alone: a word is Dyck
iff every prefix holds at least as many ones as zeros and the totals
match. The scans test each candidate against that definition, are
deliberately naive and share no code with the fast bit implementation,
so they can stand as an independent oracle in tests. Do not import the
other modules here.
"""

from __future__ import annotations

from itertools import combinations

__all__ = ["brute_force_all", "brute_force_next"]

MAX_BRUTE_FORCE_N = 12  # brute_force_next scans up to 2**(2n), ~16.7M at the cap


def _satisfies_definition(value: int, n: int) -> bool:
    # Direct per-position count of ones vs zeros, most significant bit
    # first. Intentionally not the scan in strings.first_violation.
    width = 2 * n
    if value < 0 or value >> width:
        return False
    ones = 0
    zeros = 0
    for i in range(1, width + 1):
        if (value >> (width - i)) & 1:
            ones += 1
        else:
            zeros += 1
        if zeros > ones:
            return False
    return ones == n and zeros == n


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_BRUTE_FORCE_N:
        raise ValueError(
            f"brute force is limited to 1 <= n <= {MAX_BRUTE_FORCE_N}, got {n}"
        )


def brute_force_all(n: int) -> list[int]:
    """All Dyck words of length 2n as integers, ascending.

    The candidates are the C(2n, n) values with exactly n ones, one for
    each choice of the bit positions holding them. Every other 2n-bit
    value breaks the definition's "the totals match", so leaving it out
    changes no verdict, and each candidate still passes the full check.
    """
    _check_n(n)
    positions = combinations(range(2 * n), n)
    candidates = (sum(1 << p for p in ones) for ones in positions)
    return sorted(v for v in candidates if _satisfies_definition(v, n))


def brute_force_next(value: int, n: int) -> int | None:
    """Smallest Dyck word greater than ``value``, or None at the maximum.

    Linear search over the raw integer range; ``value`` itself must pass
    the definition or ValueError is raised.
    """
    _check_n(n)
    if not _satisfies_definition(value, n):
        raise ValueError(f"{value} is not a Dyck word of half-length {n}")
    for candidate in range(value + 1, 1 << (2 * n)):
        if _satisfies_definition(candidate, n):
            return candidate
    return None
