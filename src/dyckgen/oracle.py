"""Brute-force ground truth for Dyck word generation.

Everything here is re-derived from the definition alone: a word is Dyck
iff every prefix holds at least as many ones as zeros and the totals
match. The scan over all 2**(2n) candidates is deliberately naive and
shares no code with the fast bit implementation, so it can stand as an
independent oracle in tests. Do not import the other modules here.
"""

from __future__ import annotations

MAX_BRUTE_FORCE_N = 12  # 2**(2n) candidates; ~16.7M checks at the cap


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
    """All Dyck words of length 2n as integers, ascending, by full scan."""
    _check_n(n)
    return [v for v in range(1 << (2 * n)) if _satisfies_definition(v, n)]


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
