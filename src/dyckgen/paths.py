"""Dyck words as monotonic lattice paths, plus an SVG contact sheet.

A one bit moves right, a zero bit moves up, so every word of half-length
n walks an n-by-n grid from the lower-left to the upper-right corner
without crossing above the diagonal. The renderer draws one tile per
word, in enumeration order, deterministically byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import BinaryIO

from .analysis import catalan
from .bits import DyckWord, enumerate_words
from .strings import SymbolPair, first_violation

__all__ = [
    "MAX_RENDER_N",
    "RIGHT",
    "UP",
    "LatticePath",
    "check_grid_size",
    "from_path",
    "render_grid",
    "to_path",
]

RIGHT = "R"
UP = "U"
MOVES = SymbolPair(RIGHT, UP)  # a one moves right, a zero moves up

MAX_RENDER_N = 8  # Catalan(8) = 1430 tiles; past that the sheet is useless

# Sheet geometry, in SVG user units. Fixed so golden-file tests stay stable.
CELL = 20
GUTTER = 10


@dataclass(frozen=True)
class LatticePath:
    """2n unit moves on an n-by-n grid that never rise above the diagonal."""

    moves: tuple[str, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.moves) != 2 * self.n:
            raise ValueError(
                f"expected {2 * self.n} moves for an {self.n}x{self.n} grid, "
                f"got {len(self.moves)}"
            )
        problem = first_violation(self.moves, MOVES)
        if problem is not None:
            raise ValueError(f"not a path below the diagonal: {problem}")

    def vertices(self) -> list[tuple[int, int]]:
        """The 2n + 1 lattice points visited, starting at (0, 0)."""
        points = [(0, 0)]
        x = 0
        y = 0
        for move in self.moves:
            if move == RIGHT:
                x += 1
            else:
                y += 1
            points.append((x, y))
        return points


def to_path(w: DyckWord) -> LatticePath:
    """Map a word onto its grid path: one goes right, zero goes up."""
    return LatticePath(moves=tuple(MOVES.encode(w.bits)), n=w.n)


def from_path(p: LatticePath) -> DyckWord:
    """Inverse of to_path: rightward moves become ones."""
    return DyckWord(int(MOVES.decode("".join(p.moves)), 2), p.n)


def check_grid_size(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_RENDER_N, the sizes rendered."""
    if not 1 <= n <= MAX_RENDER_N:
        raise ValueError(f"grid size must be in 1..{MAX_RENDER_N}, got {n}")


def render_grid(n: int, sink: BinaryIO) -> None:
    """Write one SVG document with a tile per Dyck word, in order.

    Row-major layout with ceil(sqrt(count)) columns, 20-unit cells and
    10-unit gutters. Each tile flips the y axis so paths run from the
    lower left to the upper right, with the diagonal dashed. Output
    depends on n alone, so byte-level golden tests are possible.
    Refuses n outside 1..MAX_RENDER_N with ValueError before any write.
    """
    check_grid_size(n)
    count = catalan(n)
    cols = isqrt(count - 1) + 1
    rows = (count + cols - 1) // cols
    side = CELL * n
    sheet_w = GUTTER + cols * (side + GUTTER)
    sheet_h = GUTTER + rows * (side + GUTTER)

    chunks = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{sheet_w}" '
        f'height="{sheet_h}" viewBox="0 0 {sheet_w} {sheet_h}">\n',
    ]
    grid_lines = _tile_grid(n, side)
    for index, word in enumerate(enumerate_words(n)):
        col = index % cols
        row = index // cols
        tx = GUTTER + col * (side + GUTTER)
        ty = GUTTER + row * (side + GUTTER) + side  # flip anchor: tile bottom
        points = " ".join(
            f"{x * CELL},{y * CELL}" for x, y in to_path(word).vertices()
        )
        chunks.append(
            f'<g class="tile" transform="translate({tx},{ty}) scale(1,-1)">\n'
            f"{grid_lines}"
            f'<line class="diag" x1="0" y1="0" x2="{side}" y2="{side}" '
            f'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>\n'
            f'<polyline class="path" fill="none" stroke="#000000" '
            f'stroke-width="2" points="{points}"/>\n'
            "</g>\n"
        )
    chunks.append("</svg>\n")
    sink.write("".join(chunks).encode("utf-8"))


def _tile_grid(n: int, side: int) -> str:
    lines = ['<g class="grid" stroke="#cccccc" stroke-width="1">\n']
    for i in range(n + 1):
        offset = i * CELL
        lines.append(f'<line x1="{offset}" y1="0" x2="{offset}" y2="{side}"/>\n')
        lines.append(f'<line x1="0" y1="{offset}" x2="{side}" y2="{offset}"/>\n')
    lines.append("</g>\n")
    return "".join(lines)
