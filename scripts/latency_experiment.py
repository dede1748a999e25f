#!/usr/bin/env python3
"""Measure successor latency: the paper's five statements, the three-statement
lookup core, and the in-place string scan.

Both integer versions run the same straight-line statements whatever the
size: ``analysis.paper_next`` divides and squares, ``bits.next_unchecked``
replaces both with one table lookup. The string version walks to the
rewrite point and back, so its cost tracks the word length. Inputs use
the worst-case shape (rewrite point at the front) to make that visible.
Reports best-of-R mean ns/call for each size, and each integer form's
spread (slowest size over fastest).

    PYTHONPATH=src python3 scripts/latency_experiment.py --sizes 8 16 24 31
"""

import argparse
import math
import time

from dyckgen.analysis import paper_next
from dyckgen.bits import next_unchecked
from dyckgen.strings import next_in_place


def worst_case_window(n: int) -> str:
    return "10" + "1" * (n - 1) + "0" * (n - 1)


def int_latency_ns(successor, n: int, repeats: int, calls: int) -> float:
    value = int(worst_case_window(n), 2)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            successor(value)
        best = min(best, (time.perf_counter_ns() - start) / calls)
    return best


def string_latency_ns(n: int, repeats: int, calls: int) -> float:
    template = list(worst_case_window(n))
    best = math.inf
    for _ in range(repeats):
        buffers = [template[:] for _ in range(calls)]
        start = time.perf_counter_ns()
        for buffer in buffers:
            next_in_place(buffer)
        best = min(best, (time.perf_counter_ns() - start) / calls)
    return best


def spread(results: dict[int, float]) -> float:
    return max(results.values()) / min(results.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[8, 16, 24, 31], help="half-lengths"
    )
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--calls", type=int, default=20_000)
    args = parser.parse_args()

    print(f"{'n':>4} {'paper ns/call':>14} {'lookup ns/call':>15} {'string ns/call':>16}")
    paper, lookup, string = {}, {}, {}
    for n in args.sizes:
        paper[n] = int_latency_ns(paper_next, n, args.repeats, args.calls)
        lookup[n] = int_latency_ns(next_unchecked, n, args.repeats, args.calls)
        string[n] = string_latency_ns(n, args.repeats, max(args.calls // 4, 1))
        print(f"{n:>4} {paper[n]:>14.1f} {lookup[n]:>15.1f} {string[n]:>16.1f}")

    lo, hi = min(args.sizes), max(args.sizes)
    print(f"\npaper bit spread across sizes:   {spread(paper):.2f}x")
    print(f"lookup bit spread across sizes:  {spread(lookup):.2f}x")
    print(f"string growth {lo} -> {hi}:          {string[hi] / string[lo]:.2f}x")


if __name__ == "__main__":
    main()
