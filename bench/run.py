#!/usr/bin/env python3
"""dyckgen benchmark: three workloads, one traced per-module run.

    python3 bench/run.py --workload enum-stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the code under test is imported
from ``src/`` there and nowhere else. The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
lines before it record the environment (Python, CPU count, load, steal
time, commit, seed, bare interpreter start) and a report with sample
counts, the tail percentile used and ``failed_ratio`` with its base.

Workloads (each a closed loop with one caller, inputs made from the seed):

* ``enum-stream``: ``dyckgen enum`` in a fresh process, stdout piped back.
  A round is ``--n 13 --format bits`` (all 742,900 words, small ints, no
  codec) and ``--n 24 --format parens --limit 742900`` (ints wider than
  2**30, 48-character lines, the translate codec); rounds repeat for the
  whole run. The per-word layers do nearly all the work: successor (L0),
  the walk and the ``DyckWord`` wrapping (L1-L2, ``bits.enumerate``),
  formatting (L3, ``cli.format_value``), the loop and ``print`` (L4,
  ``cli.cmd_enum`` self time); L5 is the process as a whole, measured as
  ``ops_per_s`` and ``setup_s``.
* ``step-random``: in-process ``next_word(DyckWord(v, n))`` and
  ``next_string(text, symbols)`` calls, one word per request, n uniform on
  1..32, words uniform per n, 1 % maximum words. The same ``bits`` core by
  random access, with validation on every call, plus ``strings``.
* ``cli-oneshot``: a fresh ``dyckgen`` process per request: ``next``,
  ``validate``, ``count``, ``enum --limit <= 100`` and ``render --n <= 8``
  over all four formats, 30 % hostile (wrong symbols, odd length, prefix
  violations, non-ASCII digits for ``--format int``, out-of-range sizes,
  an unwritable output). Start-up, imports and argument parsing dominate.
  A run makes a fixed number of requests, whole rounds of 60 at about
  ten per second asked for, and a traced run a fixed number of
  repetitions, so every run of a seed fails the same requests.

End-to-end metrics, the same four on every workload (``--trace 0``):
``ops_per_s`` (words, steps or requests per second), ``op_p50_us`` and
``op_tail_us`` (per-operation latency: the median and a high percentile,
p95 of µs per word over 10,000-word stretches for enum-stream, p99 for
step-random, p95 of process wall time for cli-oneshot) and ``setup_s``
(spawn to first output, median of eleven). Times are scaled to the
nominal speed of a reference loop timed alongside them (see
``measure.py``); the raw figures are in the report line. ``--trace 1``
runs the same traced per-module suite for every workload and reports
the per-layer metrics of ``tracing.py`` instead, each a raw time or an
exact count.

An operation fails when its output is wrong, its exit code is not the
one the definition predicts, or it prints a traceback. ``correct`` is
false when a well-formed request fails; a hostile request that is
refused the wrong way counts in ``failed`` only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enum-stream", "step-random", "cli-oneshot")


def load_program():
    """Import dyckgen from the checkout's src/ or exit without a result."""
    src = ROOT / "src"
    if not (src / "dyckgen" / "__init__.py").is_file():
        sys.exit(f"error: no dyckgen sources under {src}")
    sys.path.insert(0, str(src))
    import dyckgen

    if Path(dyckgen.__file__).resolve().parent != src / "dyckgen":
        sys.exit(f"error: dyckgen was imported from {dyckgen.__file__}, not {src}")
    from measure import Program

    return Program(ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description="dyckgen benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = load_program()
    import measure
    import tracing

    load = measure.machine_load()
    scratch = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if args.trace:
            metrics, attempted, failed, correct, repetitions = tracing.traced_run(
                program, args.seed, args.seconds, scratch
            )
            report = {"repetitions": repetitions}
        else:
            if args.workload == "enum-stream":
                outcome = measure.enum_stream(program, args.seed, args.seconds)
            elif args.workload == "step-random":
                outcome = measure.step_random(program, args.seed, args.seconds)
            else:
                outcome = measure.cli_oneshot(program, args.seed, args.seconds, scratch)
            metrics, attempted, failed = outcome.metrics, outcome.attempted, outcome.failed
            correct, report = outcome.correct, outcome.report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report.update(
        workload=args.workload,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        failed_ratio=failed / attempted,
    )
    print(json.dumps({"environment": measure.environment(program, args.seed, load)}))
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
