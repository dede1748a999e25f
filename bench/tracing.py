"""The traced per-module run behind ``--trace 1``.

Spans are recorded from the benchmark's side. For the length of a
section, public functions of ``bits``, ``strings``, ``analysis``, ``paths``
and ``cli`` are swapped for timing wrappers in the namespaces that call
them, and restored afterwards, so calls between modules are caught too;
nothing under ``src/`` changes and ``oracle`` is never timed. Each span
keeps (name, start, end, parent) in memory, and a span's self time is
its duration minus the time its child spans cover.

Every section runs a fixed, seeded amount of work, first untraced and
then traced, so counts repeat exactly for a seed and the difference
between the two passes is the tracing overhead.
"""

from __future__ import annotations

import collections
import io
import os
import re
import statistics
import subprocess
import time
import warnings
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from inputs import (
    CLI_ROUND,
    COMPLETE_PASS,
    PREFIX_PASS,
    EnumPass,
    cli_requests,
    step_requests,
)
from measure import (
    SETUP_SPAWNS,
    Program,
    check_cli,
    check_enum_pass,
    interpreter_ms,
    library_calls,
    prepare_steps,
    run_enum_pass,
    step_batch,
)

TRACE_WORDS = 100_000  # per enum pass kind
TRACE_STEPS = 10_000
TRACE_REQUESTS = 4 * CLI_ROUND
TRACE_SECONDS = 6  # about one repetition of the traced suite here
RENDER_SIZES = range(1, 9)
IMPORTED = ("dyckgen", "bits", "strings", "analysis", "oracle", "paths", "cli")
ENUM_PASSES = (
    EnumPass(COMPLETE_PASS.n, COMPLETE_PASS.fmt, TRACE_WORDS),
    EnumPass(PREFIX_PASS.n, PREFIX_PASS.fmt, TRACE_WORDS),
)


NO_SPANS = {"calls": 0, "total": 0, "self": 0, "durations": [], "selfs": []}


class Tracer:
    """Spans kept as parallel arrays; the open spans form a stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._open = [-1]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        open_spans, clock = self._open, time.perf_counter_ns

        def traced(*args):
            index = len(names)
            names.append(name_id)
            parents.append(open_spans[-1])
            starts.append(0)
            ends.append(0)
            open_spans.append(index)
            began = clock()
            try:
                return fn(*args)
            finally:
                ends[index] = clock()
                starts[index] = began
                open_spans.pop()

        return traced

    def iterate(self, name: str, iterator):
        """``iterator`` with every step recorded as a span called ``name``."""
        step = self.wrap(name, iterator.__next__)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    def summary(self) -> dict[str, dict]:
        """Per name: calls, total and self ns, sorted durations and self times.

        A name with no spans reads as an empty row.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[index]
        table = {
            name: {"calls": 0, "total": 0, "self": 0, "durations": [], "selfs": []}
            for name in self.names
        }
        for index, name_id in enumerate(self.name):
            row = table[self.names[name_id]]
            own = durations[index] - covered[index]
            row["calls"] += 1
            row["total"] += durations[index]
            row["self"] += own
            row["durations"].append(durations[index])
            row["selfs"].append(own)
        for row in table.values():
            row["durations"].sort()
            row["selfs"].sort()
        return collections.defaultdict(lambda: NO_SPANS, table)


@contextmanager
def instrumented(tracer: Tracer):
    """Swap dyckgen's public functions for traced ones, then restore them.

    A name a later version no longer has is left alone; its metrics then
    read zero instead of stopping the run.
    """
    from dyckgen import bits, cli, paths, strings

    def span(name):
        return lambda original: tracer.wrap(name, original)

    def per_word_format(original):
        kinds = ("bits", "parens", "int", "custom")
        by_kind = {k: tracer.wrap(f"cli.format_value.{k}", original) for k in kinds}
        return lambda value, n, fmt: by_kind[fmt.kind](value, n, fmt)

    def per_size_render(original):
        by_n = {n: tracer.wrap(f"paths.render_grid.n{n}", original) for n in RENDER_SIZES}
        return lambda n, sink: by_n[n](n, sink)

    def per_step_enumerate(original):
        return lambda n: tracer.iterate("bits.enumerate", original(n))

    swaps = [
        (bits, "next_unchecked", span("bits.next_unchecked")),
        (cli, "next_unchecked", span("bits.next_unchecked")),
        (cli, "enumerate_words", per_step_enumerate),
        (cli, "format_value", per_word_format),
        (cli, "cmd_enum", span("cli.cmd_enum")),
        (cli, "build_parser", span("cli.build_parser")),
        (cli, "parse_window", span("cli.parse_window")),
        (cli, "diagnose_window", span("cli.diagnose_window")),
        (cli, "catalan", span("analysis.catalan")),
        (paths, "catalan", span("analysis.catalan")),
        (cli, "render_grid", per_size_render),
        (paths, "to_path", span("paths.to_path")),
        (strings, "is_dyck_text", span("strings.is_dyck_text")),
        (strings, "next_in_place", span("strings.next_in_place")),
    ]
    saved = []
    try:
        for module, attr, replace in swaps:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, replace(original))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def run_main(argv, main) -> tuple[int, str, str, bool]:
    """One in-process CLI call: exit code, stdout, stderr, traceback seen."""
    out, err = io.StringIO(), io.StringIO()
    traceback = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse reports its own errors this way
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # an uncaught exception is a traceback at the shell
            code, traceback = 1, True
    return code, out.getvalue(), err.getvalue(), traceback


def _median(row: dict, key: str = "durations") -> float:
    return float(statistics.median(row[key])) if row[key] else 0.0


# --- sections -------------------------------------------------------------


def enum_section(program: Program) -> tuple[dict, int, int, int]:
    """cmd_enum in-process on both pass kinds, and the same slices piped."""
    from dyckgen import cli

    words = sum(p.limit for p in ENUM_PASSES)
    failed = 0
    piped = 0.0
    for p in ENUM_PASSES:
        wall, _, _, stdout, code, stderr = run_enum_pass(program, p)
        piped += wall
        failed += check_enum_pass(p, stdout, code, stderr)

    def in_process(main) -> float:
        start = time.perf_counter()
        with open(os.devnull, "w") as sink, redirect_stdout(sink), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the n > 20 notice
            for p in ENUM_PASSES:
                main(p.argv)
        return time.perf_counter() - start

    untraced = in_process(cli.main)
    tracer = Tracer()
    with instrumented(tracer):
        traced = in_process(cli.main)
    spans = tracer.summary()
    per_word = {p.fmt: p.limit for p in ENUM_PASSES}
    metrics = {
        "bits.next_unchecked.ns": (_median(spans["bits.next_unchecked"]), "ns"),
        "bits.enumerate.self_ns_per_word": (spans["bits.enumerate"]["self"] / words, "ns"),
        "cli.format_value.bits.ns_per_word": (
            spans["cli.format_value.bits"]["total"] / per_word["bits"],
            "ns",
        ),
        "cli.format_value.parens.ns_per_word": (
            spans["cli.format_value.parens"]["total"] / per_word["parens"],
            "ns",
        ),
        "cli.cmd_enum.self_ns_per_word": (spans["cli.cmd_enum"]["self"] / words, "ns"),
        "enum.residual_ns_per_word": ((piped - untraced) / words * 1e9, "ns"),
        "trace.overhead.enum_ns_per_word": ((traced - untraced) / words * 1e9, "ns"),
        "bits.next_unchecked.calls": (spans["bits.next_unchecked"]["calls"], "count"),
    }
    return metrics, words, failed, failed


def step_section(seed: int) -> tuple[dict, int, int, int]:
    """Library steps: the first TRACE_STEPS requests of the seeded mix."""
    prepared = prepare_steps(step_requests(seed, TRACE_STEPS))
    calls = library_calls()
    untraced: dict[int, int] = {}
    mismatches = step_batch(prepared, untraced, calls)
    tracer = Tracer()
    traced: dict[int, int] = {}
    with instrumented(tracer):
        wrapped = [
            tracer.wrap(name, fn)
            for name, fn in zip(
                ("bits.DyckWord", "bits.next_word", "strings.next_string"), calls
            )
        ]
        mismatches += step_batch(prepared, traced, wrapped)
    spans = tracer.summary()

    def mean(histogram):
        return sum(v * c for v, c in histogram.items()) / sum(histogram.values())

    metrics = {
        "bits.DyckWord.ns": (_median(spans["bits.DyckWord"]), "ns"),
        "bits.next_word.self_ns": (_median(spans["bits.next_word"], "selfs"), "ns"),
        "strings.next_string.ns": (_median(spans["strings.next_string"]), "ns"),
        "strings.is_dyck_text.ns": (_median(spans["strings.is_dyck_text"]), "ns"),
        "strings.next_in_place.ns": (_median(spans["strings.next_in_place"]), "ns"),
        "step.mismatches": (mismatches, "count"),
        "trace.overhead.step_ns": (mean(traced) - mean(untraced), "ns"),
        "bits.next_unchecked.calls": (spans["bits.next_unchecked"]["calls"], "count"),
    }
    return metrics, 2 * len(prepared), mismatches, mismatches


def cli_section(seed: int, scratch: Path) -> tuple[dict, int, int, int]:
    """In-process CLI calls: the first TRACE_REQUESTS of the seeded mix."""
    from dyckgen import cli

    requests = cli_requests(seed, TRACE_REQUESTS, str(scratch))

    def run_all(main):
        failed = wrong = tracebacks = 0
        codes = {code: 0 for code in range(4)}
        start = time.perf_counter()
        for request in requests:
            code, out, err, traceback = run_main(request.argv, main)
            codes[code] = codes.get(code, 0) + 1
            tracebacks += traceback
            if traceback or not check_cli(request, code, out, err):
                failed += 1
                wrong += not request.hostile
        return time.perf_counter() - start, failed, wrong, codes, tracebacks

    untraced, failed, wrong, _, _ = run_all(cli.main)
    tracer = Tracer()
    with instrumented(tracer):
        traced, traced_failed, traced_wrong, codes, tracebacks = run_all(
            tracer.wrap("cli.main", cli.main)
        )
    spans = tracer.summary()
    metrics = {
        "cli.build_parser.ms": (_median(spans["cli.build_parser"]) / 1e6, "ms"),
        "cli.parse.ns": (
            _median(spans["cli.parse_window"]) + _median(spans["cli.diagnose_window"]),
            "ns",
        ),
        "analysis.catalan.ns": (_median(spans["analysis.catalan"]), "ns"),
        "paths.to_path.ns": (_median(spans["paths.to_path"]), "ns"),
        "paths.tiles": (spans["paths.to_path"]["calls"], "count"),
        "cli.tracebacks": (tracebacks, "count"),
        "trace.overhead.cli_us_per_request": (
            (traced - untraced) / len(requests) * 1e6,
            "us",
        ),
        "bits.next_unchecked.calls": (spans["bits.next_unchecked"]["calls"], "count"),
    }
    for n in RENDER_SIZES:
        metrics[f"paths.render_grid.n{n}.ms"] = (
            _median(spans[f"paths.render_grid.n{n}"]) / 1e6,
            "ms",
        )
    for code in range(4):
        metrics[f"cli.exit.{code}"] = (codes.get(code, 0), "count")
    return metrics, 2 * len(requests), failed + traced_failed, wrong + traced_wrong


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")


def process_section(program: Program) -> dict:
    """Self import time of each dyckgen module and the bare interpreter."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for _ in range(SETUP_SPAWNS):
        proc = subprocess.run(
            program.command("-X", "importtime", "-c", "import dyckgen.cli"),
            cwd=program.root,
            env=program.env,
            capture_output=True,
            text=True,
            check=True,
        )
        for self_us, module in IMPORT_LINE.findall(proc.stderr):
            if module == "dyckgen" or module.startswith("dyckgen."):
                samples[module.removeprefix("dyckgen.")].append(int(self_us) / 1000)
    metrics = {
        f"process.import.{name}.ms": (statistics.median(values) if values else 0.0, "ms")
        for name, values in samples.items()
    }
    metrics["process.interpreter_ms"] = (interpreter_ms(program), "ms")
    return metrics


def traced_run(program: Program, seed: int, seconds: float, scratch: Path):
    """Repeat the traced suite once per TRACE_SECONDS of ``seconds``:
    medians of times, exact counts. The number of repetitions does not
    depend on the clock, so every run of a seed fails the same operations.

    Each section returns metrics, operations attempted, operations failed
    and failures on well-formed input. The result is the metrics, the
    totals, whether the run was correct (no well-formed failure and the
    same counts in every repetition) and the number of repetitions.
    """
    repetitions: list[dict] = []
    attempted = failed = wrong = 0
    for _ in range(max(1, round(seconds / TRACE_SECONDS))):
        combined: dict[str, tuple[float, str]] = {}
        calls = 0
        for metrics, ops, bad, bad_valid in (
            enum_section(program),
            step_section(seed),
            cli_section(seed, scratch),
        ):
            calls += metrics.pop("bits.next_unchecked.calls")[0]
            combined.update(metrics)
            attempted += ops
            failed += bad
            wrong += bad_valid
        combined["bits.next_unchecked.calls"] = (calls, "count")
        combined.update(process_section(program))
        repetitions.append(combined)
    first = repetitions[0]
    counts_repeat = all(
        rep[name] == first[name]
        for rep in repetitions
        for name in first
        if first[name][1] == "count"
    )
    metrics = {
        name: (
            first[name][0]
            if unit == "count"
            else statistics.median(rep[name][0] for rep in repetitions),
            unit,
        )
        for name, (_, unit) in first.items()
    }
    return metrics, attempted, failed, counts_repeat and wrong == 0, len(repetitions)
