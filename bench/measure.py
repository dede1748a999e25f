"""Untraced runs of the three workloads, plus the environment record.

Every workload is a closed loop with one caller: the next request goes
out only after the previous one has returned. Output checks run between
requests, outside the timed intervals, and count failures instead of
raising them.

The machine it was tuned on (a shared 2-core 2.1 GHz Xeon VM) is noisy:
a fixed pure-Python loop ran up to 1.6x slower in some stretches than in
others, in phases lasting from seconds to minutes, and every workload
slowed with it, so run-to-run spread of raw times was 20-35 %. Each
timed interval is therefore paired with ``pace`` samples of that loop
taken next to it (for a child process: on the other core while the
child runs), and the end-to-end figures are scaled to the loop's nominal
speed. The raw figures and the measured slowness go into the report
line.
"""

from __future__ import annotations

import fcntl
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from inputs import (
    CLI_ROUND,
    COMPLETE_PASS,
    CliRequest,
    EnumPass,
    cli_requests,
    enum_plan,
    step_requests,
)
from reference import PARENS_TO_BITS, catalan, check_complete_stream, check_prefix_stream

SETUP_SPAWNS = 11  # set-up is timed this many times per run; the median counts
CHUNK_WORDS = 10_000  # enum-stream latency samples cover at least this many words
PIPE_BYTES = 1 << 20
POLL_S = 0.005
ENUM_TAIL = 95
STEP_POOL = 20_000
STEP_BATCH = 1_000  # the clock is read for the deadline once per batch
STEP_TAIL = 99
CLI_PER_SECOND = 10  # requests per second asked for; about 90 ms each here
CLI_TAIL = 95
PACE_LOOP = 10_000
PACE_NOMINAL_NS = 400_000  # PACE_LOOP iterations on a quiet 2.1 GHz Xeon VM
PACE_REACH = 25  # pace samples on each side that scale an enum stretch


@dataclass(frozen=True)
class Program:
    """The code under test: a source tree and an interpreter to run it."""

    root: Path

    @property
    def env(self) -> dict[str, str]:
        return {**os.environ, "PYTHONPATH": str(self.root / "src")}

    def command(self, *args: str) -> list[str]:
        return [sys.executable, *args]

    def cli(self, *args: str) -> list[str]:
        return self.command("-m", "dyckgen.cli", *args)

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen(argv, cwd=self.root, env=self.env, **kwargs)


@dataclass
class Outcome:
    """What one workload run measured and how many operations failed."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    report: dict


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of already sorted values."""
    if len(values) == 1:
        return values[0]
    position = (len(values) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def histogram_percentile(histogram: dict[int, int], q: float) -> float:
    """Nearest-rank percentile of a value -> count histogram."""
    total = sum(histogram.values())
    rank = max(1, -(-total * q // 100))
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return float(value)
    raise ValueError("empty histogram")


def tail_percentile(samples: int, wanted: float) -> float:
    """``wanted``, or the highest percentile with ten samples beyond it."""
    if samples * (100 - wanted) / 100 >= 10:
        return wanted
    return max(0.0, float(int(100 * (samples - 10) / samples)))


def pace() -> int:
    """Nanoseconds for a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(PACE_LOOP):
        total += i
    return time.perf_counter_ns() - start


def slowness(samples) -> float:
    """How many times slower than nominal the machine ran over ``samples``."""
    return statistics.median(samples) / PACE_NOMINAL_NS


def time_to_first_output(program: Program, argv: list[str]) -> float:
    """Seconds from spawning ``argv`` to its first byte on stdout."""
    start = time.perf_counter()
    proc = program.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        if not os.read(proc.stdout.fileno(), 1 << 16):
            raise RuntimeError(f"no output from {argv}")
        return time.perf_counter() - start
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def median_setup(program: Program, argv: list[str]) -> tuple[float, float]:
    """Median set-up seconds of SETUP_SPAWNS spawns: paced, then raw."""
    paced = []
    raw = []
    before = pace()
    for _ in range(SETUP_SPAWNS):
        seconds = time_to_first_output(program, argv)
        after = pace()
        raw.append(seconds)
        paced.append(seconds / slowness((before, after)))
        before = after
    return statistics.median(paced), statistics.median(raw)


def interpreter_ms(program: Program) -> float:
    """Median wall time of a bare ``python -c pass``, in milliseconds."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run(program.command("-c", "pass"), cwd=program.root, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def machine_load() -> dict:
    """Load averages and (steal, all) CPU ticks, read from /proc."""
    load = {"loadavg": None, "ticks": None}
    try:
        load["loadavg"] = Path("/proc/loadavg").read_text().split()[:3]
        with open("/proc/stat") as stat:
            ticks = [int(x) for x in stat.readline().split()[1:]]
        load["ticks"] = (ticks[7] if len(ticks) > 7 else 0, sum(ticks))
    except OSError:
        pass
    return load


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(program: Program, seed: int, before: dict) -> dict:
    """The record printed with every result; ``before`` is the load at start."""
    after = machine_load()
    steal = None
    if before["ticks"] and after["ticks"] and after["ticks"][1] > before["ticks"][1]:
        steal = (after["ticks"][0] - before["ticks"][0]) / (
            after["ticks"][1] - before["ticks"][1]
        )
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg": before["loadavg"],
        "steal_share": steal,
        "commit": git_commit(program.root),
        "seed": seed,
        "process.interpreter_ms": interpreter_ms(program),
    }


# --- enum-stream ----------------------------------------------------------


def run_enum_pass(program: Program, plan: EnumPass):
    """One enum process: wall s, slowness, paced µs/word samples, stdout,
    exit code, stderr.

    The pipe is drained every POLL_S through a PIPE_BYTES buffer, so the
    producer never waits for the reader. A reader that blocks on every
    write wakes once per 8 KiB; on a 2-core machine that ping-pong doubled
    pass times and their spread. Between reads the reader takes a pace
    sample on its own core.
    """
    read_end, write_end = os.pipe()
    try:
        fcntl.fcntl(write_end, getattr(fcntl, "F_SETPIPE_SZ", 1031), PIPE_BYTES)
    except OSError:
        pass  # a smaller pipe only makes the producer wait more often
    start = time.perf_counter()
    proc = program.spawn(program.cli(*plan.argv), stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    chunks = []
    marks = []
    paces = []
    try:
        while True:
            paces.append(pace())
            time.sleep(POLL_S)
            block = os.read(read_end, PIPE_BYTES)
            if not block:
                break
            marks.append((time.perf_counter(), block.count(b"\n"), len(paces)))
            chunks.append(block)
        stderr = proc.stderr.read()
        code = proc.wait()
        wall = time.perf_counter() - start
    finally:
        os.close(read_end)
        proc.kill()
        proc.wait()
        proc.stderr.close()

    # A stretch (about 30 ms) spans too few pace samples to scale it by
    # itself, so it is scaled by those within PACE_REACH samples of it.
    samples = []
    if marks:
        since, words, first = marks[0][0], 0, marks[0][2]
        for when, lines, last in marks[1:]:  # the first read has no start time
            words += lines
            if words >= CHUNK_WORDS:
                nearby = paces[max(0, first - PACE_REACH) : last + PACE_REACH]
                samples.append((when - since) / words * 1e6 / slowness(nearby))
                since, words, first = when, 0, last
    return wall, slowness(paces), samples, b"".join(chunks), code, stderr


def check_enum_pass(plan: EnumPass, stdout: bytes, code: int, stderr: bytes) -> int:
    lines = stdout.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    translate = PARENS_TO_BITS if plan.fmt == "parens" else None
    if plan.limit is None:
        failures = check_complete_stream(lines, plan.n, translate)
    else:
        failures = check_prefix_stream(lines, plan.n, plan.limit, translate)
    return failures + (code != 0) + (b"Traceback" in stderr)


def enum_stream(program: Program, seed: int, seconds: float) -> Outcome:
    plan = enum_plan(seed)
    setup, raw_setup = median_setup(program, program.cli(*COMPLETE_PASS.argv))
    failed = 0
    walls: dict[str, list[float]] = {p.fmt: [] for p in plan}
    paced: dict[str, list[float]] = {p.fmt: [] for p in plan}
    samples: dict[str, list[float]] = {p.fmt: [] for p in plan}
    rounds = 0
    # Only the passes count towards ``seconds``: the checks between them
    # are not measured, and every pass taken steadies the medians.
    while rounds == 0 or sum(map(sum, walls.values())) < seconds:
        for p in plan:
            wall, slow, pass_samples, stdout, code, stderr = run_enum_pass(program, p)
            walls[p.fmt].append(wall)
            paced[p.fmt].append(wall / slow)
            samples[p.fmt] += pass_samples
            failed += check_enum_pass(p, stdout, code, stderr)
            del stdout
        rounds += 1
    # A typical round: the median pass of each kind, so one disturbed pass
    # does not move the figure.
    words = sum(p.words for p in plan)
    round_wall = sum(statistics.median(w) for w in paced.values())
    raw_round_wall = sum(statistics.median(w) for w in walls.values())
    p50 = []
    tail = []
    for values in samples.values():
        values.sort()
        p50.append(percentile(values, 50))
        tail.append(percentile(values, tail_percentile(len(values), ENUM_TAIL)))
    return Outcome(
        metrics={
            "ops_per_s": (words / round_wall, "1/s"),
            "op_p50_us": (statistics.fmean(p50), "us"),
            "op_tail_us": (statistics.fmean(tail), "us"),
            "setup_s": (setup, "s"),
        },
        attempted=words * rounds,
        failed=failed,
        correct=failed == 0,
        report={
            "operation": "word",
            "rounds": rounds,
            "pass_walls_s": walls,
            "latency_samples": {k: len(v) for k, v in samples.items()},
            "latency_sample": f"us per word over >= {CHUNK_WORDS} words",
            "tail_percentile": ENUM_TAIL,
            "raw": {"ops_per_s": words / raw_round_wall, "setup_s": raw_setup},
            "slowness": raw_round_wall / round_wall,
        },
    )


# --- step-random ----------------------------------------------------------


def step_setup_code(first) -> str:
    """A fresh interpreter's first library call: import, step, print."""
    if first.symbols is None:
        call = f"next_word(DyckWord({first.word!r}, {first.n!r}))"
    else:
        call = f"next_string({first.word!r}, SymbolPair(*{first.symbols!r}))"
    return (
        "from dyckgen.bits import DyckWord, next_word\n"
        "from dyckgen.strings import SymbolPair, next_string\n"
        f"print({call})\n"
    )


def prepare_steps(requests):
    from dyckgen.strings import SymbolPair

    return [
        (r.word, r.n, None if r.symbols is None else SymbolPair(*r.symbols), r.expected)
        for r in requests
    ]


def library_calls():
    """The three public entry points a step request goes through."""
    from dyckgen.bits import DyckWord, next_word
    from dyckgen.strings import next_string

    return DyckWord, next_word, next_string


def step_batch(batch, histogram: dict[int, int], calls) -> int:
    """Time each request of ``batch`` into ``histogram``; return mismatches."""
    make, advance_word, advance_string = calls
    clock = time.perf_counter_ns
    mismatches = 0
    for word, n, symbols, expected in batch:
        try:
            if symbols is None:
                start = clock()
                result = advance_word(make(word, n))
                end = clock()
                if result is not None:
                    result = result.value if result.n == n else -1
            else:
                start = clock()
                result = advance_string(word, symbols)
                end = clock()
        except Exception:  # a raise on a valid word is a failed step
            mismatches += 1
            continue
        elapsed = end - start
        histogram[elapsed] = histogram.get(elapsed, 0) + 1
        if result != expected:
            mismatches += 1
    return mismatches


def step_random(program: Program, seed: int, seconds: float) -> Outcome:
    requests = step_requests(seed, STEP_POOL)
    code = step_setup_code(requests[0])
    setup, raw_setup = median_setup(program, program.command("-c", code))
    prepared = prepare_steps(requests)
    calls = library_calls()
    step_batch(prepared[:STEP_BATCH], {}, calls)  # warm-up, untimed
    histogram: dict[int, int] = {}  # paced ns -> count
    raw_busy_ns = 0
    failed = 0
    attempted = 0
    before = pace()
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        offset = attempted % len(prepared)
        batch = prepared[offset : offset + STEP_BATCH]
        raw: dict[int, int] = {}
        failed += step_batch(batch, raw, calls)
        attempted += len(batch)
        after = pace()
        slow = slowness((before, after))
        before = after
        for elapsed, count in raw.items():
            key = round(elapsed / slow)
            histogram[key] = histogram.get(key, 0) + count
            raw_busy_ns += elapsed * count
    timed = sum(histogram.values())
    busy_ns = sum(value * count for value, count in histogram.items())
    return Outcome(
        metrics={
            "ops_per_s": (timed / busy_ns * 1e9, "1/s"),
            "op_p50_us": (histogram_percentile(histogram, 50) / 1000, "us"),
            "op_tail_us": (histogram_percentile(histogram, STEP_TAIL) / 1000, "us"),
            "setup_s": (setup, "s"),
        },
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
        report={
            "operation": "library step",
            "latency_samples": timed,
            "tail_percentile": STEP_TAIL,
            "raw": {"ops_per_s": timed / raw_busy_ns * 1e9, "setup_s": raw_setup},
            "slowness": raw_busy_ns / busy_ns,
        },
    )


# --- cli-oneshot ----------------------------------------------------------


def check_cli(request: CliRequest, code: int, stdout: str, stderr: str) -> bool:
    """True when one invocation matches what the definition predicts."""
    ok = (
        code == request.exit_code
        and stdout == request.stdout
        and "Traceback" not in stderr
    )
    if request.render_n is not None:
        path = Path(request.argv[-1])
        try:
            svg = path.read_bytes()
            path.unlink()
        except OSError:
            return False
        ok = ok and svg.startswith(b"<?xml") and svg.count(
            b'<g class="tile"'
        ) == catalan(request.render_n)
    return ok


def cli_request_count(seconds: float) -> int:
    """Whole rounds of about CLI_PER_SECOND requests per second.

    The count depends on ``seconds`` only, not on the clock, so every run
    of a seed makes the same requests and fails the same ones.
    """
    return CLI_ROUND * max(1, round(seconds * CLI_PER_SECOND / CLI_ROUND))


def cli_oneshot(program: Program, seed: int, seconds: float, scratch: Path) -> Outcome:
    requests = cli_requests(seed, cli_request_count(seconds), str(scratch))
    setup, raw_setup = median_setup(program, program.cli("count", "--n", "13"))
    latencies = []
    raw_latencies = []
    failed = 0
    failed_hostile = 0
    before = pace()
    for request in requests:
        began = time.perf_counter()
        proc = subprocess.run(
            program.cli(*request.argv),
            cwd=program.root,
            env=program.env,
            capture_output=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - began
        after = pace()
        raw_latencies.append(elapsed)
        latencies.append(elapsed / slowness((before, after)))
        before = after
        out = proc.stdout.decode("utf-8", "replace")
        err = proc.stderr.decode("utf-8", "replace")
        if not check_cli(request, proc.returncode, out, err):
            failed += 1
            failed_hostile += request.hostile
    latencies.sort()
    tail = tail_percentile(len(latencies), CLI_TAIL)
    return Outcome(
        metrics={
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_us": (percentile(latencies, 50) * 1e6, "us"),
            "op_tail_us": (percentile(latencies, tail) * 1e6, "us"),
            "setup_s": (setup, "s"),
        },
        attempted=len(latencies),
        failed=failed,
        # Refusing hostile input wrongly breaks the exit-code contract and
        # counts as failed; a wrong answer to a well-formed request is
        # wrong output.
        correct=failed == failed_hostile,
        report={
            "operation": "process",
            "latency_samples": len(latencies),
            "tail_percentile": tail,
            "failed_hostile": failed_hostile,
            "raw": {
                "ops_per_s": len(raw_latencies) / sum(raw_latencies),
                "setup_s": raw_setup,
            },
            "slowness": sum(raw_latencies) / sum(latencies),
        },
    )
