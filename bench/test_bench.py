"""Tests of the benchmark itself: checkers, inputs and the printed metrics.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from inputs import (  # noqa: E402
    CLI_ROUND,
    CliRequest,
    cli_requests,
    enum_plan,
    step_requests,
)
from measure import check_cli  # noqa: E402
from reference import (  # noqa: E402
    PARENS_TO_BITS,
    catalan,
    check_complete_stream,
    check_prefix_stream,
    definition_next,
    definition_words,
    is_dyck_value,
    paper_next,
    random_window,
)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def stream(n: int, limit: int | None = None, parens: bool = False) -> list[bytes]:
    words = definition_words(n, catalan(n) if limit is None else limit)
    lines = [w.encode() for w in words]
    if parens:
        lines = [line.translate(bytes.maketrans(b"10", b"()")) for line in lines]
    return lines


def test_reference_successors_agree_with_each_other():
    for n in range(1, 9):
        words = definition_words(n, catalan(n) + 1)
        assert len(words) == catalan(n)
        for word, following in zip(words, words[1:]):
            assert int(following, 2) == paper_next(int(word, 2))
        assert definition_next(words[-1]) is None
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(1, 32)
        window = random_window(rng, n)
        assert is_dyck_value(int(window, 2), n)
        following = definition_next(window)
        if following is not None:
            assert int(following, 2) == paper_next(int(window, 2))


def test_dyck_checks_reject_non_words():
    for window in ("01", "1001", "1110", "100110", "1" * 31 + "0" * 31 + "01"):
        assert not is_dyck_value(int(window, 2), len(window) // 2)
    assert not is_dyck_value(0b1100, 1)  # bits above the window


@pytest.mark.parametrize("parens", [False, True])
def test_checkers_accept_a_good_stream(parens):
    translate = PARENS_TO_BITS if parens else None
    assert check_complete_stream(stream(6, parens=parens), 6, translate) == 0
    assert check_prefix_stream(stream(9, 500, parens), 9, 500, translate) == 0


def planted(lines: list[bytes], defect: str) -> list[bytes]:
    lines = list(lines)
    if defect == "swapped pair":
        lines[10], lines[11] = lines[11], lines[10]
    elif defect == "missing word":
        del lines[20]
    elif defect == "non-Dyck line":
        lines[30] = b"0" + lines[30][1:]
    return lines


@pytest.mark.parametrize("defect", ["swapped pair", "missing word", "non-Dyck line"])
def test_checkers_reject_a_planted_bad_stream(defect):
    assert check_complete_stream(planted(stream(6), defect), 6) > 0
    bad = planted(stream(9, 500, parens=True), defect)
    assert check_prefix_stream(bad, 9, 500, PARENS_TO_BITS) > 0


def test_prefix_checker_rejects_a_wrong_first_word():
    lines = stream(5, 10)
    assert check_prefix_stream(lines[1:], 5, 9) > 0


def test_cli_check_rejects_a_wrong_exit_code():
    request = CliRequest(("validate", "1001"), 1, "", hostile=True)
    assert check_cli(request, 1, "", "error: prefix violation at position 3\n")
    assert not check_cli(request, 2, "", "")
    assert not check_cli(request, 1, "", "Traceback (most recent call last):\n")
    request = CliRequest(("next", "1010"), 0, "1100\n")
    assert not check_cli(request, 0, "1010\n", "")


def test_a_different_seed_changes_the_inputs(tmp_path):
    assert step_requests(1, 200) == step_requests(1, 200)
    assert step_requests(1, 200) != step_requests(2, 200)
    assert cli_requests(1, 100, str(tmp_path)) != cli_requests(2, 100, str(tmp_path))
    assert len({enum_plan(seed) for seed in range(10)}) == 2


def test_cli_inputs_hold_the_same_hostile_shares_for_every_seed(tmp_path):
    for seed in range(5):
        requests = cli_requests(seed, 4 * CLI_ROUND, str(tmp_path))
        assert sum(r.hostile for r in requests) == 4 * 18
        # non-ASCII digits, the hostile kind the CLI is known to mishandle
        assert sum(not "".join(r.argv).isascii() for r in requests) == 4 * 2


def test_step_inputs_keep_their_shares():
    requests = step_requests(3, 1000)
    assert sum(r.symbols is None for r in requests) == 500
    assert {r.n for r in requests} == set(range(1, 33))
    maxima = 0
    for r in requests:
        one, zero = r.symbols or ("1", "0")
        top = one * r.n + zero * r.n
        is_max = r.word == (int(top, 2) if r.symbols is None else top)
        assert (r.expected is None) == is_max  # None only at the maximum
        maxima += is_max
    assert maxima >= 10  # the fixed 1 % share, plus n = 1 and other small n


def run_bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_the_spec(workload):
    result = run_bench(workload, 1, 0.1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1


def test_traced_metrics_match_the_spec_for_any_seed():
    first = run_bench("step-random", 1, 0.1, 1)
    second = run_bench("step-random", 2, 0.1, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert set(second["metrics"]) == set(first["metrics"])
    assert first["correct"] and second["correct"]


def test_step_metrics_do_not_depend_on_the_seed():
    assert set(run_bench("step-random", 5, 0.1, 0)["metrics"]) == set(
        run_bench("step-random", 6, 0.1, 0)["metrics"]
    )
