import errno
import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyckgen.analysis import catalan
from dyckgen.bits import ENUMERATION_WARN_N, enumerate_words
from dyckgen.cli import CHUNK_WORDS, main
from dyckgen.oracle import brute_force_all


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports its own errors this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_bits(capsys):
    code, out, err = run_cli(["enum", "--n", "2", "--format", "bits"], capsys)
    assert (code, out) == (0, "1010\n1100\n")


def test_enum_int_with_limit(capsys):
    code, out, _ = run_cli(["enum", "--n", "4", "--format", "int", "--limit", "1"], capsys)
    assert (code, out) == (0, "170\n")


def test_enum_parens(capsys):
    code, out, _ = run_cli(["enum", "--n", "1", "--format", "parens"], capsys)
    assert (code, out) == (0, "()\n")


def test_enum_custom_symbols(capsys):
    code, out, _ = run_cli(["enum", "--n", "2", "--format", "custom:ab"], capsys)
    assert (code, out) == (0, "abab\naabb\n")


def test_enum_limit_zero(capsys):
    code, out, _ = run_cli(["enum", "--n", "3", "--limit", "0"], capsys)
    assert (code, out) == (0, "")


@pytest.mark.parametrize("n", ["0", "33", "-2"])
def test_enum_rejects_bad_sizes(n, capsys):
    code, out, err = run_cli(["enum", "--n", n], capsys)
    assert code == 2
    assert out == ""
    assert err != ""


def test_enum_output_has_no_trailing_whitespace(capsys):
    _, out, _ = run_cli(["enum", "--n", "3"], capsys)
    assert out.endswith("\n")
    for line in out.splitlines():
        assert line == line.strip()
    again = run_cli(["enum", "--n", "3"], capsys)[1]
    assert again == out  # stable across runs


def test_next_bits(capsys):
    assert run_cli(["next", "10111000"], capsys)[:2] == (0, "11001010\n")
    assert run_cli(["next", "1010"], capsys)[:2] == (0, "1100\n")


def test_next_int_format(capsys):
    assert run_cli(["next", "170", "--format", "int"], capsys)[:2] == (0, "172\n")


def test_next_at_maximum_prints_nothing(capsys):
    code, out, _ = run_cli(["next", "(())", "--format", "parens"], capsys)
    assert (code, out) == (1, "")


def test_next_rejects_garbage(capsys):
    assert run_cli(["next", "10x0"], capsys)[0] == 2
    assert run_cli(["next", "1001"], capsys)[0] == 2
    assert run_cli(["next", "", "--format", "int"], capsys)[0] == 2


def test_count(capsys):
    assert run_cli(["count", "--n", "4"], capsys)[:2] == (0, "14\n")
    assert run_cli(["count", "--n", "0"], capsys)[:2] == (0, "1\n")
    assert run_cli(["count", "--n", "14"], capsys)[:2] == (0, "2674440\n")


def test_count_range(capsys):
    assert run_cli(["count", "--n", "35"], capsys)[0] == 2
    assert run_cli(["count", "--n", "-1"], capsys)[0] == 2


def test_validate_valid(capsys):
    assert run_cli(["validate", "10101010"], capsys)[0] == 0


def test_validate_prefix_violation(capsys):
    code, _, err = run_cli(["validate", "1001"], capsys)
    assert code == 1
    assert "prefix violation at position 3" in err


def test_validate_unparseable(capsys):
    assert run_cli(["validate", "10x0"], capsys)[0] == 2


def test_validate_odd_length(capsys):
    code, _, err = run_cli(["validate", "101"], capsys)
    assert code == 1
    assert "odd length" in err


def test_validate_unbalanced(capsys):
    code, _, err = run_cli(["validate", "1011"], capsys)
    assert code == 1
    assert "unbalanced" in err


def test_validate_int_format(capsys):
    assert run_cli(["validate", "170", "--format", "int"], capsys)[0] == 0
    assert run_cli(["validate", "9", "--format", "int"], capsys)[0] == 1
    assert run_cli(["validate", "-4", "--format", "int"], capsys)[0] == 2


@pytest.mark.parametrize("command", ["next", "validate"])
@pytest.mark.parametrize(
    "word",
    [
        "\u00b2",  # superscript two: isdigit() holds, int() refuses it
        "\u0661\u0662",  # Arabic-Indic 12, a valid word if read as digits
        "\u0967\u096d\u0966",  # Devanagari 170
        "\uff11\uff17\uff10",  # full-width 170
        "1" * 5000,  # more digits than int() converts by default
    ],
    ids=["superscript", "arabic-indic", "devanagari", "full-width", "5000-digits"],
)
def test_int_format_takes_ascii_digits_only(command, word, capsys):
    code, out, err = run_cli([command, word, "--format", "int"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "grid.svg"
    code, out, err = run_cli(["render", "--n", "4", "-o", str(target)], capsys)
    assert code == 0
    assert "14" in err  # tile count goes to stderr
    data = target.read_bytes()
    assert data.startswith(b"<?xml")
    assert data.count(b'class="tile"') == 14


def test_render_guards_size(tmp_path, capsys):
    code, _, _ = run_cli(["render", "--n", "9", "-o", str(tmp_path / "x.svg")], capsys)
    assert code == 2


def test_render_io_failure(tmp_path, capsys):
    target = tmp_path / "missing" / "grid.svg"
    code, _, err = run_cli(["render", "--n", "2", "-o", str(target)], capsys)
    assert code == 3
    assert err != ""


class FullDisk:
    """A text stream on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_output_io_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullDisk())
    code = main(["enum", "--n", "3"])
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "No space left" in err


def test_oracle_subcommand_matches_brute_force(capsys):
    code, out, _ = run_cli(["oracle", "--n", "3", "--format", "int"], capsys)
    assert code == 0
    assert [int(line) for line in out.split()] == brute_force_all(3)


def test_oracle_subcommand_is_hidden(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "oracle" not in out
    assert "render" in out


def test_oracle_subcommand_rejects_large_n(capsys):
    assert run_cli(["oracle", "--n", "13"], capsys)[0] == 2


def test_unknown_format_is_rejected(capsys):
    assert run_cli(["enum", "--n", "2", "--format", "weird"], capsys)[0] == 2
    assert run_cli(["enum", "--n", "2", "--format", "custom:aa"], capsys)[0] == 2
    assert run_cli(["enum", "--n", "2", "--format", "custom:abc"], capsys)[0] == 2
    # Every character str.splitlines breaks on: a word must stay one line.
    for breaker in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        for symbols in ("a" + breaker, breaker + "a"):
            argv = ["enum", "--n", "2", "--format", f"custom:{symbols}"]
            assert run_cli(argv, capsys)[:2] == (2, "")


SRC = Path(__file__).resolve().parents[1] / "src"


def spawn(argv, env=None, preexec_fn=None):
    """A ``python -m dyckgen.cli`` child with piped stdout and stderr."""
    return subprocess.Popen(
        [sys.executable, "-m", "dyckgen.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})},
        preexec_fn=preexec_fn,
    )


ENCODINGS = ["ascii", "latin-1", "utf-8", "utf-8:surrogateescape"]
# ASCII, Latin-1 and Greek symbols, and two lone surrogates: the bytes
# 0xff and 0xfe of a command line that is not UTF-8.
SYMBOL_PAIRS = ["ab", "\u00e9\u00e8", "\u03b1\u03b2", "\udcff\udcfe"]


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("symbols", SYMBOL_PAIRS, ids=ascii)
def test_symbols_stdout_cannot_encode_exit_2(encoding, symbols):
    # An unencodable symbol is bad input: one error line, no output.
    try:
        symbols.encode(*encoding.split(":"))
        expected = 0
    except UnicodeEncodeError:
        expected = 2
    word = symbols * 2  # the smallest word of half-length 2
    for argv in (["enum", "--n", "2"], ["next", word]):
        argv += ["--format", f"custom:{symbols}"]
        child = spawn(argv, env={"PYTHONIOENCODING": encoding})
        out, err = child.communicate(timeout=60)
        assert child.returncode == expected, err
        assert b"Traceback" not in err
        if expected == 2:
            assert out == b""
            assert err.startswith(b"error:") and err.count(b"\n") == 1


def test_sigint_exits_130_without_a_traceback():
    # The child's SIGINT handler is Python's own even if this process
    # ignores the signal.
    reset = partial(signal.signal, signal.SIGINT, signal.SIG_DFL)
    child = spawn(["enum", "--n", "20"], preexec_fn=reset)
    try:
        assert child.stdout.read(1)  # enum is running and writing
        child.send_signal(signal.SIGINT)
        _, err = child.communicate(timeout=60)
        assert child.returncode == 130
        assert b"Traceback" not in err
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
        child.stderr.close()


def test_next_word_too_wide_for_the_bit_core(capsys):
    wide = "10" * 33  # valid Dyck text, but 66 bits
    assert run_cli(["next", wide], capsys)[0] == 2


def test_enum_then_next_round_trip(capsys):
    # Feeding each enum line back through `next` replays the sequence.
    for n in range(1, 7):
        code, out, _ = run_cli(["enum", "--n", str(n)], capsys)
        assert code == 0
        words = out.split()
        for current, expected in zip(words, words[1:]):
            code, out, _ = run_cli(["next", current], capsys)
            assert (code, out.strip()) == (0, expected)
        assert run_cli(["next", words[-1]], capsys)[:2] == (1, "")


FORMATS = ["bits", "parens", "int", "custom:ab"]
SYMBOLS = {"bits": "10", "parens": "()", "custom:ab": "ab"}


def rendered(n, fmt, limit=None):
    """enum's expected stdout, built one enumerate_words word at a time."""
    words = islice(enumerate_words(n), limit)
    if fmt == "int":
        return "".join(f"{word.value}\n" for word in words)
    table = str.maketrans("10", SYMBOLS[fmt])
    return "".join(word.bits.translate(table) + "\n" for word in words)


@pytest.mark.parametrize("limit", [None, 0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("fmt", FORMATS)
def test_enum_across_chunk_boundaries(fmt, n, limit, capsys):
    # n = 9 has 4,862 words and n = 10 has 16,796, so these limits land
    # on, just before and just after the boundaries of 4,096-line writes.
    argv = ["enum", "--n", str(n), "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == rendered(n, fmt, limit)


class Recorder:
    """A text stream that keeps every write, until its reader goes away."""

    def __init__(self, writes_before_close=None):
        self.writes = []
        self.left = writes_before_close

    def write(self, text):
        if self.left is not None:
            if self.left == 0:
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            self.left -= 1
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def run_into(stream, argv):
    """main's exit code and stderr, with stdout going to ``stream``."""
    err = io.StringIO()
    with redirect_stdout(stream), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_enum_writes_whole_chunks():
    sink = Recorder()
    assert run_into(sink, ["enum", "--n", "10"]) == (0, "")
    lines = [text.count("\n") for text in sink.writes]
    assert lines == [CHUNK_WORDS] * 4 + [catalan(10) - 4 * CHUNK_WORDS]
    assert "".join(sink.writes) == rendered(10, "bits")


def test_enum_into_a_pipe_closed_after_one_write():
    sink = Recorder(writes_before_close=1)
    assert run_into(sink, ["enum", "--n", "10", "--format", "parens"]) == (0, "")
    assert sink.writes == [rendered(10, "parens", CHUNK_WORDS)]


def test_enum_warns_only_for_huge_requests(capsys):
    code, out, err = run_cli(["enum", "--n", "21", "--limit", "1"], capsys)
    assert (code, out, err) == (0, "10" * 21 + "\n", "")
    bound = catalan(ENUMERATION_WARN_N)
    for limit, warned in ((bound, False), (bound + 1, True), (None, True)):
        argv = ["enum", "--n", "32"]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code, err = run_into(Recorder(writes_before_close=0), argv)
        assert code == 0
        if warned:
            assert err.startswith("warning: ") and err.count("\n") == 1
        else:
            assert err == ""


def exit_code(argv) -> int:
    """main's exit code with its output discarded; anything raised fails."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse reports its own errors this way
            return exc.code


# Any text, plus text made of digits from every script, which --format int
# must refuse unless every digit is ASCII.
WORDS = st.text() | st.text(st.characters(whitelist_categories=("Nd", "No")))


# The named formats, plus custom: specs with any two characters.
FORMAT_SPECS = st.sampled_from(FORMATS) | st.builds(
    "custom:{}{}".format, st.characters(), st.characters()
)


@given(command=st.sampled_from(["next", "validate"]), word=WORDS, fmt=FORMAT_SPECS)
def test_word_commands_end_with_a_contract_code(command, word, fmt):
    # Whatever the word, the CLI ends with a documented exit code and
    # never raises; --format int refuses anything but ASCII digits. A
    # word starting with '-' is argparse's to read, and '-h' asks for help.
    code = exit_code([command, word, "--format", fmt])
    assert code in (0, 1, 2)
    ascii_digits = word.isascii() and word.isdigit()
    if fmt == "int" and not word.startswith("-") and not ascii_digits:
        assert code == 2


@given(word=st.text(alphabet="01", max_size=16))
def test_validate_agrees_with_the_oracle(oracle_words, word):
    code = exit_code(["validate", word])
    if not word:
        assert code == 2
    else:
        valid = len(word) % 2 == 0 and int(word, 2) in oracle_words(len(word) // 2)
        assert code == (0 if valid else 1)
