"""Seeded inputs for the three workloads.

The same seed always gives the same inputs. Request kinds are laid out
in fixed-proportion blocks, shuffled per block, so that two seeds differ
in which words and sizes they use but not in the share of each kind;
that keeps percentiles comparable from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import (
    FORMATS,
    catalan,
    definition_next,
    definition_words,
    max_window,
    random_window,
    render_word,
)

MAX_N = 32
STEP_BLOCK = 100  # one maximum word per block: the fixed 1 % share
STRING_ALPHABETS = (("1", "0"), ("(", ")"), ("a", "b"))


@dataclass(frozen=True)
class EnumPass:
    """One ``dyckgen enum`` process and how its stream is checked."""

    n: int
    fmt: str
    limit: int | None  # None: the complete run, checked against Catalan(n)

    @property
    def argv(self) -> list[str]:
        args = ["enum", "--n", str(self.n), "--format", self.fmt]
        if self.limit is not None:
            args += ["--limit", str(self.limit)]
        return args

    @property
    def words(self) -> int:
        return catalan(self.n) if self.limit is None else self.limit


COMPLETE_PASS = EnumPass(13, "bits", None)
PREFIX_PASS = EnumPass(24, "parens", catalan(13))


def enum_plan(seed: int) -> tuple[EnumPass, EnumPass]:
    """The two passes of one enum-stream round, in a seeded order."""
    if random.Random(seed).random() < 0.5:
        return COMPLETE_PASS, PREFIX_PASS
    return PREFIX_PASS, COMPLETE_PASS


@dataclass(frozen=True)
class StepRequest:
    """One library call: ``next_word`` on an int or ``next_string`` on text.

    ``symbols`` is None for the int form. ``expected`` is the successor's
    value (int form) or text (string form), None at the maximum word.
    """

    word: int | str
    n: int
    symbols: tuple[str, str] | None
    expected: int | str | None


def step_requests(seed: int, count: int) -> list[StepRequest]:
    """``count`` requests: n uniform on 1..32, words uniform per n."""
    rng = random.Random(seed)
    requests = []
    while len(requests) < count:
        block = [None] * (STEP_BLOCK // 2) + [
            STRING_ALPHABETS[i % len(STRING_ALPHABETS)]
            for i in range(STEP_BLOCK // 2)
        ]
        rng.shuffle(block)
        maximum_at = rng.randrange(STEP_BLOCK)
        for i, symbols in enumerate(block):
            n = rng.randint(1, MAX_N)
            window = max_window(n) if i == maximum_at else random_window(rng, n)
            successor = definition_next(window)
            if symbols is None:
                requests.append(
                    StepRequest(
                        int(window, 2),
                        n,
                        None,
                        None if successor is None else int(successor, 2),
                    )
                )
            else:
                table = str.maketrans("10", "".join(symbols))
                requests.append(
                    StepRequest(
                        window.translate(table),
                        n,
                        symbols,
                        None if successor is None else successor.translate(table),
                    )
                )
    return requests[:count]


@dataclass(frozen=True)
class CliRequest:
    """One ``dyckgen`` invocation and the outcome the definition predicts.

    ``render_n`` names the grid size whose SVG must appear in the output
    file; ``hostile`` marks input that the CLI must refuse.
    """

    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    render_n: int | None = None
    hostile: bool = False


# Per block of 20 requests: 14 well-formed, 6 hostile. Hostile kinds are
# dealt from a shuffled deck, so a round of CLI_ROUND requests holds every
# hostile kind exactly twice and every seed fails the same number of them.
CLI_ROUND = 60
CLI_BLOCK = (
    ["next"] * 3
    + ["validate"] * 3
    + ["count"] * 2
    + ["enum"] * 2
    + ["render"] * 2
    + ["next_max"] * 2
    + ["hostile"] * 6
)
HOSTILE_KINDS = (
    "wrong_symbol",
    "odd_length",
    "prefix_violation",
    "unbalanced",
    "unicode_digits",
    "count_range",
    "enum_range",
    "render_range",
    "render_unwritable",
)
# str.isdigit() holds for all of these, yet none is an ASCII digit, so
# --format int must refuse them. Superscripts do not even convert with int().
UNICODE_DIGITS = (
    "⁰¹²³⁴⁵⁶⁷⁸⁹",
    "٠١٢٣٤٥٦٧٨٩",
    "०१२३४५६७८९",
    "０１２３４５６７８９",
)


def _word_request(command: str, window: str, fmt: str) -> CliRequest:
    argv = (command, render_word(window, fmt), "--format", fmt)
    if command == "validate":
        return CliRequest(argv, 0, "")
    successor = definition_next(window)
    if successor is None:
        return CliRequest(argv, 1, "")
    return CliRequest(argv, 0, render_word(successor, fmt) + "\n")


def _bad_word_request(rng: random.Random, kind: str) -> CliRequest:
    command = rng.choice(("next", "validate"))
    fmt = rng.choice(FORMATS)
    n = rng.randint(2, MAX_N)
    if kind == "wrong_symbol":
        text = render_word(random_window(rng, n), fmt)
        i = rng.randrange(len(text))
        text = text[:i] + "x" + text[i + 1 :]
        return CliRequest((command, text, "--format", fmt), 2, "", hostile=True)
    if kind == "unicode_digits":
        digits = rng.choice(UNICODE_DIGITS)
        text = render_word(random_window(rng, n), "int")
        text = text.translate(str.maketrans("0123456789", digits))
        return CliRequest((command, text, "--format", "int"), 2, "", hostile=True)
    if kind == "odd_length":
        window = random_window(rng, n)[:-1]
    elif kind == "prefix_violation":
        window = "1001" + random_window(rng, n - 2)  # zeros lead at position 3
    else:  # unbalanced: every prefix holds, two opens too many
        window = random_window(rng, n - 1) + "11"
    # Parsing succeeds, validation fails: next refuses with 2, validate
    # reports an invalid word with 1.
    code = 2 if command == "next" else 1
    return CliRequest(
        (command, render_word(window, fmt), "--format", fmt), code, "", hostile=True
    )


def _hostile_request(rng: random.Random, kind: str, scratch: str) -> CliRequest:
    if kind == "count_range":
        n = rng.choice((-1, 35, 40))
        return CliRequest(("count", "--n", str(n)), 2, "", hostile=True)
    if kind == "enum_range":
        argv = rng.choice(
            (
                ("enum", "--n", "0"),
                ("enum", "--n", "33"),
                ("enum", "--n", "5", "--limit", "-1"),
                ("enum", "--n", "five"),
            )
        )
        return CliRequest(argv, 2, "", hostile=True)
    if kind == "render_range":
        n = rng.choice((0, 9))
        out = f"{scratch}/out.svg"
        return CliRequest(("render", "--n", str(n), "-o", out), 2, "", hostile=True)
    if kind == "render_unwritable":
        # The output path is a directory, so opening it for writing fails.
        return CliRequest(("render", "--n", "3", "-o", scratch), 3, "", hostile=True)
    return _bad_word_request(rng, kind)


def cli_requests(seed: int, count: int, scratch: str) -> list[CliRequest]:
    """``count`` requests over all four formats, 30 % of them hostile.

    ``scratch`` is a directory the render requests may write into.
    """
    rng = random.Random(seed)
    render_sizes: list[int] = []
    hostile_kinds: list[str] = []
    requests = []
    while len(requests) < count:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for kind in block:
            fmt = rng.choice(FORMATS)
            if kind in ("next", "validate"):
                n = rng.randint(1, MAX_N)
                requests.append(_word_request(kind, random_window(rng, n), fmt))
            elif kind == "next_max":
                n = rng.randint(1, MAX_N)
                requests.append(_word_request("next", max_window(n), fmt))
            elif kind == "count":
                n = rng.randint(0, 34)
                requests.append(
                    CliRequest(("count", "--n", str(n)), 0, f"{catalan(n)}\n")
                )
            elif kind == "enum":
                n = rng.randint(1, MAX_N)
                limit = rng.randint(0, 100)
                words = definition_words(n, limit)
                stdout = "".join(render_word(w, fmt) + "\n" for w in words)
                requests.append(
                    CliRequest(
                        ("enum", "--n", str(n), "--format", fmt, "--limit", str(limit)),
                        0,
                        stdout,
                    )
                )
            elif kind == "render":
                if not render_sizes:  # every size once per eight renders
                    render_sizes = list(range(1, 9))
                    rng.shuffle(render_sizes)
                n = render_sizes.pop()
                out = f"{scratch}/render_{len(requests)}.svg"
                requests.append(
                    CliRequest(("render", "--n", str(n), "-o", out), 0, "", render_n=n)
                )
            else:
                if not hostile_kinds:  # every kind once per nine hostile requests
                    hostile_kinds = list(HOSTILE_KINDS)
                    rng.shuffle(hostile_kinds)
                requests.append(_hostile_request(rng, hostile_kinds.pop(), scratch))
    return requests[:count]
