"""Command line surface: enumerate, advance, validate, count and render.

Each command is a thin call into the library; the library's checks are
the only checks. Exit codes are part of the contract: 0 success, 1 "no
result" (a maximal word for ``next``, an invalid word for ``validate``),
2 bad arguments or any input the library refuses (symbols stdout cannot
encode included), 3 output I/O failure, 130 interrupted by SIGINT
(Ctrl-C). A refusal is one ``error:`` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import Iterable

from .analysis import catalan
from .bits import DyckWord, next_word, walk_values
from .oracle import brute_force_all
from .paths import check_grid_size, render_grid
from .strings import BITS, PARENS, SymbolPair, first_violation

MAX_COUNT_N = 34  # documented cap so scripted callers fit results in 64 bits
ENUMERATION_WARN_N = 20  # enum warns past Catalan(20), ~6.6e9 words
CHUNK_WORDS = 4096  # lines formatted and written per stdout write

PUBLIC_COMMANDS = "{enum,next,count,validate,render}"
NAMED_FORMATS = {"bits": BITS, "parens": PARENS, "int": None}


def parse_format(spec: str) -> SymbolPair | None:
    """Parse a --format value: bits | parens | int | custom:<one><zero>.

    A symbol format is its ``SymbolPair``; ``int`` is None. Symbols that
    break a line are refused, since every word must stay on one line.
    Refusals are ``ArgumentTypeError`` so argparse shows their message.
    """
    if spec in NAMED_FORMATS:
        return NAMED_FORMATS[spec]
    if not spec.startswith("custom:"):
        raise argparse.ArgumentTypeError(f"unknown format {spec!r}")
    symbols = spec[len("custom:") :]
    if len(symbols) != 2:
        raise argparse.ArgumentTypeError(
            f"custom format needs exactly two symbols, got {symbols!r}"
        )
    if symbols.splitlines() != [symbols]:
        raise argparse.ArgumentTypeError(
            f"custom symbols must not break lines: {symbols!r}"
        )
    try:
        return SymbolPair(*symbols)
    except ValueError as exc:  # the same symbol twice
        raise argparse.ArgumentTypeError(str(exc)) from None


def write_words(values: Iterable[int], fmt: SymbolPair | None) -> None:
    """Write each value on its own line of stdout in ``fmt``.

    Lines go out CHUNK_WORDS at a time: one ``str.format`` call, one
    symbol translation and one ``write`` per chunk. The values must be
    Dyck words; their top window bit is set, so the unpadded binary form
    already is the full 2n-bit window.
    """
    if fmt is None:
        line, encode = "{}\n", None
    else:
        line = "{:b}\n"
        encode = None if fmt is BITS else fmt.encode
    write = sys.stdout.write
    values = iter(values)
    while chunk := tuple(islice(values, CHUNK_WORDS)):
        text = (line * len(chunk)).format(*chunk)
        write(text if encode is None else encode(text))


def parse_window(text: str, fmt: SymbolPair | None) -> str:
    """Turn input text into an explicit '1'/'0' window.

    Raises ValueError when the text is not well formed under the format:
    a foreign symbol, or for ``int`` anything but ASCII digits. The window
    may still fail validation (odd length, prefix violations); that is the
    caller's concern.
    """
    if not text:
        raise ValueError("empty word")
    if fmt is not None:
        return fmt.decode(text)
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an unsigned decimal integer: {text!r}")
    try:
        value = int(text)
    except ValueError:  # past the interpreter's digit limit for int()
        raise ValueError(f"integer too long: {len(text)} digits") from None
    # Minimal window: a valid word always has its top window bit set,
    # so any leading-zero reading would fail validation anyway.
    return format(value, "b") if value else "0"


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_enum(args: argparse.Namespace) -> int:
    values = walk_values(args.n)  # refuses n outside 1..32 before any output
    if args.limit is not None and args.limit < 0:
        return _fail(f"--limit must be nonnegative, got {args.limit}", 2)
    if args.n > ENUMERATION_WARN_N:  # below it, no request exceeds the bound
        words = catalan(args.n)
        if args.limit is not None:
            words = min(words, args.limit)
        if words > catalan(ENUMERATION_WARN_N):
            print(
                f"warning: enumerating {words:,} words; "
                "expect this to run for hours or longer",
                file=sys.stderr,
            )
    if args.limit is not None:
        values = islice(values, args.limit)
    write_words(values, args.format)
    return 0


def cmd_next(args: argparse.Namespace) -> int:
    word = next_word(DyckWord.from_bits(parse_window(args.word, args.format)))
    if word is None:
        return 1  # maximal word: nothing to print, like the string clear
    write_words([word.value], args.format)
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if not 0 <= args.n <= MAX_COUNT_N:
        return _fail(f"--n must be in 0..{MAX_COUNT_N}, got {args.n}", 2)
    print(catalan(args.n))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostic = first_violation(parse_window(args.word, args.format))
    return 0 if diagnostic is None else _fail(diagnostic, 1)


def cmd_render(args: argparse.Namespace) -> int:
    check_grid_size(args.n)  # before -o is opened: a refused size makes no file
    with open(args.output, "wb") as sink:
        render_grid(args.n, sink)
    print(catalan(args.n), file=sys.stderr)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    # Hidden debugging aid: the brute-force reference list.
    write_words(brute_force_all(args.n), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckgen",
        description="Generate Dyck words of a fixed size in increasing order.",
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar=PUBLIC_COMMANDS
    )

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            type=parse_format,
            default=parse_format("bits"),
            help="bits | parens | int | custom:<one><zero> (default: bits)",
        )

    enum = commands.add_parser(
        "enum", help="print all words of half-length N in increasing order"
    )
    enum.add_argument("--n", type=int, required=True, help="half-length, 1..32")
    add_format(enum)
    enum.add_argument("--limit", type=int, help="stop after this many words")
    enum.set_defaults(handler=cmd_enum)

    nxt = commands.add_parser(
        "next", help="print the successor of WORD, or exit 1 at the maximum"
    )
    nxt.add_argument("word")
    add_format(nxt)
    nxt.set_defaults(handler=cmd_next)

    count = commands.add_parser(
        "count", help="print the number of words of half-length N"
    )
    count.add_argument("--n", type=int, required=True, help="half-length, 0..34")
    count.set_defaults(handler=cmd_count)

    validate = commands.add_parser(
        "validate", help="exit 0 iff WORD is a Dyck word (1 invalid, 2 unparseable)"
    )
    validate.add_argument("word")
    add_format(validate)
    validate.set_defaults(handler=cmd_validate)

    render = commands.add_parser(
        "render", help="write an SVG sheet of all grid paths of size N"
    )
    render.add_argument("--n", type=int, required=True, help="grid size, 1..8")
    render.add_argument("-o", "--output", required=True, help="output SVG path")
    render.set_defaults(handler=cmd_render)

    oracle = commands.add_parser("oracle")  # hidden: brute-force reference
    oracle.add_argument("--n", type=int, required=True)
    add_format(oracle)
    oracle.set_defaults(handler=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    target = getattr(args, "output", "stdout")
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Downstream consumer (head, etc.) closed the stream; not an error.
        return 0
    except KeyboardInterrupt:
        return 130  # 128 + SIGINT, as a shell reports an interrupted job
    except UnicodeEncodeError as exc:  # symbol stdout cannot encode; first word fails
        return _fail(f"cannot write {target}: {exc}", 2)
    except ValueError as exc:  # any input the library refuses
        return _fail(str(exc), 2)
    except OSError as exc:  # a full disk, an unwritable -o path, ...
        return _fail(f"cannot write {target}: {exc}", 3)


if __name__ == "__main__":
    sys.exit(main())
