import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyckgen.bits import DyckWord, enumerate_words, max_value, min_value, next_word
from dyckgen.strings import (
    BITS,
    PARENS,
    SymbolPair,
    first_violation,
    is_dyck_text,
    next_in_place,
    next_string,
)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("()()", "(())"),
        ("()((()))", "(())()()"),
        ("(())", None),
    ],
)
def test_next_string_parens(text, expected):
    assert next_string(text, PARENS) == expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("10", None),
        ("101010", "101100"),
        ("110100", "111000"),
        ("", None),  # empty word counts as already maximal
    ],
)
def test_next_string_bits(text, expected):
    assert next_string(text) == expected


def test_next_in_place_mutates_and_clears():
    buffer = list("()((()))")
    next_in_place(buffer, PARENS)
    assert "".join(buffer) == "(())()()"
    buffer = list("(())")
    next_in_place(buffer, PARENS)
    assert buffer == []
    buffer = []
    next_in_place(buffer, PARENS)
    assert buffer == []


def test_next_string_validates_input():
    for bad in ("1001", "abc", "101", "((", "()(", ")("):
        with pytest.raises(ValueError):
            next_string(bad, PARENS if set(bad) <= {"(", ")"} else BITS)


def test_symbol_pair_validation():
    with pytest.raises(ValueError):
        SymbolPair("a", "a")
    with pytest.raises(ValueError):
        SymbolPair("ab", "c")
    with pytest.raises(ValueError):
        SymbolPair("a", "")


def test_equal_symbols_rejected_before_mutation():
    # A duck-typed pair dodges SymbolPair's own validation; the primitive
    # must still refuse it without touching the buffer.
    buffer = list("1010")
    with pytest.raises(ValueError):
        next_in_place(buffer, SimpleNamespace(one="1", zero="1"))
    assert buffer == list("1010")


def test_is_dyck_text():
    assert is_dyck_text("101010")
    assert is_dyck_text("")
    assert not is_dyck_text("1001")
    assert not is_dyck_text("110")
    assert not is_dyck_text("10a0")
    assert is_dyck_text("abab", SymbolPair("a", "b"))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("10111000", None),
        ("", None),
        ("10x0", "character 'x' is neither '1' nor '0'"),
        ("101", "odd length 3"),
        ("1001", "prefix violation at position 3"),
        ("0110", "prefix violation at position 1"),
        ("1011", "unbalanced word: 3 ones, 1 zeros"),
    ],
)
def test_first_violation_diagnostics(text, expected):
    assert first_violation(text) == expected


def test_first_violation_reports_the_first_fault_in_scan_order():
    assert first_violation("1001x0") == "prefix violation at position 3"
    assert first_violation("1x01") == "character 'x' is neither '1' nor '0'"
    assert first_violation("x10") == "odd length 3"  # length is checked first


def test_first_violation_agrees_with_the_oracle(oracle_words):
    # Every window of up to 8 bits, read as bits and relabeled as a/b.
    ab = SymbolPair("a", "b")
    for length in range(1, 9):
        valid = set(oracle_words(length // 2)) if length % 2 == 0 else set()
        for value in range(1 << length):
            window = format(value, f"0{length}b")
            expected = value in valid
            assert (first_violation(window) is None) == expected
            assert (first_violation(ab.encode(window), ab) is None) == expected


def test_symbol_codec_round_trip():
    assert PARENS.encode("110100") == "(()())"
    assert PARENS.decode("(()())") == "110100"
    swapped = SymbolPair("0", "1")
    assert swapped.encode("1100") == "0011"
    assert swapped.decode("0011") == "1100"
    with pytest.raises(ValueError, match="character '1' is neither 'a' nor 'b'"):
        SymbolPair("a", "b").decode("ab1b")


def test_next_string_over_parens():
    assert next_string("(())", PARENS) is None
    assert next_string("()()", PARENS) == "(())"
    with pytest.raises(ValueError):
        next_string("())(", PARENS)


def test_commutes_with_bit_successor(oracle_words):
    # Advancing the text and advancing the integer are the same walk.
    for n in range(1, 9):
        expected = oracle_words(n)
        buffer = list(format(min_value(n), f"0{2 * n}b"))
        seen = [int("".join(buffer), 2)]
        while True:
            next_in_place(buffer)
            if not buffer:
                break
            seen.append(int("".join(buffer), 2))
        assert seen == expected


pair_strategy = st.lists(
    st.characters(min_codepoint=33, max_codepoint=0x2FF),
    min_size=2,
    max_size=2,
    unique=True,
).map(lambda cs: SymbolPair(cs[0], cs[1]))


@given(pair_strategy, st.integers(min_value=1, max_value=6), st.data())
def test_symbol_relabeling_commutes(pair, n, data):
    words = list(enumerate_words(n))
    word = data.draw(st.sampled_from(words))
    relabeled = word.bits.translate({ord("1"): pair.one, ord("0"): pair.zero})
    advanced = next_string(relabeled, pair)
    reference = next_string(word.bits)
    if reference is None:
        assert advanced is None
    else:
        assert advanced == reference.translate(
            {ord("1"): pair.one, ord("0"): pair.zero}
        )


class TrackingList(list):
    """List that logs every indexed read and write."""

    def __init__(self, items):
        super().__init__(items)
        self.log = []

    def __getitem__(self, index):
        self.log.append(("get", index))
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.log.append(("set", index))
        super().__setitem__(index, value)


def test_visits_each_position_at_most_twice(oracle_words):
    # One backward scan, one forward rewrite: distinct positions touched in
    # each phase never sum to more than the word length twice over.
    for n in range(1, 7):
        for value in oracle_words(n):
            buffer = TrackingList(format(value, f"0{2 * n}b"))
            next_in_place(buffer)
            first_write = next(
                (i for i, (op, _) in enumerate(buffer.log) if op == "set"),
                len(buffer.log),
            )
            backward = {idx for _, idx in buffer.log[:first_write]}
            forward = {idx for _, idx in buffer.log[first_write:]}
            assert len(backward) + len(forward) <= 2 * (2 * n)


def test_in_place_rewrite_allocates_nothing_proportional():
    n = 100_000
    # Worst-case shape: the rewrite point sits right at the front.
    buffer = list("10" + "1" * (n - 1) + "0" * (n - 1))
    tracemalloc.start()
    next_in_place(buffer)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 16_384  # a copied buffer would be megabytes
    assert len(buffer) == 2 * n


def test_terminal_agreement_with_bits():
    for n in range(1, 9):
        text = format(max_value(n), f"0{2 * n}b")
        assert next_string(text) is None
        word_buffer = list(text)
        next_in_place(word_buffer)
        assert word_buffer == []


@given(st.integers(min_value=1, max_value=7), st.data())
def test_next_string_agrees_with_wrapped_word(n, data):
    word = data.draw(st.sampled_from(list(enumerate_words(n))))
    via_string = next_string(word.bits)
    via_word = next_word(word)
    if via_string is None:
        assert via_word is None
    else:
        assert via_word.bits == via_string
        DyckWord.from_bits(via_string)  # the successor is itself valid
