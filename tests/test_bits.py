import random
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dyckgen.analysis import catalan, decompose, paper_next
from dyckgen.bits import (
    MAX_HALF_LENGTH,
    DyckWord,
    enumerate_words,
    is_dyck,
    max_value,
    max_word,
    min_value,
    min_word,
    next_unchecked,
    next_word,
    walk_values,
)
from dyckgen.strings import next_string


# min/max extremes, including the full-width edge at n = 32.
def test_min_word_values():
    assert min_word(4).value == 170
    assert min_word(1).value == 2
    assert min_word(32).value == 0xAAAAAAAAAAAAAAAA
    # bit construction agrees with the closed form, evaluated exactly
    for n in range(1, 33):
        assert min_value(n) == 2 * (4**n - 1) // 3


def test_max_word_values():
    assert max_word(4).value == 240
    assert max_word(1).value == 2
    assert max_word(32).value == 0xFFFFFFFF00000000
    for n in range(1, 33):
        assert max_value(n) == 2 ** (2 * n) - 2**n


@pytest.mark.parametrize("n", [0, -1, 33])
def test_half_length_out_of_range(n):
    with pytest.raises(ValueError):
        min_word(n)
    with pytest.raises(ValueError):
        max_word(n)
    with pytest.raises(ValueError):
        enumerate_words(n)


@pytest.mark.parametrize(
    "value, n, expected",
    [
        (170, 4, True),
        (0b1001, 2, False),  # prefix 100 goes below balance
        (0b0110, 2, False),  # starts with a zero
        (0b10, 1, True),
        (170 | (1 << 9), 4, False),  # stray bit above the window
        (-6, 2, False),
        (170, 0, False),
        (170, 40, False),
    ],
)
def test_is_dyck(value, n, expected):
    assert is_dyck(value, n) == expected


@pytest.mark.parametrize(
    "value, expected",
    [(0b10101010, 0b10101100), (0b10111000, 0b11001010), (0b1010, 0b1100)],
)
def test_next_unchecked_frozen_examples(value, expected):
    assert next_unchecked(value) == expected


def random_word(rng: random.Random, n: int) -> str:
    """A Dyck window of half-length n built by a random walk that never
    drops below the diagonal."""
    bits = []
    ones = zeros = 0
    while zeros < n:
        if ones < n and (zeros == ones or rng.random() < 0.5):
            bits.append("1")
            ones += 1
        else:
            bits.append("0")
            zeros += 1
    return "".join(bits)


def assert_agrees_with_string_walk(window: str) -> str:
    expected = next_string(window)
    assert expected is not None
    n = len(window) // 2
    assert format(next_unchecked(int(window, 2)), f"0{2 * n}b") == expected
    return expected


def test_literal_mask_covers_full_width_rewrites():
    # At n = 32 these successors rewrite all 64 bits below the leading
    # one, so the single 64-bit literal must hold every bit of the tail.
    n = MAX_HALF_LENGTH
    assert_agrees_with_string_walk("10" + "1" * (n - 1) + "0" * (n - 1))
    assert_agrees_with_string_walk("110" + "1" * (n - 2) + "0" * (n - 1))
    assert_agrees_with_string_walk("10" * n)


def test_next_unchecked_matches_string_walk_at_n32():
    # A seeded walk of 10,000 successor steps, restarting from a random
    # word every 100 steps so that wide and narrow rewrites both occur.
    rng = random.Random(20160220)
    n = MAX_HALF_LENGTH
    last = format(max_value(n), f"0{2 * n}b")
    for _ in range(100):
        window = random_word(rng, n)
        for _ in range(100):
            if window == last:
                break
            window = assert_agrees_with_string_walk(window)


def test_lookup_successor_equals_paper_form_exhaustively():
    # Every non-maximum word through n = 12, reached by the paper's own
    # walk: the table lookup replaces the division, the square and the
    # mask without changing a single result.
    for n in range(1, 13):
        value, last, steps = min_value(n), max_value(n), 0
        while value != last:
            expected = paper_next(value)
            assert next_unchecked(value) == expected, (n, value)
            value, steps = expected, steps + 1
        assert steps == catalan(n) - 1


def test_lookup_successor_equals_paper_form_on_random_walks():
    # Seeded walks for n = 13..32, restarting every 50 steps, plus the
    # n = 32 words whose rewrite spans the whole 64-bit literal.
    rng = random.Random(20160221)
    n32 = MAX_HALF_LENGTH
    starts = [
        "10" + "1" * (n32 - 1) + "0" * (n32 - 1),
        "110" + "1" * (n32 - 2) + "0" * (n32 - 1),
        "10" * n32,
    ]
    starts += [random_word(rng, n) for n in range(13, 33) for _ in range(20)]
    for window in starts:
        value, last = int(window, 2), max_value(len(window) // 2)
        for _ in range(50):
            if value == last:
                break
            expected = paper_next(value)
            assert next_unchecked(value) == expected, window
            value = expected


@given(st.integers(min_value=1, max_value=2**64 - 1))
@example(1)
@example(2**64 - 1)  # a changed run of 65 bits: the last table entry
@example(2**63)
def test_lookup_successor_equals_paper_form_on_any_64_bit_input(w):
    # Garbage in, the same garbage out: the two forms agree on every
    # nonzero value below 2**64, Dyck word or not.
    assert next_unchecked(w) == paper_next(w)


def test_lookup_successor_equals_paper_form_on_every_run_shape():
    """The two forms agree on every nonzero w below 2**64, by cases.

    Let t be the count of trailing zeros of w and k the length of its
    lowest run of ones, so k >= 1 and t + k <= 64. Then a = 2**t, the
    carry of b = w + a clears that run and sets bit t + k, and
    c = w ^ b is the run of k + 1 ones from bit t up: it depends on t
    and k alone. Both forms return R | b, where the refill R is computed
    from c alone (a is the lowest bit of c). With every bit of w above
    t + k clear, b is 2**(t + k), so agreement there means the two
    refills differ at most in bit t + k. Every b of the same (t, k) sets
    that bit, so the forms agree on every w of that (t, k). The 2,080
    pairs cover every nonzero w; each is also checked with every bit
    above t + k + 1 set.
    """
    full = (1 << 64) - 1
    cases = 0
    for k in range(1, 65):
        for t in range(65 - k):
            low = ((1 << k) - 1) << t
            high = low | (full >> (t + k + 1) << (t + k + 1))
            for w in (low, high):
                assert w ^ (w + (w & -w)) == ((2 << k) - 1) << t
                assert next_unchecked(w) == paper_next(w), (t, k, w)
                cases += 1
    assert cases == 4160


def test_successor_of_zero():
    assert next_unchecked(0) == 0
    with pytest.raises(ZeroDivisionError):
        paper_next(0)


def test_walk_values_checks_at_the_call_and_never_warns():
    for walk in (walk_values, enumerate_words):
        with pytest.raises(ValueError):
            walk(33)  # refused at the call, before any value is asked for
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert next(walk_values(21)) == min_value(21)  # neither walk warns
        assert next(enumerate_words(21)).value == min_value(21)


def test_next_word_examples():
    assert next_word(DyckWord(170, 4)) == DyckWord(172, 4)
    assert next_word(DyckWord(240, 4)) is None
    assert next_word(DyckWord(2, 1)) is None


def test_enumerate_small_sequences():
    assert [w.value for w in enumerate_words(2)] == [10, 12]
    assert [w.value for w in enumerate_words(1)] == [2]
    words4 = list(enumerate_words(4))
    assert len(words4) == 14
    assert words4[0].value == 170
    assert words4[-1].value == 240


def test_enumerate_matches_oracle(oracle_words):
    for n in range(1, 9):
        assert [w.value for w in enumerate_words(n)] == oracle_words(n)


def test_successor_minimality(oracle_words):
    # No valid word sits strictly between w and next(w).
    for n in range(1, 9):
        words = oracle_words(n)
        for value, after in zip(words, words[1:]):
            succ = next_word(DyckWord(value, n))
            assert succ is not None and succ.value == after
            assert not any(
                is_dyck(v, n) for v in range(value + 1, succ.value)
            )


def test_next_strictly_increases(oracle_words):
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            assert next_word(DyckWord(value, n)).value > value


@pytest.mark.parametrize("n", [*range(1, 11), 14])
def test_steps_from_min_to_max(n):
    steps = 0
    word = min_word(n)
    while (word := next_word(word)) is not None:
        steps += 1
    assert steps == catalan(n) - 1


def test_prefix_preserved_up_to_boundary(oracle_words):
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            word = DyckWord(value, n)
            k = decompose(word).k
            succ = next_word(word)
            assert word.bits[: k - 1] == succ.bits[: k - 1]


def test_mask_covers_exactly_the_rewritten_tail(oracle_words):
    # The squared quotient minus one is the mask 2**(2x) - 1, so the
    # alternating constant only ever contributes bits below position 2x.
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            x = decompose(DyckWord(value, n)).x
            a = value & -value
            b = value + a
            c = value ^ b
            c = ((c // a) >> 2) + 1
            assert c * c - 1 == (1 << (2 * x)) - 1


def test_dyck_word_validation():
    with pytest.raises(ValueError):
        DyckWord(0b1001, 2)
    with pytest.raises(ValueError):
        DyckWord(170, 0)
    word = DyckWord.from_bits("10111000")
    assert word.value == 184 and word.n == 4
    assert word.bits == "10111000"
    assert str(word) == "10111000"
    with pytest.raises(ValueError):
        DyckWord.from_bits("10x0")
    with pytest.raises(ValueError):
        DyckWord.from_bits("101")
    with pytest.raises(ValueError):
        DyckWord.from_bits("")
    with pytest.raises(ValueError, match="half-length"):
        DyckWord.from_bits("10" * 33)  # a Dyck window, but wider than 64 bits


@given(st.integers(min_value=1, max_value=8), st.data())
def test_round_trip_through_bits(n, data):
    words = list(enumerate_words(n))
    word = data.draw(st.sampled_from(words))
    assert DyckWord.from_bits(word.bits) == word


@given(st.integers(min_value=0, max_value=255))
def test_is_dyck_equals_window_reading(value):
    # Reading the 8-bit window as text and replaying the definition must
    # agree with the integer check.
    window = format(value, "08b")
    balance_ok = True
    balance = 0
    for ch in window:
        balance += 1 if ch == "1" else -1
        if balance < 0:
            balance_ok = False
            break
    assert is_dyck(value, 4) == (balance_ok and balance == 0)
