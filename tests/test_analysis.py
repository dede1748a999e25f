import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyckgen.analysis import (
    Decomposition,
    catalan,
    decompose,
    prefix_counts,
    successor_from_decomposition,
)
from dyckgen.bits import DyckWord, next_word


@pytest.mark.parametrize(
    "word, i, expected",
    [
        ("10111000", 3, (2, 1)),
        ("10101010", 8, (4, 4)),
        ("11010010", 5, (3, 2)),
    ],
)
def test_prefix_counts_examples(word, i, expected):
    assert prefix_counts(word, i) == expected


def test_prefix_counts_accepts_all_word_kinds():
    assert prefix_counts(DyckWord(170, 4), 8) == (4, 4)
    assert prefix_counts("10111000", 3) == (2, 1)


def test_prefix_counts_position_range():
    with pytest.raises(ValueError):
        prefix_counts("1010", 0)
    with pytest.raises(ValueError):
        prefix_counts("1010", 5)
    with pytest.raises(ValueError):
        prefix_counts("12ab", 2)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=1, max_value=8))
def test_counts_partition_the_prefix(value, i):
    counts = prefix_counts(format(value, "08b"), i)
    assert counts.ones + counts.zeros == i
    assert counts.ones >= 0 and counts.zeros >= 0


def test_decompose_examples():
    d = decompose(DyckWord.from_bits("10111000"))
    assert (d.k, d.x, d.y) == (2, 2, 3)
    assert d.prefix_len == 1
    d = decompose(DyckWord.from_bits("10101010"))
    assert (d.k, d.x, d.y) == (6, 0, 1)
    with pytest.raises(ValueError):
        decompose(DyckWord.from_bits("1100"))


def test_decomposition_reconstructs_the_word(oracle_words):
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            word = DyckWord(value, n)
            d = decompose(word)
            rebuilt = word.bits[: d.k - 1] + "01" + "1" * d.x + "0" * d.y
            assert rebuilt == word.bits
            assert 1 < d.k < 2 * n
            assert d.y > 0


@pytest.mark.parametrize(
    "bits, expected",
    [
        ("10111000", "11001010"),
        ("10101010", "10101100"),
        ("1010", "1100"),
    ],
)
def test_successor_template_examples(bits, expected):
    word = DyckWord.from_bits(bits)
    assert successor_from_decomposition(word, decompose(word)).bits == expected


def test_template_agrees_with_bit_successor(oracle_words):
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            word = DyckWord(value, n)
            assert successor_from_decomposition(word, decompose(word)) == next_word(word)


def test_balance_identity(oracle_words):
    # y - x equals the ones surplus of the shared prefix, and never dips
    # below zero.
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            word = DyckWord(value, n)
            d = decompose(word)
            counts = prefix_counts(word, d.k - 1)  # k > 1 always holds
            assert d.y - d.x == counts.ones - counts.zeros
            assert d.y - d.x >= 0


def test_total_length_identity(oracle_words):
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            d = decompose(DyckWord(value, n))
            assert d.k + 1 + (d.y - d.x) == 2 * (n - d.x)


def test_alternating_tail_of_successor(oracle_words):
    # Past the refill point every even position of the successor holds a
    # zero and closes its prefix exactly.
    for n in range(1, 9):
        for value in oracle_words(n)[:-1]:
            word = DyckWord(value, n)
            x = decompose(word).x
            succ = next_word(word)
            for i in range(2 * (n - x), 2 * n + 1, 2):
                assert succ.bits[i - 1] == "0"
                counts = prefix_counts(succ, i)
                assert counts.ones == counts.zeros


def test_decomposition_prefix_len_property():
    assert Decomposition(k=5, x=1, y=2).prefix_len == 4


@pytest.mark.parametrize("n, expected", [(0, 1), (4, 14), (14, 2674440)])
def test_catalan_known_values(n, expected):
    assert catalan(n) == expected


def test_catalan_matches_oracle_count(oracle_words):
    assert catalan(10) == len(oracle_words(10))


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-1)


@given(st.integers(min_value=0, max_value=400))
def test_catalan_matches_binomial_form(n):
    assert catalan(n) == math.comb(2 * n, n) // (n + 1)
