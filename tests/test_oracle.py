import pytest

from dyckgen.analysis import catalan
from dyckgen.oracle import (
    MAX_BRUTE_FORCE_N,
    _satisfies_definition,
    brute_force_all,
    brute_force_next,
)

# Hand-checked truth table for every 4-bit candidate (n = 2): the word must
# read MSB-first with both prefix counts balanced, so only 1010 and 1100 pass.
N2_VERDICTS = {
    0b0000: False, 0b0001: False, 0b0010: False, 0b0011: False,
    0b0100: False, 0b0101: False, 0b0110: False, 0b0111: False,
    0b1000: False, 0b1001: False, 0b1010: True,  0b1011: False,
    0b1100: True,  0b1101: False, 0b1110: False, 0b1111: False,
}


def test_n2_matches_hand_check():
    assert brute_force_all(2) == [v for v, ok in sorted(N2_VERDICTS.items()) if ok]
    for value, expected in N2_VERDICTS.items():
        assert _satisfies_definition(value, 2) == expected


def test_n1():
    assert brute_force_all(1) == [0b10]


def test_n4_count_and_extremes():
    words = brute_force_all(4)
    assert len(words) == 14
    assert words[0] == 170
    assert words[-1] == 240


def test_candidates_with_n_ones_match_the_full_scan():
    # The full scan over all 2**(2n) values, kept here as the reference
    # for the scan over the values with exactly n ones.
    for n in range(1, 9):
        full = [v for v in range(1 << (2 * n)) if _satisfies_definition(v, n)]
        assert brute_force_all(n) == full


def test_output_strictly_ascending(oracle_words):
    for n in range(1, 7):
        words = oracle_words(n)
        assert all(a < b for a, b in zip(words, words[1:]))


@pytest.mark.parametrize(
    "value, n, expected",
    [(170, 4, 172), (184, 4, 202), (240, 4, None), (0b1010, 2, 0b1100)],
)
def test_brute_force_next(value, n, expected):
    assert brute_force_next(value, n) == expected


def test_brute_force_next_rejects_non_dyck_input():
    with pytest.raises(ValueError):
        brute_force_next(0b1001, 2)


def test_brute_force_next_agrees_with_bit_successor(oracle_words):
    from dyckgen.bits import DyckWord, next_word

    for n in range(1, 9):
        for value in oracle_words(n):
            expected = next_word(DyckWord(value, n))
            assert brute_force_next(value, n) == (
                expected.value if expected is not None else None
            )


@pytest.mark.parametrize("n", [0, -3, MAX_BRUTE_FORCE_N + 1])
def test_out_of_range_n_is_refused(n):
    with pytest.raises(ValueError):
        brute_force_all(n)
    with pytest.raises(ValueError):
        brute_force_next(2, n)


def test_length_equals_catalan(oracle_words):
    for n in range(1, 10):
        assert len(oracle_words(n)) == catalan(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 11, 12])
def test_length_equals_catalan_large(n):
    assert len(brute_force_all(n)) == catalan(n)
