"""Permutation primitives: composition, parity, ranking, serialization."""

import math
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import swap_positions
from permpack.perms import (all_perms, compose, invert, is_perm, is_r_subset, lex_rank, parity,
                            perm_to_str, word_from_str)


def test_identity_and_compose():
    e = (1, 2, 3, 4)
    p = (2, 3, 1)
    q = (3, 1, 2)
    # (p o q)(k) = p(q(k)); q is the inverse of p here
    assert compose(p, q) == (1, 2, 3)
    assert compose(q, p) == (1, 2, 3)
    assert compose(p, e[:3]) == p
    with pytest.raises(ValueError, match="degree mismatch: 3 vs 4"):
        compose(p, e)


def test_compose_associativity():
    ps = list(all_perms(4))[:8]
    for a in ps:
        for b in ps:
            for c in ps[:4]:
                assert compose(a, compose(b, c)) == compose(compose(a, b), c)


def test_invert():
    assert invert((2, 3, 1, 4)) == (3, 1, 2, 4)
    for p in all_perms(4):
        assert compose(p, invert(p)) == (1, 2, 3, 4)
        assert compose(invert(p), p) == (1, 2, 3, 4)


def test_parity():
    assert parity((1, 2, 3)) == "even"
    assert parity((2, 1, 3)) == "odd"
    assert parity((2, 3, 1)) == "even"  # 3-cycle
    assert parity((1, 2, 3, 4)) == "even"
    assert parity((2, 1, 3, 4)) == "odd"
    # a transposition flips parity
    for p in all_perms(4):
        assert parity(p) != parity(swap_positions(p, 1, 2))


def test_parity_of_words():
    # parity of the arrangement relative to its sorted order
    assert parity((4, 5, 6)) == "even"
    assert parity((4, 6, 5)) == "odd"
    assert parity((5, 6, 4)) == "even"


def _cycle_walk_is_even(word):
    """Reference parity: the word's arrangement relative to its sorted
    order as a permutation, whose cycles of length L are each L - 1
    transpositions."""
    order = sorted(word)
    p = [order.index(v) for v in word]
    seen = [False] * len(p)
    transpositions = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = p[k]
            length += 1
        transpositions += length - 1
    return transpositions % 2 == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_parity_matches_cycle_walk(n):
    for p in all_perms(n):
        assert (parity(p) == "even") == _cycle_walk_is_even(p), p


@given(st.lists(st.integers(-50, 50), unique=True, max_size=9))
def test_inversion_parity_of_words_matches_cycle_walk(word):
    assert (parity(word) == "even") == _cycle_walk_is_even(word)


def test_lex_rank_unrank_roundtrip():
    assert lex_rank((1, 2, 3, 4)) == 0
    assert lex_rank((2, 1, 3, 4)) == 6
    assert lex_rank((4, 3, 2, 1)) == 23
    for n in (3, 4, 5):
        # lex order is rank order: all_perms unranks
        ps = list(all_perms(n))
        assert [ps[lex_rank(p)] for p in ps] == ps


def test_all_perms_lex_order_and_count():
    ps = list(all_perms(4))
    assert len(ps) == math.factorial(4)
    assert ps == sorted(ps)
    assert ps == list(permutations(range(1, 5)))


def test_swap_positions():
    assert swap_positions((3, 2, 1, 4, 5), 3, 4) == (3, 2, 4, 1, 5)
    assert swap_positions((1, 2, 3), 1, 2) == (2, 1, 3)


def test_serialization_small_and_large_degree():
    assert perm_to_str((3, 2, 1, 4, 5)) == "32145"
    assert word_from_str("32145") == (3, 2, 1, 4, 5)
    big = tuple(range(10, 0, -1))
    assert word_from_str(perm_to_str(big)) == big
    assert "," in perm_to_str(big)


@pytest.mark.parametrize("n", range(1, 13))
def test_str_round_trip_every_degree(n):
    # the identity, its reverse, and the even values before the odd ones
    words = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)),
             tuple(range(2, n + 1, 2)) + tuple(range(1, n + 1, 2))]
    for w in words:
        text = perm_to_str(w)
        assert text == perm_to_str(list(w)) == ("" if n <= 9 else ",").join(map(str, w))
        assert word_from_str(text) == w
        assert word_from_str(f" {text}\n") == w


def test_word_from_str_reads_without_checking():
    # the verifier checks certificate centers, so their reading does not
    assert word_from_str("1224") == (1, 2, 2, 4)
    assert word_from_str(" 0123\n") == (0, 1, 2, 3)
    assert word_from_str("10,2") == (10, 2)
    assert word_from_str("") == ()
    with pytest.raises(ValueError, match="invalid literal"):
        word_from_str("12a4")


def _reference_word_from_str(s):
    """The general reading: int of each letter, or of each comma field."""
    s = s.strip()
    return tuple(map(int, s.split(",") if "," in s else s))


# digits, commas, ASCII and other whitespace, the control characters
# 1..9 (bytes a digit table could mistake for values) and non-ASCII
# digits, which int reads
_TEXT_CHARS = ("0123456789, \t\n\r\x0b\x0c\x1c\x85\xa0" + "".join(map(chr, range(1, 10)))
               + "\u0661\u0662\u0663\u06f4\u0967")


@st.composite
def _edited_words(draw):
    """The text of a permutation of degree 1..12, perhaps with one letter
    replaced or inserted."""
    n = draw(st.integers(1, 12))
    text = perm_to_str(tuple(draw(st.permutations(range(1, n + 1)))))
    k = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["", "replace", "insert"]))
    if edit:
        text = text[:k] + draw(st.sampled_from(_TEXT_CHARS)) + text[k + (edit == "replace"):]
    return text


@given(st.one_of(st.text(st.sampled_from(_TEXT_CHARS), max_size=12), _edited_words()))
@example("\x01\x02\x03").via("control bytes 1..3 are no digits")
@example("").via("the empty word")
def test_word_from_str_matches_the_general_reading(text):
    try:
        expected = _reference_word_from_str(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            word_from_str(text)
        assert str(err.value) == str(exc)
    else:
        assert word_from_str(text) == expected


@given(st.lists(st.integers(-1, 6), max_size=7), st.integers(0, 7))
@example([2, 1, 3], 3)
@example([1, 1, 2], 3)
@example([1, 2], 3)
def test_is_perm_matches_sorted_reference(word, n):
    assert is_perm(word, n) == (sorted(word) == list(range(1, n + 1)))
    assert is_perm(tuple(word), n) == is_perm(word, n)


def _r_subset_by_type_set(values, n, r):
    # another spelling: the set of element types, then the extremes
    return (len(values) == r and {*map(type, values)} <= {int}
            and 1 <= min(values, default=1) and max(values, default=n) <= n)


_ELEMENTS = st.one_of(st.integers(-2, 12), st.integers(), st.booleans(),
                      st.sampled_from([1.0, 2.0, 0.5, None, "1", "2"]))


@given(st.lists(_ELEMENTS, max_size=8), st.sampled_from([tuple, frozenset]),
       st.integers(-1, 12), st.integers(-1, 9))
@example([], tuple, 5, 0)
@example([10**30, 2], tuple, 10**30, 2)
@example([True, 2, 3], frozenset, 5, 3)
def test_is_r_subset_matches_the_type_set_spelling(elements, container, n, r):
    values = container(elements)
    assert is_r_subset(values, n, r) == _r_subset_by_type_set(values, n, r)
