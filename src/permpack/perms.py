"""Exact arithmetic on permutations of {1,...,n} in one-line notation.

A permutation is a tuple of ints (w_1, ..., w_n) with w_k = image of k,
every value of 1..n appearing exactly once.  All public I/O is 1-based.
``is_perm`` is the one test that a word is a permutation, and
``is_r_subset`` the one test that values are r distinct integers of 1..n,
which is what a component and a Johnson-graph vertex are.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations, permutations as _lex_words

Perm = tuple[int, ...]


@cache
def _values(n: int) -> frozenset[int]:
    """{1, ..., n}: a word of n letters is a permutation iff these are
    its letters."""
    return frozenset(range(1, n + 1))


def is_perm(word, n: int) -> bool:
    """Is the word a permutation of 1..n: n letters, each of 1..n once?"""
    return len(word) == n and _values(n) == set(word)


def is_r_subset(values, n: int, r: int) -> bool:
    """Are the distinct values r integers of 1..n?  ``bool`` and ``float``
    values are refused even where they compare equal to an integer."""
    return len(values) == r and all(type(v) is int and 1 <= v <= n for v in values)


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(k) = p(q(k))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] for v in q)


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for k, v in enumerate(p, start=1):
        inv[v - 1] = k
    return tuple(inv)


def parity(word) -> str:
    """"even" or "odd": the parity of the number of inversions of a word
    of distinct values, which is its parity relative to its sorted order;
    a permutation is even iff it is a product of an even number of
    transpositions."""
    return "odd" if sum(a > b for a, b in combinations(word, 2)) % 2 else "even"


def lex_rank(p: Perm) -> int:
    """Rank of p among all degree-n permutations in lexicographic word order."""
    n = len(p)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if p[j] < p[i])
        rank += smaller * math.factorial(n - 1 - i)
    return rank


def all_perms(n: int):
    """All degree-n permutations in lexicographic order."""
    return (tuple(w) for w in _lex_words(range(1, n + 1)))


@cache
def _str_format(n: int) -> str:
    """The %-format of a degree-n word: digits for n <= 9, else commas."""
    return ("" if n <= 9 else ",").join(["%d"] * n)


def perm_to_str(p: Perm) -> str:
    """Digit string for n <= 9, comma-separated integers beyond."""
    return _str_format(len(p)) % tuple(p)


# the digits b"0".."9" -> their values
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def word_from_str(s: str) -> tuple[int, ...]:
    """The letters of ``perm_to_str`` text, unchecked, ignoring surrounding
    whitespace: ASCII digits by one ``bytes.translate``, other text by
    ``int``, whose ValueError it raises."""
    s = s.strip()
    if s.isascii() and s.isdigit():
        return tuple(s.encode().translate(_DIGIT_VALUES))
    return tuple(map(int, s.split(",") if "," in s else s))
