"""Exhaustive E-set decision, enumeration, and maximum packing."""

import gc

import pytest

from permpack.cayley import build_tree, neighbors, star_tree
from permpack.certify import verify_packing
from permpack.perms import all_perms, lex_rank
from permpack.search import (BEST_EFFORT, FOUND, NONE_EXHAUSTIVE, _rank_index,
                             _sphere_ranks, count_esets, find_eset, max_packing)


def test_find_eset_star_n3_found():
    out = find_eset(star_tree(3))
    assert out.status == FOUND
    assert out.certificate is not None
    assert out.covered_count == 6


def test_find_eset_absent_2_2():
    out = find_eset(build_tree(2, 2))
    assert out.status == NONE_EXHAUSTIVE
    assert out.certificate is None


def test_find_eset_absent_3_2():
    assert find_eset(build_tree(3, 2)).status == NONE_EXHAUSTIVE


def test_find_eset_reduction_soundness():
    # with and without the fix-the-identity reduction the answer agrees
    for r, t in ((2, 2), (3, 2)):
        tree = build_tree(r, t)
        assert find_eset(tree, symmetry=True).status == \
            find_eset(tree, symmetry=False).status


def test_sphere_table_matches_lex_rank():
    for tree in (star_tree(5), build_tree(3, 2)):
        table = _sphere_ranks(tree, _rank_index(tree.n))
        for v, g in enumerate(all_perms(tree.n)):
            expected = sorted([lex_rank(g)] + [lex_rank(h) for _, h in neighbors(tree, g)])
            assert table[v] == expected, g


def test_find_eset_leaves_no_cyclic_garbage():
    # the DLX arrays must be freed by reference counting when the search returns
    gc.collect()
    gc.disable()
    try:
        find_eset(star_tree(5))
        find_eset(build_tree(3, 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_find_eset_size_gate():
    with pytest.raises(ValueError):
        find_eset(star_tree(8))


def test_count_esets():
    assert count_esets(star_tree(3)) == 3
    assert count_esets(build_tree(2, 2)) == 0
    assert count_esets(build_tree(3, 2)) == 0
    with pytest.raises(ValueError):
        count_esets(build_tree(3, 3))


def test_count_agrees_with_decision():
    for n in (3, 4):
        star = star_tree(n)
        found = find_eset(star).status == FOUND
        assert (count_esets(star) > 0) == found


def test_max_packing_2_2_optimal():
    tree = build_tree(2, 2)
    out = max_packing(tree)
    assert out.status == FOUND  # certified optimal: budget not exceeded
    assert not out.wall_budget_exceeded
    assert len(out.certificate.centers) == 5
    rep = verify_packing(tree, out.certificate)
    assert rep.valid and rep.covered_count == 20


def test_max_packing_star_is_perfect():
    out = max_packing(star_tree(3))
    assert out.status == FOUND
    assert len(out.certificate.centers) == 2
    assert verify_packing(star_tree(3), out.certificate).is_eset


def test_max_packing_budget_reported():
    out = max_packing(build_tree(2, 2), node_budget=3)
    assert out.status == BEST_EFFORT
    assert out.wall_budget_exceeded
    # whatever was found still verifies
    rep = verify_packing(build_tree(2, 2), out.certificate)
    assert rep.valid
