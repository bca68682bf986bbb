"""Johnson graph structures: exactness, CC/COP expansion, alternation,
2-factor search, nest validation."""

import hashlib
import json
import random
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (exact_2factor_reference, johnson_neighbors, nest_g35, nest_g46,
                      two_factor_g35)
from permpack import johnson
from permpack.johnson import (_pair_table, _path_violation, alternate_cops, expand_cc,
                              expand_cop, is_exact, is_johnson_edge, make_subgraph,
                              parse_cop, search_exact_2factor,
                              subgraph_from_dict, subgraph_to_dict, subset_key,
                              successor_orientations, validate_nest)


def test_johnson_neighbors_count_and_colors():
    out = johnson_neighbors(5, 3, {1, 2, 3})
    assert len(out) == 3 * 2
    assert all(len(color) == 2 and color < nbr for color, nbr in out)
    assert (frozenset({3, 4}), frozenset({2, 3, 4})) in johnson_neighbors(5, 3, {3, 4, 5})


def test_johnson_adjacency():
    assert is_johnson_edge(frozenset({3, 4, 5}), frozenset({2, 3, 4}))
    assert not is_johnson_edge(frozenset({1, 2, 3}), frozenset({1, 4, 5}))


def test_johnson_neighbors_requires_proper_r():
    with pytest.raises(ValueError):
        johnson_neighbors(5, 2, {1, 2})
    with pytest.raises(ValueError):
        johnson_neighbors(5, 4, {1, 2, 3, 4})
    for u in ({1, 2}, {1, 2, 6}, {True, 2, 3}, {1.0, 2, 3}):
        with pytest.raises(ValueError, match="not an r-subset of 1..5"):
            johnson_neighbors(5, 3, u)


def test_expand_cc_psi5():
    cyc = expand_cc((1, 2, 3, 4, 5), 3)
    assert {subset_key(v) for v in cyc.vertices} == {
        (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)}
    assert len(cyc.edges) == 5
    assert is_exact(5, 3, cyc) == (True, None)


def test_expand_cc_psi5_prime():
    cyc = expand_cc((1, 3, 5, 2, 4), 3)
    assert {subset_key(v) for v in cyc.vertices} == {
        (1, 3, 5), (2, 3, 5), (2, 4, 5), (1, 2, 4), (1, 3, 4)}
    assert is_exact(5, 3, cyc) == (True, None)


def test_expand_cc_seven_cycle():
    cyc = expand_cc((1, 2, 3, 4, 5, 6, 7), 4)
    assert len(cyc.vertices) == 7
    assert is_exact(7, 4, cyc)[0]


def test_expand_cc_rejects_repeats():
    with pytest.raises(ValueError):
        expand_cc((1, 2, 1, 3, 4), 3)
    with pytest.raises(ValueError):
        expand_cc((1, 2, 3, 4), 3)  # too short for r+2 windows


@pytest.mark.parametrize("elems", [(0, 1, 2, 3, 4), (1, 2, -3, 4, 5), (True, 2, 3, 4, 5),
                                   (1.0, 2, 3, 4, 5), ("1", "2", "3", "4", "5")])
def test_expand_cc_rejects_elements_that_are_not_of_1_to_n(elems):
    # as validate_nest does, through is_r_subset, with n the largest element
    with pytest.raises(ValueError, match="elements must be integers of 1.."):
        expand_cc(elems, 3)


@pytest.mark.parametrize("r", [0, -2])
def test_expand_cc_rejects_r_below_1(r):
    with pytest.raises(ValueError, match="needs 1 <= r <= 3"):
        expand_cc((1, 2, 3, 4, 5), r)


def test_is_exact_rejects_short_union_path():
    path = make_subgraph([({1, 2, 3}, {2, 3, 4}), ({2, 3, 4}, {1, 3, 4})], kind="path")
    ok, witness = is_exact(5, 3, path)
    assert not ok and witness is not None


def test_is_exact_rejects_a_non_johnson_edge():
    sub = make_subgraph([({1, 2, 3}, {1, 4, 5})])
    assert is_exact(6, 3, sub) == (
        False, "(1, 2, 3) and (1, 4, 5) are not adjacent in the Johnson graph")


@pytest.mark.parametrize("one", [True, 1.0], ids=["true", "1.0"])
def test_is_exact_takes_only_integer_elements(one):
    # equal to 1, but not an element of 1..n: the rule of components
    sub = make_subgraph([({one, 2, 3}, {one, 2, 4})])
    assert is_exact(5, 3, sub) == (
        False, f"edge ({one!r}, 2, 3)-({one!r}, 2, 4) is not between r-subsets of 1..5")


def test_exactness_needs_r_of_2_or_more():
    # colors sharing r - 2 elements mean nothing below r = 2
    cycle = expand_cc((1, 2, 3), 1)
    for check in (is_exact, validate_nest):
        with pytest.raises(ValueError, match=r"need 2 <= r <= n, got r=1, n=3"):
            check(3, 1, cycle)


def test_make_subgraph_keeps_one_object_per_vertex():
    # {True, 2, 3} == {1, 2, 3}: one copy stands for the vertex at every
    # edge end, the one that is not all ints whatever the order, so
    # checking each vertex once checks every end
    first_int = make_subgraph([({1, 2, 3}, {1, 2, 4}), ({True, 2, 3}, {2, 3, 4})])
    assert first_int.edges[1][0] is first_int.edges[0][0]
    kept = first_int.edges[0][0]
    assert {type(x) for x in kept} == {bool, int}
    assert any(v is kept for v in first_int.vertices)
    assert is_exact(5, 3, first_int) == (
        False, "edge (True, 2, 3)-(1, 2, 4) is not between r-subsets of 1..5")
    first_bool = make_subgraph([({2, 3, 4}, {True, 2, 3}), ({1, 2, 3}, {1, 2, 4})])
    assert is_exact(5, 3, first_bool) == (
        False, "edge (2, 3, 4)-(True, 2, 3) is not between r-subsets of 1..5")


def test_is_exact_two_factor():
    assert is_exact(5, 3, two_factor_g35()) == (True, None)


def test_expand_cop():
    assert frozenset({1, 2, 4, 5}) in expand_cop(parse_cop("1213"), 7)
    assert expand_cop(parse_cop("1114"), 7) == expand_cc((1, 2, 3, 4, 5, 6, 7), 4).vertices
    assert expand_cop(parse_cop("1212"), 6) == {
        frozenset({1, 2, 4, 5}), frozenset({2, 3, 5, 6}), frozenset({3, 4, 6, 1})}


def test_parse_cop():
    assert parse_cop("1213") == (1, 2, 1, 3)
    assert parse_cop("2,10,1") == (2, 10, 1)


def test_alternate_cops_14_cycle():
    cyc = alternate_cops(parse_cop("1123"), parse_cop("2113"), 7)
    assert cyc is not None
    assert len(cyc.vertices) == 14
    assert is_exact(7, 4, cyc) == (True, None)
    assert cyc.vertices == expand_cop(parse_cop("1123"), 7) | expand_cop(parse_cop("2113"), 7)


def test_alternate_cops_12_cycle():
    cyc = alternate_cops(parse_cop("1113"), parse_cop("1122"), 6)
    assert cyc is not None
    assert len(cyc.vertices) == 12
    assert cyc.vertices == expand_cop(parse_cop("1113"), 6) | expand_cop(parse_cop("1122"), 6)


def test_alternate_same_cop_is_absent():
    assert alternate_cops(parse_cop("1114"), parse_cop("1114"), 7) is None


def test_search_exact_2factor_found_5_3():
    sub = search_exact_2factor(5, 3)
    assert sub is not None
    assert len(sub.vertices) == 10
    adj = sub.adjacency()
    assert all(len(nb) == 2 for nb in adj.values())
    assert is_exact(5, 3, sub) == (True, None)


def test_search_exact_2factor_deterministic():
    a = search_exact_2factor(5, 3)
    b = search_exact_2factor(5, 3)
    assert sorted(map(subset_key, a.vertices)) == sorted(map(subset_key, b.vertices))
    assert [tuple(map(subset_key, e)) for e in a.edges] == \
        [tuple(map(subset_key, e)) for e in b.edges]


def test_search_exact_2factor_absent_6_4():
    assert search_exact_2factor(6, 4) is None


@pytest.mark.parametrize("n, r, digest", [
    (5, 3, "2715e2a91f18f5f5"),
    (8, 5, "8a61c8ad979fa2e3"),
    (8, 4, "824362a9ce8cadff"),
    (9, 6, "d2620d84157ecad3"),
    (7, 3, "20b58150596804b9"),
    (7, 4, "1ed9de55c9c75fd7"),
])
def test_search_exact_2factor_golden_certificates(n, r, digest):
    # the edge lists in search order pin the preorder of the search
    sub = search_exact_2factor(n, r)
    edges = json.dumps([[sorted(u), sorted(v)] for u, v in sub.edges])
    assert hashlib.sha256(edges.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("n, r", [(5, 3), (6, 4), (7, 3), (8, 5), (9, 6), (8, 4)])
def test_search_exact_2factor_matches_unmemoised_reference(n, r):
    # the memo of exhausted states skips only subtrees without a solution
    assert search_exact_2factor(n, r) == exact_2factor_reference(n, r)


def test_search_exact_2factor_memo_limit_is_the_stop_rule():
    # the search of J(7,4) remembers 57 762 exhausted states before it
    # finds its 2-factor
    with mock.patch.object(johnson, "_MAX_DEAD", 57762):
        assert search_exact_2factor(7, 4) is not None
    with mock.patch.object(johnson, "_MAX_DEAD", 57761):
        with pytest.raises(ValueError, match=r"J\(7,4\) undecided"):
            search_exact_2factor(7, 4)


@pytest.mark.parametrize("n", [6, 8, 10, 12, 14])
def test_search_exact_2factor_parity_lemma(n):
    # for even n, J(n, n-2) has no exact 2-factor: proven, so no table is
    # built, and J(14, 12) answers past the 90-vertex size gate
    with mock.patch.object(johnson, "_pair_table", side_effect=AssertionError("searched")):
        assert search_exact_2factor(n, n - 2) is None


@pytest.mark.parametrize("n, r", [(n, r) for n in range(5, 10) for r in range(3, n - 1)])
def test_search_exact_2factor_census_to_n9(n, r):
    # every J(n, r) with n <= 9 is decided: all have an exact 2-factor but
    # J(6,4) and J(8,6), which the parity lemma rules out
    sub = search_exact_2factor(n, r, max_vertices=comb(n, r))
    if (n, r) in {(6, 4), (8, 6)}:
        assert sub is None
    else:
        assert is_exact(n, r, sub) == (True, None)
        assert all(len(nbrs) == 2 for nbrs in sub.adjacency().values())
        assert len(sub.vertices) == comb(n, r)


@pytest.mark.parametrize("n, r", [(7, 3), (8, 3), (8, 5), (9, 6)])
def test_complement_of_exact_2factor_is_exact(n, r):
    # v -> {1..n} - v maps J(n, r) onto J(n, n-r) and keeps exactness, so
    # is_exact must accept the image of each 2-factor the search finds
    sub = search_exact_2factor(n, r)
    every = frozenset(range(1, n + 1))
    comp = make_subgraph(((every - u, every - v) for u, v in sub.edges), kind="two_factor")
    assert is_exact(n, n - r, comp) == (True, None)
    assert validate_nest(n, n - r, comp)[0]


@pytest.mark.parametrize("n, r", [(5, 3), (6, 4), (7, 3), (7, 4), (8, 4), (8, 5), (9, 6)])
def test_pair_table_matches_pair_ok(n, r):
    # the search trusts this table in place of the strict _path_violation
    verts, full, ok = _pair_table(n, r)
    assert [subset_key(v) for v in verts] == sorted(map(subset_key, verts))
    for i, v in enumerate(verts):
        nbrs = [j for j, u in enumerate(verts) if is_johnson_edge(u, v)]
        assert full[i] == sum(1 << j for j in nbrs)
        assert sorted(ok[i]) == nbrs
        for u in nbrs:
            for w in nbrs:
                exact = _path_violation(verts[u], v, verts[w], r + 2) is None
                assert bool(ok[i][u] >> w & 1) == exact


@given(st.data())
def test_path_violation_is_the_dropped_added_rule(data):
    # u = v - {a'} | {b'} and w = v - {a} | {b}: the 2-path is exact iff
    # a != a' and (b != b' or the host cap lets it involve r+1 elements)
    n = data.draw(st.integers(5, 9))
    r = data.draw(st.integers(3, n - 2))
    v = frozenset(data.draw(st.permutations(range(1, n + 1)))[:r])
    moves = johnson_neighbors(n, r, v)
    _, u = data.draw(st.sampled_from(moves))
    _, w = data.draw(st.sampled_from(moves))
    need = data.draw(st.sampled_from([r + 2, min(r + 2, n - 1), r + 1]))
    (a1,), (b1,) = v - u, u - v
    (a2,), (b2,) = v - w, w - v
    expected = a1 != a2 and (b1 != b2 or need <= r + 1)
    assert (_path_violation(u, v, w, need) is None) == expected


def test_search_exact_2factor_size_gate():
    with pytest.raises(ValueError):
        search_exact_2factor(10, 5)


@pytest.mark.parametrize("n, r", [(3, 5), (5, 2), (5, 4), (6, 6)])
def test_search_exact_2factor_rejects_bad_degree(n, r):
    with pytest.raises(ValueError, match="need 2 < r < n-1"):
        search_exact_2factor(n, r)


def test_validate_nest_g35():
    assert validate_nest(5, 3, nest_g35()) == (True, "nest")


def test_validate_nest_g46():
    assert validate_nest(6, 4, nest_g46()) == (True, "nest")


def test_validate_nest_rejects_nonspanning():
    ok, why = validate_nest(5, 3, expand_cc((1, 2, 3, 4, 5), 3))
    assert not ok and "spanning" in why


def test_validate_nest_rejects_a_repeated_edge():
    nest = nest_g35()
    doubled = make_subgraph(list(nest.edges) + [nest.edges[0]], kind="nest")
    assert validate_nest(5, 3, doubled) == (False, "repeated edge")


def test_validate_nest_rejects_high_degree():
    center = frozenset({1, 2, 3})
    extra = [frozenset(c) for c in combinations(range(1, 6), 3)]
    edges = [(center, v) for v in extra
             if v != center and is_johnson_edge(center, v)][:4]
    rest = [v for v in extra if all(v not in e for e in edges) and v != center]
    sub = make_subgraph(edges, extra_vertices=rest)
    ok, why = validate_nest(5, 3, sub)
    assert not ok


def _relabel(sub, old, new):
    def image(s):
        return frozenset(new if x == old else x for x in s)
    return make_subgraph([(image(u), image(v)) for u, v in sub.edges], kind=sub.kind,
                         extra_vertices=map(image, sub.vertices))


@pytest.mark.parametrize("n, r, make", [
    (5, 3, lambda: _relabel(nest_g35(), 5, 6)),
    (5, 2, nest_g35),
    (6, 2, nest_g46),
    (5, 3, lambda: _relabel(nest_g35(), 1, True)),
    (5, 3, lambda: _relabel(nest_g35(), 1, 1.0)),
], ids=["g35-value-6", "g35-as-r2", "g46-as-r2", "g35-value-true", "g35-value-1.0"])
def test_validate_nest_rejects_vertices_outside_the_host(n, r, make):
    # each has as many vertices as C(n, r) and a nest's shape and 2-paths
    ok, why = validate_nest(n, r, make())
    assert not ok and f"not between r-subsets of 1..{n}" in why


def _plain_nest_shape(sub):
    """Every component has as many edges as vertices, and deleting its
    degree-1 vertices leaves a non-empty core in which every vertex has
    degree 2."""
    adj = sub.adjacency()
    seen = set()
    for start in adj:
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            frontier = [w for u in frontier for w in adj[u] if w not in comp]
            comp.update(frontier)
        seen |= comp
        if sum(len(adj[v]) for v in comp) != 2 * len(comp):
            return False
        core = {v for v in comp if len(adj[v]) >= 2}
        if not core or any(sum(w in core for w in adj[v]) != 2 for v in core):
            return False
    return True


@settings(max_examples=400)
@given(st.data())
def test_validate_nest_shape_matches_definition(data):
    # the vertex set split into parts, each a cycle with pendants on
    # distinct cycle vertices or a forest, then an edge toggled and degrees
    # capped at 3; exactness is stubbed, so only the shape decides.  About
    # one example in 25 tells the rule apart from a variant that accepts a
    # lone edge or a path, hence the example count
    verts = [frozenset(c) for c in combinations(range(1, 6), 3)]
    order = data.draw(st.permutations(range(len(verts))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(order) - 1), max_size=2)))
    edges = set()
    for lo, hi in zip([0] + cuts, cuts + [len(order)]):
        part = order[lo:hi]
        size = len(part)
        if size >= 3 and data.draw(st.sampled_from([True, True, False])):
            ring = data.draw(st.integers(max(3, (size + 1) // 2), size))
            hosts = data.draw(st.permutations(part[:ring]))
            edges |= {frozenset((part[k], part[k - 1 if k else ring - 1])) for k in range(ring)}
            edges |= {frozenset(pair) for pair in zip(part[ring:], hosts)}
        else:
            for k in range(1, size):
                j = data.draw(st.integers(-1, k - 1))
                if j >= 0:
                    edges.add(frozenset((part[k], part[j])))
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=1)):
        if a != b:
            edges ^= {frozenset((a, b))}
    degree = [0] * len(verts)
    kept = []
    for a, b in sorted(tuple(sorted(e)) for e in edges):
        if degree[a] < 3 and degree[b] < 3:
            degree[a] += 1
            degree[b] += 1
            kept.append((verts[a], verts[b]))
    sub = make_subgraph(kept, extra_vertices=verts)
    with mock.patch.object(johnson, "_structure_violation", lambda *args: None):
        assert validate_nest(5, 3, sub)[0] == _plain_nest_shape(sub)


def test_successor_orientations_cover_all_vertices():
    for sub in (nest_g35(), two_factor_g35()):
        maps = list(successor_orientations(sub))
        assert maps
        for succ in maps:
            assert set(succ) == set(sub.vertices)
            for c, s in succ.items():
                assert is_johnson_edge(c, s)


def test_exactness_invariant_under_relabeling():
    rng = random.Random(7)
    base = expand_cc((1, 2, 3, 4, 5), 3)
    for _ in range(10):
        img = list(range(1, 6))
        rng.shuffle(img)
        relabeled = make_subgraph(
            [(frozenset(img[x - 1] for x in u), frozenset(img[x - 1] for x in v))
             for u, v in base.edges])
        assert is_exact(5, 3, relabeled) == (True, None)


def test_random_ccs_expand_exact():
    rng = random.Random(21)
    for _ in range(20):
        elems = list(range(1, 8))
        rng.shuffle(elems)
        try:
            sub = expand_cc(tuple(elems), 4)
        except ValueError:
            continue
        ok, _ = is_exact(7, 4, sub)
        assert ok


def test_subgraph_json_roundtrip():
    sub = nest_g46()
    again = subgraph_from_dict(subgraph_to_dict(sub))
    assert again.vertices == sub.vertices
    assert {frozenset((u, v)) for u, v in again.edges} == \
        {frozenset((u, v)) for u, v in sub.edges}
