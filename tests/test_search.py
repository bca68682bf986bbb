"""Exhaustive E-set decision, enumeration, and maximum packing."""

import functools
import gc
import hashlib
import itertools
import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import eager_branch_and_bound, nest_g35, placed_x3, shallow_stack, swap_positions
from permpack import search
from permpack.cayley import (RENUMBERED, all_components, build_tree, closed_sphere,
                             component_of, neighbors, star_tree)
from permpack.certify import verify_packing
from permpack.cli import run
from permpack.constructions import (_disjoint_picks, nonuniform_extension,
                                    uniform_from_exact, xprime_perfect_code)
from permpack.johnson import alternate_cops, parse_cop, search_exact_2factor
from permpack.perms import all_perms, compose, lex_rank, perm_to_str
from permpack.search import (BEST_EFFORT, FOUND, NONE_EXHAUSTIVE, _branch_and_bound,
                             _centers_from_ranks, _ExactCover, _packing_graph, _plain_changes,
                             _sphere_ranks, _swap_columns, _translated_packing, _value_columns,
                             find_eset, max_packing)


def test_find_eset_star_n3_found():
    out = find_eset(star_tree(3))
    assert out.status == FOUND
    assert out.certificate is not None
    assert out.covered_count == 6
    assert out.upper_bound is None


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
    # the table is built column by column from the tree's edge list, so
    # relabelled trees with other edge lists are checked too
    for tree in (star_tree(5), star_tree(5, 3), build_tree(3, 2),
                 placed_x3(4, 2, 2, 5), placed_x3(3, 3, 3, 6)):
        table = _sphere_ranks(tree)
        for v, g in enumerate(all_perms(tree.n)):
            expected = sorted([lex_rank(g)] + [lex_rank(h) for _, h in neighbors(tree, g)])
            assert table[v] == expected, g


def test_swap_columns_match_lex_rank():
    # the stars of a degree cover every position pair; at n = 7 the
    # hub-1 star's six pairs
    trees = [star_tree(n, hub) for n in range(2, 7) for hub in range(1, n + 1)] + [star_tree(7)]
    for tree in trees:
        perms = list(all_perms(tree.n))
        for (i, j), column in zip(tree.edges, _swap_columns(tree)):
            assert column == tuple(lex_rank(swap_positions(g, i, j)) for g in perms), (tree, i, j)


def test_centers_from_ranks_matches_unranking():
    for tree in (build_tree(3, 2), star_tree(7, 3)):
        size = math.factorial(tree.n)
        ranks = [v * 7919 % size for v in range(0, size, 11)]
        centers = _centers_from_ranks(tree.n, ranks)
        assert centers == sorted(centers)
        assert [lex_rank(c) for c in centers] == sorted(ranks)


def test_find_eset_leaves_the_tables_unchanged():
    # the tables are shared by every call: each sphere table is the
    # caller's own, and a second search returns the same outcome
    for tree in (star_tree(7, 4), placed_x3(3, 3, 2, 5)):
        first = find_eset(tree)
        _sphere_ranks(tree)[0].append(-1)
        assert find_eset(tree) == first
        assert -1 not in _sphere_ranks(tree)[0]


def test_no_tables_beyond_degree_7(monkeypatch):
    monkeypatch.setattr(search, "_lex_table", _no_setup)
    with pytest.raises(ValueError):
        find_eset(star_tree(8))
    with pytest.raises(ValueError):
        max_packing(build_tree(5, 3), node_budget=1)
    monkeypatch.undo()
    assert not [key for key in search._COLUMNS if key[0] > 7]
    with pytest.raises(ValueError):
        search._lex_table(8)


def test_degree_7_tables_memory(monkeypatch):
    # every n = 7 table, built from empty caches: the lex table and all
    # C(7, 2) = 21 swap columns (the seven stars cover every pair)
    monkeypatch.setattr(search, "_lex_table", functools.cache(search._lex_table.__wrapped__))
    monkeypatch.setattr(search, "_COLUMNS", {})
    stars = [star_tree(7, hub) for hub in range(1, 8)]
    tracemalloc.start()
    try:
        for star in stars:
            _swap_columns(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(search._COLUMNS) == 21
    assert peak < 3 * 2**20


def _algorithm_x(num_cols, rows):
    """Reference exact cover on plain sets: (solutions in order, nodes).

    Branches on the first column in index order with the fewest rows and
    tries its rows in ascending index; one node per non-empty column chosen.
    """
    solutions = []
    nodes = 0

    def search(cols, live, chosen):
        nonlocal nodes
        if not cols:
            solutions.append(chosen)
            return
        col = min(sorted(cols), key=lambda c: sum(c in rows[q] for q in live))
        picks = [q for q in live if col in rows[q]]
        if picks:
            nodes += 1
        for q in picks:
            search(cols - rows[q], [p for p in live if not rows[p] & rows[q]], chosen + [q])

    search(set(range(num_cols)), list(range(len(rows))), [])
    return solutions, nodes


@st.composite
def _closed_neighbourhoods(draw):
    """The closed-neighbourhood table of a random graph on at most 12
    vertices: the shape of the sphere table find_eset sends."""
    n = draw(st.integers(0, 12))
    table = [{v} for v in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                table[u].add(v)
                table[v].add(u)
    return table


@given(_closed_neighbourhoods())
def test_dancing_links_matches_algorithm_x(table):
    # same solutions in the same order and the same branch count as the
    # reference, which pins the column choice and the row order; the
    # exact covers of a closed-neighbourhood table are the perfect codes
    solutions, nodes = _algorithm_x(len(table), table)
    dlx = _ExactCover([sorted(nbhd) for nbhd in table])
    assert list(dlx.solve()) == solutions
    assert dlx.nodes == nodes
    for code in solutions:
        assert all(len(nbhd.intersection(code)) == 1 for nbhd in table)


@pytest.mark.parametrize("tree", [star_tree(4), build_tree(2, 2), build_tree(2, 2, RENUMBERED)],
                         ids=["s4", "x22", "x22-renumbered"])
def test_exact_cover_matches_algorithm_x_on_sphere_tables(tree):
    # the sphere table is read as its own column lists (closed spheres
    # are symmetric)
    spheres = _sphere_ranks(tree)
    solutions, nodes = _algorithm_x(len(spheres), [set(s) for s in spheres])
    cover = _ExactCover(spheres)
    assert list(cover.solve()) == solutions
    assert cover.nodes == nodes


def test_exact_cover_memory_on_a_deep_path():
    # the S7 star's solution is 720 levels deep; a snapshot per level
    # would hold about 7 MiB, snapshots at branching levels only well
    # under 2 MiB (the sphere table itself is built before tracing)
    spheres = _sphere_ranks(star_tree(7))
    tracemalloc.start()
    try:
        cover = _ExactCover(spheres)
        solution = next(cover.solve())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(solution) == 720
    assert peak < 2 * 2**20


def test_find_eset_leaves_no_cyclic_garbage():
    # the search tables must be freed by reference counting when a search returns
    gc.collect()
    gc.disable()
    try:
        find_eset(star_tree(5))
        find_eset(build_tree(3, 2))
        max_packing(build_tree(3, 2), node_budget=2000)
        xprime_perfect_code(3)
        search_exact_2factor(6, 4)
        search_exact_2factor(7, 3)
        alternate_cops(parse_cop("1123"), parse_cop("2113"), 7)
        uniform_from_exact(build_tree(3, 2), nest_g35())
        nonuniform_extension(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_searches_do_not_recurse_per_level():
    # DLX on S6 runs 119 levels deep and the pick search below 300 slots;
    # neither may spend a Python frame per level
    with shallow_stack():
        assert find_eset(star_tree(6)).status == FOUND
        pick = next(_disjoint_picks([[((k,), {k})] for k in range(300)]))
    assert len(pick) == 300


def _golden_digest(status, nodes, centers):
    data = json.dumps([status, nodes, centers])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


# every hub placement of the eset-dlx benchmark's X3(4,2) and X3(3,3)
# trees, none of which has an E-set: (r, t, hub_left, hub_right,
# branches with the identity fixed, branches without)
_PLACED_X3_NODES = [
    (4, 2, 1, 5, 415, 2360), (4, 2, 1, 6, 409, 2350), (4, 2, 2, 5, 373, 2345),
    (4, 2, 2, 6, 375, 2357), (4, 2, 3, 5, 422, 2110), (4, 2, 3, 6, 414, 2178),
    (4, 2, 4, 5, 248, 1367), (4, 2, 4, 6, 248, 1427),
    (3, 3, 1, 4, 858, 4632), (3, 3, 1, 5, 840, 4770), (3, 3, 1, 6, 896, 4742),
    (3, 3, 2, 4, 668, 4222), (3, 3, 2, 5, 723, 4228), (3, 3, 2, 6, 750, 4083),
    (3, 3, 3, 4, 792, 4419), (3, 3, 3, 5, 658, 4265), (3, 3, 3, 6, 666, 4312),
]
_PLACED_X3_CASES = [
    pytest.param(placed_x3(r, t, hl, hr), sym, _golden_digest(NONE_EXHAUSTIVE, nodes, None),
                 nodes, id=f"x{r}{t}-hubs{hl}{hr}" + ("" if sym else "-nosym"))
    for r, t, hl, hr, *counts in _PLACED_X3_NODES for sym, nodes in zip((True, False), counts)]


@pytest.mark.parametrize("tree, symmetry, digest, nodes", [
    pytest.param(star_tree(6, 1), True, "6b186bfe36600b43", 119, id="star6-1"),
    pytest.param(star_tree(6, 3), True, "fa83eb9cb3099cde", 119, id="star6-3"),
    pytest.param(star_tree(5, 2), False, "041bd6f6d7764b6a", 24, id="star5-2-nosym"),
    pytest.param(build_tree(3, 3), False, "4514b5b0ef3554b8", 4419, id="x33-nosym"),
    pytest.param(build_tree(4, 2), True, "c64dc7d056344336", 248, id="x42"),
    pytest.param(star_tree(7, 1), True, "14a51ef9765eb2cd", 719, id="star7-1"),
    pytest.param(star_tree(7, 4), True, "76dc0efaff40ba89", 1260, id="star7-4"),
] + _PLACED_X3_CASES)
def test_find_eset_golden(tree, symmetry, digest, nodes):
    # status, branch count and certificate pin the preorder of the DLX search
    out = find_eset(tree, symmetry=symmetry)
    assert out.nodes_explored == nodes
    centers = [perm_to_str(c) for c in out.certificate.centers] if out.certificate else None
    assert _golden_digest(out.status, out.nodes_explored, centers) == digest


def test_find_eset_size_gate():
    with pytest.raises(ValueError):
        find_eset(star_tree(8))


def _no_setup(*args):
    raise AssertionError("the size gate must refuse before any set-up")


@pytest.mark.parametrize("tree", [build_tree(5, 3), build_tree(6, 3)], ids=["n8", "n9"])
def test_max_packing_size_gate(monkeypatch, tree):
    monkeypatch.setattr(search, "_packing_graph", _no_setup)
    with pytest.raises(ValueError):
        max_packing(tree, node_budget=1)


def test_cli_maxpack_size_gate_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(search, "_packing_graph", _no_setup)
    assert run(["search", "maxpack", "--tree", "6,3"]) == 2
    capsys.readouterr()


def test_max_packing_2_2_optimal():
    tree = build_tree(2, 2)
    out = max_packing(tree)
    assert out.status == FOUND  # certified optimal: budget not exceeded
    assert not out.wall_budget_exceeded
    assert len(out.certificate.centers) == 5
    assert out.upper_bound == 5
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
    assert out.nodes_explored <= 3
    assert out.upper_bound >= len(out.certificate.centers)
    # whatever was found still verifies
    rep = verify_packing(build_tree(2, 2), out.certificate)
    assert rep.valid


@pytest.mark.parametrize("tree, bound, status", [(star_tree(5), 24, FOUND),
                                                 (build_tree(4, 3), 720, BEST_EFFORT)],
                         ids=["star5", "x43"])
def test_max_packing_budget_bounds_whole_search(tree, bound, status):
    # a star is one component of n! vertices, and one X3(4,3) component's
    # exact cap takes minutes: the budget must stop the cap search too
    out = max_packing(tree, node_budget=20000)
    assert out.wall_budget_exceeded
    assert out.nodes_explored <= 20000
    assert verify_packing(tree, out.certificate).valid
    # neither cap search finishes, so the sphere-volume bound n!/n is reported
    assert out.upper_bound == bound
    # on S5 the stopped search still finds a perfect code of 24 centers,
    # which meets the bound and so is optimal
    assert out.status == status
    assert (len(out.certificate.centers) == bound) == (status == FOUND)


# every hub placement of the maxpack-bnb benchmark's X3(4,2) and X3(3,3)
# trees at node_budget 20 000: (r, t, hub_left, hub_right, digest of
# status, nodes and centers).  All but X3(3,3) with hubs 2, 4 return the
# translated packing, which is larger than the branch and bound's.
_PLACED_X3_PACKINGS = [
    (4, 2, 1, 5, "9e8832c4ea6a56a9"), (4, 2, 1, 6, "a9406d29b73c780c"),
    (4, 2, 2, 5, "5dd19af870db5b81"), (4, 2, 2, 6, "80a7b2a77ec647a6"),
    (4, 2, 3, 5, "ebb52869a6717217"), (4, 2, 3, 6, "cba4bde40c8cf73c"),
    (4, 2, 4, 5, "843a10930b1917b9"), (4, 2, 4, 6, "ed8beb11f504d91f"),
    (3, 3, 1, 4, "1ef45dddd5a9a911"), (3, 3, 1, 5, "7799ed61b44694cb"),
    (3, 3, 1, 6, "062860dbf559f388"), (3, 3, 2, 4, "55b10b4490cedc59"),
    (3, 3, 2, 5, "3f5b3e7bdeb87202"), (3, 3, 2, 6, "e042815e3ce1c4b3"),
    (3, 3, 3, 4, "175b7d90ef08f475"), (3, 3, 3, 5, "dd3395fcf9de3e71"),
    (3, 3, 3, 6, "82acd0e9380b77ca"),
]

_GOLDEN_TREES = [
    pytest.param(build_tree(3, 3), "175b7d90ef08f475", id="x33"),
    pytest.param(build_tree(3, 3, numbering=RENUMBERED), "1ef45dddd5a9a911", id="x33-renumbered"),
    pytest.param(build_tree(4, 2, numbering=RENUMBERED), "9e8832c4ea6a56a9", id="x42-renumbered"),
] + [pytest.param(placed_x3(r, t, hl, hr), digest, id=f"x{r}{t}-hubs{hl}{hr}")
     for r, t, hl, hr, digest in _PLACED_X3_PACKINGS]


def _packing_digest(out) -> str:
    centers = [perm_to_str(c) for c in out.certificate.centers]
    data = json.dumps([out.status, out.nodes_explored, centers])
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def test_max_packing_stops_at_a_translated_optimum():
    # X3(3,2)'s translated packing meets the root bound 20 = 10 components
    # times cap 2, so no main search runs; it is the packing that a
    # 20 000-node search returned when the main search ran first
    out = max_packing(build_tree(3, 2), node_budget=2_000_000)
    assert out.status == FOUND and out.upper_bound == 20
    assert out.nodes_explored == 0 and not out.wall_budget_exceeded
    assert [perm_to_str(c) for c in out.certificate.centers] == [
        "12345", "13542", "14325", "15234", "21345", "23451", "24153", "25431", "31542",
        "32451", "34512", "35214", "41325", "42153", "43512", "45123", "51234", "52431",
        "53214", "54123"]
    assert max_packing(build_tree(3, 2), node_budget=20_000) == out


@pytest.mark.parametrize("tree, digest", _GOLDEN_TREES)
def test_max_packing_golden(tree, digest):
    # status, node count and centers pin the preorder and the bound of the
    # B&B, and the translated packing
    out = max_packing(tree, node_budget=20000)
    assert (out.status, out.nodes_explored) == (BEST_EFFORT, 20000)
    assert _packing_digest(out) == digest


@pytest.mark.parametrize("tree, digest", [
    pytest.param(build_tree(2, 2), "fddb7295d2d2f3a9", id="x22"),
    pytest.param(star_tree(3), "389ccd128de2d373", id="s3"),
    pytest.param(star_tree(4), "5122a3e4e59f57ba", id="s4"),
])
def test_exhaustive_max_packing_golden(tree, digest):
    # an exhaustive search returns its own packing, as it did before the
    # translated packing existed
    out = max_packing(tree)
    assert out.status == FOUND and not out.wall_budget_exceeded
    assert _packing_digest(out) == digest


@pytest.mark.parametrize("tree", [pytest.param(p.values[0], id=p.id) for p in _GOLDEN_TREES])
def test_max_packing_is_the_larger_packing(tree):
    # the result is at least the branch and bound alone, with the same cap,
    # and at least the packing translated from the cap search's
    out = max_packing(tree, node_budget=20000)
    conflict, comp_masks = _packing_graph(tree)
    first = comp_masks[0]
    v0 = (first & -first).bit_length() - 1
    sample, _, exact = _branch_and_bound(first & ~conflict[v0], conflict, [first],
                                         first.bit_count(), 20000, None)
    cap = 1 + len(sample) if exact else first.bit_count()
    alone, _, _ = _branch_and_bound((1 << len(conflict)) - 1, conflict, comp_masks, cap,
                                    20000, None)
    translated = _translated_packing(tree, conflict, [v0] + sample)
    size = len(out.certificate.centers)
    assert size == max(len(alone), len(translated))
    assert _centers_from_ranks(tree.n, translated if size > len(alone) else alone) \
        == out.certificate.centers
    report = verify_packing(tree, out.certificate)
    assert report.valid and report.covered_count == size * tree.n


@pytest.mark.parametrize("n", range(2, 7))
def test_value_columns_match_compose(n):
    perms = list(all_perms(n))
    columns = _value_columns(n)
    assert len(columns) == n * (n - 1)
    for (a, b), column in columns.items():
        swap = swap_positions(tuple(range(1, n + 1)), a, b)
        assert column == tuple(lex_rank(compose(swap, g)) for g in perms), (a, b)


@pytest.mark.parametrize("m", range(1, 7))
def test_plain_changes_visit_every_order_once(m):
    order = list(range(m))
    seen = [tuple(order)]
    for k in _plain_changes(m):
        order[k], order[k + 1] = order[k + 1], order[k]
        seen.append(tuple(order))
    assert len(set(seen)) == len(seen) == math.factorial(m)


def test_max_packing_exact_cap_within_budget():
    # with a vertex forced in, one X3(4,2) component's cap search fits in
    # the budget (unforced it needs 36 363 nodes): the root bound is the
    # exact cap 8 times the 15 components, not the component size 48
    out = max_packing(build_tree(4, 2), node_budget=20000)
    assert out.upper_bound == 8 * 15
    assert len(out.certificate.centers) >= 84


def _reference_branch_and_bound(cand, conflict, comp_masks, cap, node_budget):
    """``_branch_and_bound`` with its bound recomputed at every node as the
    sum over components of min(cap, candidates left in the component)."""
    best, chosen, nodes = [], [], 0
    stack = [(cand, 0, None)]
    while stack:
        if nodes >= node_budget:
            return best, nodes, False
        nodes += 1
        cand, depth, v = stack.pop()
        del chosen[depth:]
        if v is not None:
            chosen.append(v)
            depth += 1
        if depth > len(best):
            best = chosen[:]
        if depth + sum(min(cap, (cand & m).bit_count()) for m in comp_masks) <= len(best):
            continue
        b = cand & -cand
        v = b.bit_length() - 1
        stack.append((cand ^ b, depth, None))
        stack.append((cand & ~conflict[v], depth, v))
    return best, nodes, True


@st.composite
def _split_conflict_graphs(draw):
    # dense graphs with nearly all vertices as candidates and small caps
    # prune often, which is where a wrong count shows
    num = draw(st.integers(1, 16))
    vertex = st.integers(0, num - 1)
    conflict = [1 << v for v in range(num)]
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=40)):
        conflict[u] |= 1 << v
        conflict[v] |= 1 << u
    home = draw(st.lists(st.integers(0, 3), min_size=num, max_size=num))
    comp_masks = [sum(1 << v for v in range(num) if home[v] == j) for j in range(4)]
    cand = (1 << num) - 1
    for v in draw(st.lists(vertex, max_size=3)):
        cand &= ~(1 << v)
    return cand, conflict, comp_masks, draw(st.integers(1, 3)), draw(st.integers(1, 300))


@given(_split_conflict_graphs())
def test_incremental_bound_matches_recomputed(case):
    # the per-entry counts and bound must equal a fresh recount at every
    # node: any difference moves a prune and with it the node count
    cand, conflict, comp_masks, cap, budget = case
    expected = _reference_branch_and_bound(cand, conflict, comp_masks, cap, budget)
    assert _branch_and_bound(cand, conflict, comp_masks, cap, budget, None) == expected


@st.composite
def _singleton_conflict_graphs(draw):
    # 6 to 8 small components on at most 16 vertices: a vertex with a few
    # conflicts meets most other components in one vertex, so the take
    # step's single-vertex mask carries most of each update, and some of
    # those vertices are not candidates, at the root or lower down
    num = draw(st.integers(6, 16))
    vertex = st.integers(0, num - 1)
    conflict = [1 << v for v in range(num)]
    for u, v in draw(st.lists(st.tuples(vertex, vertex), min_size=num, max_size=60)):
        conflict[u] |= 1 << v
        conflict[v] |= 1 << u
    parts = draw(st.integers(6, 8))
    home = draw(st.lists(st.integers(0, parts - 1), min_size=num, max_size=num))
    comp_masks = [sum(1 << v for v in range(num) if home[v] == j) for j in range(parts)]
    cand = (1 << num) - 1
    for v in draw(st.lists(vertex, max_size=num // 3)):
        cand &= ~(1 << v)
    return cand, conflict, comp_masks, draw(st.integers(1, 2)), draw(st.integers(1, 300))


@given(_singleton_conflict_graphs())
def test_single_vertex_parts_match_recomputed(case):
    # a singleton that is no longer a candidate must not move a count, and
    # a candidate singleton must lower its component's count by one
    cand, conflict, comp_masks, cap, budget = case
    expected = _reference_branch_and_bound(cand, conflict, comp_masks, cap, budget)
    assert _branch_and_bound(cand, conflict, comp_masks, cap, budget, None) == expected


class _RecordingRows(list):
    """A conflict list that records which rows are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)


@pytest.mark.parametrize("budget, most", [(1, 1), (20000, 719)])
def test_branch_and_bound_builds_tables_on_demand(budget, most):
    # a vertex's tables come from its conflict row when it first branches:
    # one node branches on one vertex, and 20 000 nodes of X3(3,3)'s main
    # search branch on far fewer than its 720 candidates
    conflict, comp_masks = _packing_graph(build_tree(3, 3))
    rows = _RecordingRows(conflict)
    _, nodes, _ = _branch_and_bound((1 << len(conflict)) - 1, rows, comp_masks, 6, budget, None)
    assert nodes == budget
    assert len(rows.read) <= most


@pytest.mark.parametrize("tree", [build_tree(2, 2), build_tree(3, 2), placed_x3(3, 3, 2, 5)],
                         ids=["x22", "x32", "x33-hubs25"])
@pytest.mark.parametrize("budget", [1, 257, 20000, None])
def test_branch_and_bound_matches_eager_setup(tree, budget):
    # the forced cap search and the main search, as max_packing runs them;
    # the main search ends without a node cap only on X3(2,2) (X3(3,2)
    # and X3(3,3) run past 3 000 000 nodes)
    conflict, comp_masks = _packing_graph(tree)
    first = comp_masks[0]
    v0 = (first & -first).bit_length() - 1
    cap_search = (first & ~conflict[v0], conflict, [first], first.bit_count(), budget, None)
    sample, _, exact = expected = eager_branch_and_bound(*cap_search)
    assert _branch_and_bound(*cap_search) == expected
    if budget is None and tree.n > 4:
        return
    cap = 1 + len(sample) if exact else first.bit_count()
    main = ((1 << len(conflict)) - 1, conflict, comp_masks, cap, budget, None)
    assert _branch_and_bound(*main) == eager_branch_and_bound(*main)


def test_deadline_stops_where_the_node_budget_does(monkeypatch):
    # the clock is read before nodes 1, 1 + E, 1 + 2E, ... (E =
    # _CLOCK_EVERY); a clock that ticks once per reading passes deadline
    # k at the reading before node kE + 1, exactly where node_budget kE
    # stops the search.  k = 20 lets both searches finish.
    every = search._CLOCK_EVERY
    conflict, comp_masks = _packing_graph(placed_x3(3, 3, 2, 5))
    first = comp_masks[0]
    searches = [((1 << len(conflict)) - 1, comp_masks, 6), (first, [first], first.bit_count())]
    for cand, masks, cap in searches:
        for k in (0, 1, 2, 7, 20):
            clock = SimpleNamespace(monotonic=itertools.count(1).__next__)
            monkeypatch.setattr(search, "time", clock)
            stopped = _branch_and_bound(cand, conflict, masks, cap, None, k)
            monkeypatch.undo()
            assert stopped == _branch_and_bound(cand, conflict, masks, cap, k * every, None), \
                (cap, k)
        # with a deadline that never passes, the node budget stops the
        # search exactly, between two clock readings too
        for budget in (1, every - 1, every + 1, 1000):
            far = time.monotonic() + 10**6
            assert (_branch_and_bound(cand, conflict, masks, cap, budget, far)
                    == _branch_and_bound(cand, conflict, masks, cap, budget, None)), (cap, budget)


def test_cap_search_leaves_the_main_search_half_the_time(monkeypatch):
    # X3(4,3)'s cap search does not finish in thousands of nodes.  With no
    # node cap and a clock that ticks once per reading from 0, the time
    # budget 20 ends the cap search at its reading 11 (past 10, half the
    # budget), after 10 * E nodes, and the main search at reading 21,
    # after 9 * E nodes (E = _CLOCK_EVERY)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=itertools.count(0).__next__))
    out = max_packing(build_tree(4, 3), node_budget=None, time_budget=20)
    assert out.wall_budget_exceeded and out.status == BEST_EFFORT
    assert out.nodes_explored == 9 * search._CLOCK_EVERY
    assert out.certificate.centers


def test_no_node_budget_runs_to_the_end():
    # node_budget None puts no cap on the nodes: the X3(2,2) search ends
    # exhaustive, as with a budget it never reaches
    assert max_packing(build_tree(2, 2), node_budget=None) == max_packing(build_tree(2, 2))
    conflict, comp_masks = _packing_graph(build_tree(2, 2))
    cand, cap = (1 << len(conflict)) - 1, comp_masks[0].bit_count()
    unbounded = _branch_and_bound(cand, conflict, comp_masks, cap, None, None)
    assert unbounded[2]
    assert unbounded == _branch_and_bound(cand, conflict, comp_masks, cap, 10**9, None)


def _reference_packing_graph(tree):
    """(conflict, comp_masks) of ``_packing_graph`` from ``closed_sphere``
    unions and ``component_of`` over ``Perm`` tuples."""
    perms = list(all_perms(tree.n))
    conflict = []
    for g in perms:
        ball = set().union(*(closed_sphere(tree, h) for h in closed_sphere(tree, g)))
        conflict.append(sum(1 << lex_rank(h) for h in ball))
    if tree.r is None:
        return conflict, [(1 << len(perms)) - 1]
    comps = [sum(1 << v for v, g in enumerate(perms) if component_of(tree, g) == c)
             for c in all_components(tree)]
    return conflict, comps


@pytest.mark.parametrize("tree", [build_tree(2, 2), build_tree(3, 2),
                                  build_tree(3, 2, RENUMBERED), placed_x3(3, 3, 2, 5),
                                  star_tree(4)],
                         ids=["x22", "x32", "x32-renumbered", "x33-hubs25", "s4"])
def test_packing_graph_matches_closed_spheres(tree):
    conflict, comp_masks = _packing_graph(tree)
    assert (conflict, comp_masks) == _reference_packing_graph(tree)
    # the component masks partition the vertices
    assert sum(comp_masks) == (1 << math.factorial(tree.n)) - 1
    assert sum(m.bit_count() for m in comp_masks) == math.factorial(tree.n)


@pytest.mark.parametrize("budget", [{"node_budget": 0}, {"node_budget": -5},
                                    {"time_budget": 0}, {"time_budget": -1},
                                    {"time_budget": math.nan}],
                         ids=["nodes-0", "nodes-neg", "time-0", "time-neg", "time-nan"])
def test_max_packing_rejects_non_positive_budgets(monkeypatch, budget):
    monkeypatch.setattr(search, "_packing_graph", _no_setup)
    with pytest.raises(ValueError):
        max_packing(build_tree(3, 2), **budget)


def test_component_caps_agree():
    # the single cap relies on every component having the same exact
    # maximum packing (a value relabelling maps any component onto any other)
    for r, t in ((3, 2), (3, 3)):
        conflict, comp_masks = _packing_graph(build_tree(r, t))
        caps = set()
        for mask in comp_masks:
            best, _, exhaustive = _branch_and_bound(mask, conflict, [mask], mask.bit_count(),
                                                    10**6, None)
            assert exhaustive
            caps.add(len(best))
        assert len(caps) == 1, (r, t, caps)
        # the cap search forces one vertex in: every vertex of a component
        # lies in some maximum packing of it (a component is vertex-transitive)
        first = comp_masks[0]
        for v in range(len(conflict)):
            if first >> v & 1:
                best, _, exhaustive = _branch_and_bound(first & ~conflict[v], conflict, [first],
                                                        first.bit_count(), 10**6, None)
                assert exhaustive
                assert 1 + len(best) in caps, (r, t, v)


def _milp_packing(tree, mask):
    """Maximum packing with centers in ``mask``: max sum x subject to every
    vertex lying in at most one chosen sphere, solved by scipy's HiGHS."""
    opt = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    spheres = _sphere_ranks(tree)
    cols = [v for v in range(len(spheres)) if mask >> v & 1]
    a = np.zeros((len(spheres), len(cols)))
    for j, v in enumerate(cols):
        a[spheres[v], j] = 1
    res = opt.milp(-np.ones(len(cols)), integrality=np.ones(len(cols)),
                   bounds=opt.Bounds(0, 1),
                   constraints=opt.LinearConstraint(a, -np.inf, 1))
    assert res.success
    return round(-res.fun)


def test_max_packing_matches_milp():
    for (r, t), cap in (((2, 2), 1), ((3, 2), 2), ((3, 3), 6), ((4, 2), 8)):
        tree = build_tree(r, t)
        conflict, comp_masks = _packing_graph(tree)
        first = comp_masks[0]
        best, _, exhaustive = _branch_and_bound(first, conflict, [first], first.bit_count(),
                                                10**6, None)
        assert exhaustive
        assert len(best) == _milp_packing(tree, comp_masks[0]) == cap
    for tree in (build_tree(2, 2), star_tree(3), star_tree(4)):
        out = max_packing(tree)
        assert out.status == FOUND
        assert len(out.certificate.centers) == _milp_packing(tree, (1 << math.factorial(tree.n)) - 1)
