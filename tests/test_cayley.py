"""Tree construction, neighbors, distances, components."""

import ast
import math
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permpack
from conftest import graph_distance, placed_x3, tree_diameter
from permpack.cayley import (ORIGINAL, RENUMBERED, TranspositionTree, all_components,
                             build_tree, centers_by_component, closed_sphere, component_key,
                             component_of, component_type, edge_getters, neighbors,
                             packing_union, require_components, star_tree)
from permpack.perms import all_perms, compose, word_from_str


def test_build_tree_original_numbering():
    tree = build_tree(3, 2)
    assert tree.n == 5
    assert tree.epsilon == (3, 4)
    assert set(tree.edges) == {(1, 3), (2, 3), (3, 4), (4, 5)}
    assert tree.hub_left == 3 and tree.hub_right == 4
    assert tree_diameter(tree.n, tree.edges) == 3


def test_build_tree_renumbered():
    tree = build_tree(3, 3, RENUMBERED)
    assert tree.epsilon == (1, 4)
    assert set(tree.edges) == {(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)}
    assert tree.hub_left == 1 and tree.hub_right == 4


def test_hubs_are_the_ends_of_epsilon():
    # X3(3,3) with its hubs at positions 2 and 5 and no numbering
    edges = ((1, 2), (2, 3), (2, 5), (4, 5), (5, 6))
    tree = TranspositionTree(n=6, edges=edges, epsilon=(2, 5), r=3, t=3)
    assert (tree.hub_left, tree.hub_right) == (2, 5)
    for hub in ("hub_left", "hub_right"):
        with pytest.raises(ValueError, match="hubs defined only for diameter-3 trees"):
            getattr(star_tree(4), hub)


def test_tree_is_an_immutable_value_that_keys_the_caches():
    # two trees built apart are one key of edge_getters' cache
    a, b = build_tree(3, 3, RENUMBERED), build_tree(3, 3, RENUMBERED)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_tree(3, 3) and a != star_tree(6)
    assert edge_getters(a) is edge_getters(b)
    assert len({a, b, build_tree(3, 3)}) == 2
    with pytest.raises(AttributeError):
        a.n = 7
    with pytest.raises(ValueError, match="hub degrees r=4, t=3 on n=6"):
        a._replace(r=4)
    assert repr(star_tree(3)) == ("TranspositionTree(n=3, edges=((1, 2), (1, 3)), "
                                  "epsilon=None, r=None, t=None, numbering=None)")


@pytest.mark.parametrize("n, edges", [
    (5, ((1, 2), (1, 3), (2, 3), (4, 5))),  # a triangle and a loose edge
    (4, ((1, 2), (1, 2), (3, 4))),  # a repeated edge
])
def test_tree_rejects_edge_sets_that_are_not_trees(n, edges):
    with pytest.raises(ValueError, match="spanning tree"):
        TranspositionTree(n=n, edges=edges)


@pytest.mark.parametrize("n, edges, layout, why", [
    # a path: t = 1, and ε splits it into the sides {1, 2} and {3, 4}
    (4, ((1, 2), (2, 3), (3, 4)), dict(epsilon=(2, 3), r=3, t=1), "hub degrees"),
    # hub degrees 3 and 2, but the hub-3 side is {1, 2, 4}, not 1..3
    (5, ((1, 4), (2, 4), (3, 5), (4, 5)), dict(epsilon=(4, 5), r=3, t=2), "hub-r side"),
    # the hub-2 side is {2, 4}
    (4, ((1, 3), (2, 3), (2, 4)), dict(epsilon=(2, 3), r=2, t=2), "hub-r side"),
    # r without t
    (4, ((1, 2), (2, 3), (3, 4)), dict(epsilon=(2, 3), r=2), "together"),
    # diameter 4: the edge (4, 5) touches no hub
    (5, ((1, 2), (2, 3), (3, 4), (4, 5)), dict(epsilon=(2, 3), r=2, t=3), "touches no hub"),
    # ε is not one of the edges
    (5, ((1, 3), (2, 3), (3, 4), (4, 5)), dict(epsilon=(3, 5), r=3, t=2), "not a tree edge"),
    # an edge leaves the vertices 1..n
    (3, ((1, 2), (2, 4)), {}, "bad edge"),
])
def test_tree_rejects_a_wrong_hub_layout(n, edges, layout, why):
    with pytest.raises(ValueError, match=why):
        TranspositionTree(n=n, edges=edges, **layout)


@pytest.mark.parametrize("r, t", [(4, 2), (3, 3), (2, 2), (5, 3), (6, 3)])
def test_tree_accepts_every_hub_placement(r, t):
    # every hub_left <= r < hub_right, as in the benchmark's trees
    for hub_left in range(1, r + 1):
        for hub_right in range(r + 1, r + t + 1):
            tree = placed_x3(r, t, hub_left, hub_right)
            assert (tree.hub_left, tree.hub_right) == (hub_left, hub_right)
            assert tree_diameter(tree.n, tree.edges) == 3


def _reference_build_tree(r, t, numbering):
    """(edges, epsilon) of X3(r,t) from explicit per-numbering leaf ranges."""
    n = r + t
    if numbering == ORIGINAL:
        hub_l, hub_r, left_leaves = r, r + 1, range(1, r)
    else:
        hub_l, hub_r, left_leaves = 1, r + 1, range(2, r + 1)
    edges = [(hub_l, hub_r)]
    edges += [tuple(sorted((v, hub_l))) for v in left_leaves]
    edges += [tuple(sorted((v, hub_r))) for v in range(r + 2, n + 1)]
    return tuple(sorted(edges)), (hub_l, hub_r)


@pytest.mark.parametrize("numbering", [ORIGINAL, RENUMBERED])
def test_build_tree_matches_leaf_ranges(numbering):
    for r in range(2, 9):
        for t in range(2, 8):
            tree = build_tree(r, t, numbering)
            edges, epsilon = _reference_build_tree(r, t, numbering)
            assert (tree.edges, tree.epsilon) == (edges, epsilon)
            assert (tree.hub_left, tree.hub_right) == epsilon


def test_build_tree_rejects_degenerate_hubs():
    with pytest.raises(ValueError):
        build_tree(1, 3)
    with pytest.raises(ValueError):
        build_tree(2, 1)
    with pytest.raises(ValueError, match="unknown numbering 'other'"):
        build_tree(2, 2, "other")


def test_star_tree():
    star = star_tree(4)
    assert set(star.edges) == {(1, 2), (1, 3), (1, 4)}
    assert star.epsilon is None
    assert tree_diameter(4, star.edges) == 2
    with pytest.raises(ValueError, match="star tree needs n >= 2"):
        star_tree(1)


def test_neighbors_match_worked_positions():
    # swapping the contents of tree-edge positions, checked on 32145
    tree = build_tree(3, 2)
    g = word_from_str("32145")
    nbrs = {h for _, h in neighbors(tree, g)}
    assert nbrs == {word_from_str(s) for s in ("12345", "31245", "32415", "32154")}
    assert len(closed_sphere(tree, g)) == tree.n
    for wrong in ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6)):
        with pytest.raises(ValueError, match="degree mismatch"):
            neighbors(tree, wrong)


def test_degree_and_regularity():
    tree = build_tree(2, 2)
    for g in all_perms(4):
        assert len(closed_sphere(tree, g)) == 4


def test_graph_distance_small():
    tree = build_tree(2, 2)
    assert graph_distance(tree, (1, 2, 3, 4), (1, 2, 3, 4)) == 0
    assert graph_distance(tree, (1, 2, 3, 4), (2, 1, 3, 4)) == 1
    assert graph_distance(tree, (1, 2, 3, 4), (2, 1, 4, 3)) == 2


def test_components_partition():
    tree = build_tree(3, 2)
    comps = all_components(tree)
    assert len(comps) == math.comb(5, 3)
    sizes = {}
    for g in all_perms(5):
        sizes.setdefault(component_of(tree, g), 0)
        sizes[component_of(tree, g)] += 1
    assert set(sizes) == set(comps)
    assert all(v == math.factorial(3) * math.factorial(2) for v in sizes.values())
    assert component_of(build_tree(3, 2, RENUMBERED), (5, 1, 3, 2, 4)) == frozenset({1, 3, 5})
    with pytest.raises(ValueError):
        component_of(star_tree(4), (1, 2, 3, 4))


@pytest.mark.parametrize("numbering", [ORIGINAL, RENUMBERED])
@pytest.mark.parametrize("r, t", [(2, 2), (3, 2), (3, 3), (5, 3)])
def test_all_components_in_subset_order(r, t, numbering):
    # callers rely on this order and do not sort again
    comps = all_components(build_tree(r, t, numbering))
    assert comps == sorted(comps, key=lambda c: tuple(sorted(c)))


@pytest.mark.parametrize("r, t", [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 2), (2, 5)])
def test_lex_order_groups_into_all_components_order(r, t):
    # the max-packing component masks rely on this order
    tree = build_tree(r, t)
    assert list(centers_by_component(tree, all_perms(tree.n))) == all_components(tree)


@pytest.mark.parametrize("values, shown", [
    ({1, 2}, "{1, 2}"), ([1, 2, 6], "{1, 2, 6}"), ("123", "{'1', '2', '3'}"),
    ([1.0, 2, 3], "{2, 3, 1.0}"), ([True, 2, 3], "{2, 3, True}"), ([10, 2, 0], "{0, 2, 10}"),
])
def test_component_key_names_values_that_are_not_a_component(values, shown):
    tree = build_tree(3, 2)
    assert component_key(tree, [3, 1, 2]) == frozenset({1, 2, 3})
    message = f"{shown} is not a component: it needs 3 distinct values of 1..5"
    with pytest.raises(ValueError) as info:
        component_key(tree, values)
    assert str(info.value) == message


def test_a_star_has_no_components():
    star = star_tree(4)
    for call in (lambda: require_components(star), lambda: component_key(star, {1, 2}),
                 lambda: all_components(star), lambda: centers_by_component(star, [])):
        with pytest.raises(ValueError, match="components defined only for diameter-3 trees"):
            call()


def test_component_type():
    tree = build_tree(3, 3, RENUMBERED)
    assert component_type(tree, {1, 2, 3}) == 0
    assert component_type(tree, {1, 4, 2}) == 1
    assert component_type(tree, {1, 4, 6}) == 1
    with pytest.raises(ValueError):
        component_type(build_tree(3, 2), {1, 2, 3})


def test_translate_is_color_preserving():
    # x o (g swapped at e) == (x o g) swapped at e, for every edge color e
    tree = build_tree(3, 2)
    x = (3, 1, 4, 5, 2)
    for g in list(all_perms(5))[::17]:
        base = dict(neighbors(tree, g))
        image = dict(neighbors(tree, compose(x, g)))
        for e in tree.edges:
            assert compose(x, base[e]) == image[e]


def _reference_footprint(tree, centers):
    """Union of the closed spheres one frozenset at a time, or None at
    the first sphere that meets an earlier one."""
    out = set()
    for g in centers:
        sph = closed_sphere(tree, g)
        if not out.isdisjoint(sph):
            return None
        out |= sph
    return out


_UNION_TREES = [build_tree(2, 2), build_tree(2, 2, RENUMBERED), build_tree(3, 2),
                build_tree(3, 2, RENUMBERED), star_tree(4)]


@given(st.data())
def test_packing_union_matches_reference(data):
    tree = data.draw(st.sampled_from(_UNION_TREES))
    verts = list(all_perms(tree.n))
    order = data.draw(st.permutations(verts))
    kind = data.draw(st.sampled_from(["greedy", "random", "overlap", "repeat", "empty"]))
    if kind == "greedy":
        # disjoint spheres: a greedy packing in a random order
        centers, covered = [], set()
        for g in order[:data.draw(st.integers(0, len(verts)))]:
            sph = closed_sphere(tree, g)
            if covered.isdisjoint(sph):
                covered |= sph
                centers.append(g)
    elif kind == "empty":
        centers = []
    else:
        centers = order[:data.draw(st.integers(1, 12))]
        g = data.draw(st.sampled_from(centers))
        if kind == "overlap":
            _, g = data.draw(st.sampled_from(neighbors(tree, g)))
        if kind != "random":
            centers.insert(data.draw(st.integers(0, len(centers))), g)
    assert packing_union(tree, centers) == _reference_footprint(tree, centers)


def _identifiers(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef))}


def test_only_cayley_and_search_read_edge_getters():
    # the sphere-union rule stays in cayley; only search needs the bulk
    # per-edge columns, for its n!-row sphere table
    src = pathlib.Path(permpack.__file__).parent
    readers = {path.stem for path in src.glob("*.py")
               if "edge_getters" in _identifiers(ast.parse(path.read_text()))}
    assert readers == {"cayley", "search"}


def test_test_oracles_live_in_the_tests():
    # names that only tests called are gone from the package, and the
    # tests' distance oracle moves by swap_positions, not by the columns
    # that closed spheres are built from, so it checks them
    gone = {"count_esets", "profile_by_type", "graph_distance", "tree_diameter", "num_vertices",
            "johnson_neighbors", "identity", "as_perm", "perm_from_str", "lex_unrank",
            "enumerate_component", "is_even", "swap_positions"}
    src = pathlib.Path(permpack.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert not gone & _identifiers(ast.parse(path.read_text())), path.name
    conftest = ast.parse((pathlib.Path(__file__).parent / "conftest.py").read_text())
    (oracle,) = [node for node in conftest.body
                 if isinstance(node, ast.FunctionDef) and node.name == "graph_distance"]
    read = _identifiers(oracle)
    assert "swap_positions" in read
    assert not read & {"edge_getters", "neighbors", "neighbors_across", "closed_sphere"}


def _names_r(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "r"
            or isinstance(node, ast.Attribute) and node.attr == "r")


def test_cayley_owns_the_component_rule():
    # one star guard, in cayley, and search keys no vertex by a [:r]
    # slice of its own: it groups vertices with centers_by_component
    src = pathlib.Path(permpack.__file__).parent
    guards = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "components defined only" in node.value):
                guards.append(path.stem)
    assert guards == ["cayley"]
    search = ast.parse((src / "search.py").read_text())
    slices = [ast.unparse(node) for node in ast.walk(search)
              if isinstance(node, ast.Slice) and node.lower is None and _names_r(node.upper)
              or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "slice"]
    assert slices == []
