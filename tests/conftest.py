"""Shared structures used across the test modules."""

import contextlib
import inspect
import json
import pathlib
import sys

import pytest
from hypothesis import settings

from permpack.cayley import TranspositionTree, build_tree
from permpack.constructions import uniform_from_exact
from permpack.johnson import (ExactSubgraph, _pair_table, expand_cc, make_subgraph,
                              search_exact_2factor)
from permpack.perms import is_r_subset, swap_positions

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# property tests draw the same examples on every run and have no per-example
# deadline, so the suite neither varies nor flakes on a loaded machine
settings.register_profile("permpack", derandomize=True, deadline=None)
settings.load_profile("permpack")


def load_fixture(name: str) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def two_factor_g35() -> ExactSubgraph:
    """The exact 2-factor of 3-subsets of {1..5}: two disjoint 5-cycles."""
    a = expand_cc((1, 2, 3, 4, 5), 3)
    b = expand_cc((1, 3, 5, 2, 4), 3)
    return make_subgraph(list(a.edges) + list(b.edges), kind="two_factor")


def nest_g35() -> ExactSubgraph:
    """5-cycle on the windows of (12345) plus five pendant edges; spans
    all ten 3-subsets of {1..5}."""
    core = expand_cc((1, 2, 3, 4, 5), 3)
    pendants = [((1, 3, 2), (1, 3, 5)), ((4, 2, 3), (4, 2, 1)),
                ((3, 5, 4), (3, 5, 2)), ((4, 1, 5), (4, 1, 3)),
                ((2, 5, 1), (2, 5, 4))]
    edges = list(core.edges) + [(frozenset(a), frozenset(b)) for a, b in pendants]
    return make_subgraph(edges, kind="nest")


def cut_nest_g35() -> ExactSubgraph:
    """nest_g35 without the edge of its pendant (1, 2, 4), which stays
    as an isolated vertex: spanning, but not a nest."""
    nest = nest_g35()
    cut = {frozenset({2, 3, 4}), frozenset({1, 2, 4})}
    return make_subgraph([e for e in nest.edges if set(e) != cut], kind="nest",
                         extra_vertices=nest.vertices)


def nest_g46() -> ExactSubgraph:
    """12-cycle alternating the 1113 and 1122 cyclic compositions of 6,
    plus three pendant edges into the 1212 family; spans all fifteen
    4-subsets of {1..6}."""
    cyc = [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5), (2, 3, 4, 6),
           (3, 4, 5, 6), (3, 4, 5, 1), (4, 5, 6, 1), (4, 5, 6, 2),
           (5, 6, 1, 2), (5, 6, 1, 3), (6, 1, 2, 3), (6, 1, 2, 4)]
    edges = [(cyc[i], cyc[(i + 1) % 12]) for i in range(12)]
    edges += [((1, 2, 3, 5), (1, 2, 4, 5)), ((3, 4, 5, 1), (3, 4, 6, 1)),
              ((5, 6, 1, 3), (2, 3, 5, 6))]
    return make_subgraph([(frozenset(a), frozenset(b)) for a, b in edges], kind="nest")


def placed_x3(r, t, hub_left, hub_right) -> TranspositionTree:
    """X3(r,t) with the hubs at positions hub_left <= r < hub_right; every
    other position of a side is a leaf of that side's hub.  The same
    r*t placements as the benchmark's relabelled trees."""
    n = r + t
    edges = [(hub_left, hub_right)]
    edges += [tuple(sorted((v, hub_left))) for v in range(1, r + 1) if v != hub_left]
    edges += [tuple(sorted((v, hub_right))) for v in range(r + 1, n + 1) if v != hub_right]
    return TranspositionTree(n=n, edges=tuple(sorted(edges)), epsilon=(hub_left, hub_right),
                             r=r, t=t)


def graph_distance(tree: TranspositionTree, g, h) -> int:
    """Length of a shortest path from g to h in the Cayley graph, by a
    breadth-first search that swaps positions with ``perms.swap_positions``
    along each tree edge.  It shares no code with ``cayley.edge_getters``,
    the columns that spheres are built from, so it can check them."""
    dist = {g: 0}
    queue = [g]
    for u in queue:
        if u == h:
            return dist[u]
        for i, j in tree.edges:
            v = swap_positions(u, i, j)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    raise ValueError(f"{h} is not reachable from {g}")


def tree_diameter(n: int, edges) -> int:
    """The diameter of the tree on 1..n with these edges: the eccentricity
    of a vertex farthest from vertex 1, by two breadth-first searches."""
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)

    def distances(src):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    dist = distances(1)
    return max(distances(max(dist, key=dist.get)).values())


def johnson_neighbors(n: int, r: int, u) -> list[tuple[frozenset, frozenset]]:
    """All (color, neighbor) pairs of the r-subset u of 1..n, by set
    differences; count r(n-r).  The oracle for ``johnson._pair_table``,
    which finds neighbors by bitcode."""
    if not 2 < r < n - 1:
        raise ValueError(f"need 2 < r < n-1, got r={r}, n={n}")
    u = frozenset(u)
    if not is_r_subset(u, n, r):
        raise ValueError(f"not an r-subset of 1..{n}: {set(u)}")
    out = []
    for x in sorted(u):
        color = u - {x}
        for y in range(1, n + 1):
            if y not in u:
                out.append((color, color | {y}))
    return out


def exact_2factor_reference(n: int, r: int) -> ExactSubgraph | None:
    """``search_exact_2factor`` without its memo of exhausted states: the
    same pivot and candidate order over the same ``_pair_table``, so the
    two must return the same edges in the same order."""
    verts, full, ok = _pair_table(n, r)
    allow = list(full)
    open_ = (1 << len(verts)) - 1
    stack = []
    pivot, untried = 0, full[0]
    while open_:
        while untried:
            low = untried & -untried
            untried ^= low
            w = low.bit_length() - 1
            if allow[w] >> pivot & 1:
                break
        else:
            if not stack:
                return None
            pivot, untried, w, allow[pivot], allow[w], open_ = stack.pop()
            continue
        stack.append((pivot, untried, w, allow[pivot], allow[w], open_))
        if allow[pivot] == full[pivot]:
            allow[pivot] = ok[pivot][w]
        else:
            open_ ^= 1 << pivot
        if allow[w] == full[w]:
            allow[w] = ok[w][pivot]
        else:
            open_ ^= low
        pivot = (open_ & -open_).bit_length() - 1
        untried = allow[pivot] & open_
    return make_subgraph(((verts[p], verts[w]) for p, _, w, *_ in stack), kind="two_factor")


@contextlib.contextmanager
def shallow_stack():
    """Allow only about 60 Python frames beyond the current stack, so a
    search whose recursion grows with its input raises RecursionError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


@pytest.fixture(scope="session")
def x53_from_j85():
    """(tree, structure, construction): X3(5,3), the exact 2-factor of
    J(8,5) that ``search_exact_2factor`` finds first, and the uniform
    packing built from it (2688 centers), built once per session."""
    tree = build_tree(5, 3)
    structure = search_exact_2factor(8, 5)
    return tree, structure, uniform_from_exact(tree, structure)
