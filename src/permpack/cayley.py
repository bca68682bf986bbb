"""Cayley graphs of S_n generated by transposition trees.

The graph is implicit: vertices are permutations, and the neighbor along
tree edge (i, j) swaps the contents of positions i and j.  Bulk sphere
work reads one column per tree edge: ``edge_getters`` gives, per edge,
an ``operator.itemgetter`` over the position word with i and j
exchanged, so mapping it over many vertices yields their neighbors
across that edge in one C loop (``neighbors_across``).  Neighbors,
closed spheres, the search's sphere table and the sphere unions of
``packing_union``, the single disjointness rule for packings, all come
from these columns.
For a diameter-3 tree with hub degrees r and t, deleting the hub-hub
edge splits the graph into C(n, r) components, one per r-subset of
values occupying the hub-r-side positions 1..r; ``TranspositionTree``
checks that layout when built.  ``require_components`` is the one
guard against stars, which have no components, and ``component_key``
the one check that given values are a component.
``packing_profile`` checks a packing one component at a time, by its
``packing_union`` and a count of epsilon-neighbours.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations
from operator import itemgetter

from .perms import Perm, is_r_subset

Edge = tuple[int, int]

ORIGINAL = "original"
RENUMBERED = "renumbered"


class TranspositionTree(namedtuple("TranspositionTree", "n edges epsilon r t numbering",
                                   defaults=(None, None, None, None))):
    """A tree on vertices 1..n whose edges generate S_n as transpositions.

    epsilon is the hub-hub edge of a diameter-3 tree (None for stars),
    hub-r end first, and r, t are its hub degrees, given with it.  Checked
    here: r, t >= 2 with r + t = n, every edge touches a hub, and the
    hub-r end and its other neighbours are positions 1..r.  Immutable,
    hashable and equal by value, so it keys the caches of its tables.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple[Edge, ...], epsilon: Edge | None = None,
                r: int | None = None, t: int | None = None, numbering: str | None = None):
        self = super().__new__(cls, n, edges, epsilon, r, t, numbering)
        layout = (self.epsilon, self.r, self.t)
        if None in layout and layout != (None, None, None):
            raise ValueError("epsilon, r and t are given together or not at all")
        if self.r is not None and (min(self.r, self.t) < 2 or self.r + self.t != self.n):
            raise ValueError(f"no diameter-3 tree with hub degrees r={self.r}, t={self.t} "
                             f"on n={self.n}")
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
                raise ValueError(f"bad edge {(i, j)} for n={self.n}")
        # n - 1 edges connecting 1..n form a tree
        if len(self.edges) != self.n - 1 or not _spans(self.n, self.edges):
            raise ValueError("edges do not form a spanning tree")
        if self.epsilon is None:
            return self
        if self.epsilon not in self.edges:
            raise ValueError(f"epsilon {self.epsilon} is not a tree edge")
        a, b = self.epsilon
        for e in self.edges:
            if a not in e and b not in e:
                raise ValueError(f"edge {e} touches no hub")
        left = {v for e in self.edges if a in e for v in e if v != b}
        if left != set(range(1, self.r + 1)):
            raise ValueError(f"the hub-r side {sorted(left)} is not positions 1..{self.r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: both check the layout too
        return cls(*iterable)

    @property
    def hub_left(self) -> int:
        if self.epsilon is None:
            raise ValueError("hubs defined only for diameter-3 trees")
        return self.epsilon[0]

    @property
    def hub_right(self) -> int:
        if self.epsilon is None:
            raise ValueError("hubs defined only for diameter-3 trees")
        return self.epsilon[1]


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def _spans(n: int, edges) -> bool:
    """Whether every vertex of 1..n is reached from vertex 1 over these edges."""
    reached = {1}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reached) != (j in reached):
                reached.update((i, j))
                grew = True
    return len(reached) == n


def build_tree(r: int, t: int, numbering: str = ORIGINAL) -> TranspositionTree:
    """The diameter-3 tree with hub degrees r and t on n = r + t vertices:
    the hubs sit at positions r and r + 1 (original numbering) or 1 and
    r + 1 (renumbered), and every other position is a leaf of its side's
    hub.  The tree checks the layout."""
    if numbering not in (ORIGINAL, RENUMBERED):
        raise ValueError(f"unknown numbering {numbering!r}")
    hubs = (r if numbering == ORIGINAL else 1, r + 1)
    edges = [hubs] + [_edge(v, hubs[v > r]) for v in range(1, r + t + 1) if v not in hubs]
    return TranspositionTree(n=r + t, edges=tuple(sorted(edges)), epsilon=hubs,
                             r=r, t=t, numbering=numbering)


def star_tree(n: int, hub: int = 1) -> TranspositionTree:
    """The star K_{1,n-1} with the given hub vertex."""
    if n < 2:
        raise ValueError("star tree needs n >= 2")
    edges = tuple(sorted(_edge(hub, v) for v in range(1, n + 1) if v != hub))
    return TranspositionTree(n=n, edges=edges)


@cache
def edge_getters(tree: TranspositionTree) -> tuple[itemgetter, ...]:
    """One getter per tree edge, in edge order: applied to a vertex, the
    getter of edge (i, j) returns its neighbor across that edge."""
    out = []
    for i, j in tree.edges:
        word = list(range(tree.n))
        word[i - 1], word[j - 1] = j - 1, i - 1
        out.append(itemgetter(*word))
    return tuple(out)


def _neighbor_words(tree: TranspositionTree, g: Perm) -> list[Perm]:
    """The neighbors of g in edge order, after checking its degree."""
    if len(g) != tree.n:
        raise ValueError(f"degree mismatch: permutation of degree {len(g)} in X with n={tree.n}")
    return [get(g) for get in edge_getters(tree)]


def neighbors(tree: TranspositionTree, g: Perm) -> list[tuple[Edge, Perm]]:
    return list(zip(tree.edges, _neighbor_words(tree, g)))


def closed_sphere(tree: TranspositionTree, g: Perm) -> frozenset[Perm]:
    """{g} together with all its neighbors; size n."""
    return frozenset([g] + _neighbor_words(tree, g))


def packing_union(tree: TranspositionTree, centers) -> set[Perm] | None:
    """The union of the closed spheres of the centers (a sequence), or
    None when two of them meet.  A closed sphere has n vertices, so the
    spheres are pairwise disjoint iff the union has n per center."""
    covered = set(centers)
    for get in edge_getters(tree):
        covered.update(map(get, centers))
    return covered if len(covered) == tree.n * len(centers) else None


def packing_profile(tree: TranspositionTree, centers) -> dict[frozenset[int], list[Perm]] | None:
    """The centers grouped by component (``centers_by_component``), or
    None when two of their closed spheres meet; {} for a star, which has
    no components and is checked by ``packing_union`` on the whole graph.

    Each component's centers get their own ``packing_union``, which must
    hold exactly as many of all the centers' epsilon-neighbours as the
    component has centers: a closed sphere leaves its center's component
    only across epsilon, the hub-hub edge, so the union holds its own
    centers' epsilon-neighbours, and one more is a sphere from elsewhere
    that meets it.  No union larger than one component's is ever built.
    """
    if tree.r is None:
        return None if packing_union(tree, centers) is None else {}
    groups = centers_by_component(tree, centers)
    across = set(neighbors_across(tree, tree.epsilon, centers))
    for members in groups.values():
        covered = packing_union(tree, members)
        if covered is None or len(covered & across) != len(members):
            return None
    return groups


def neighbors_across(tree: TranspositionTree, edge: Edge, vertices) -> list[Perm]:
    """The neighbour of each vertex across the tree edge ``edge``, in
    order; across epsilon, the hub-hub edge, each lies in another
    component than its vertex."""
    return list(map(edge_getters(tree)[tree.edges.index(edge)], vertices))


def require_components(tree: TranspositionTree) -> int:
    """The hub degree r, after checking that the tree has components:
    a star has none."""
    if tree.r is None:
        raise ValueError("components defined only for diameter-3 trees")
    return tree.r


def component_key(tree: TranspositionTree, values) -> frozenset[int]:
    """``values`` as a component, keyed as by ``component_of``; ValueError
    naming them unless they are r distinct integers of 1..n."""
    r = require_components(tree)
    key = frozenset(values)
    if not is_r_subset(key, tree.n, r):
        # repr sorted by length first: integers in numeric order
        shown = ", ".join(sorted(map(repr, key), key=lambda s: (len(s), s)))
        raise ValueError(f"{{{shown}}} is not a component: it needs {r} distinct "
                         f"values of 1..{tree.n}")
    return key


def component_of(tree: TranspositionTree, g: Perm) -> frozenset[int]:
    """Values occupying the hub-r-side positions of g, which are 1..r
    under both numberings."""
    return frozenset(g[:require_components(tree)])


def centers_by_component(tree: TranspositionTree, centers) -> dict[frozenset[int], list[Perm]]:
    """The centers of each component that has any, keyed as by
    ``component_of``, in order of first appearance; for a lex-ordered
    list of vertices that is ``all_components`` order."""
    left = itemgetter(slice(require_components(tree)))
    groups: dict[frozenset[int], list[Perm]] = {}
    for key, g in zip(map(frozenset, map(left, centers)), centers):
        groups.setdefault(key, []).append(g)
    return groups


def all_components(tree: TranspositionTree) -> list[frozenset[int]]:
    return [frozenset(c) for c in combinations(range(1, tree.n + 1), require_components(tree))]


def component_type(tree: TranspositionTree, values) -> int:
    """Number of pairs {i, r+i} fully contained in the component's value set."""
    if tree.r != tree.t:
        raise ValueError("component types are defined only for r = t")
    values = set(values)
    return sum(1 for i in range(1, tree.r + 1) if i in values and tree.r + i in values)

