"""Exhaustive decision and optimization searches.

E-set existence is an exact cover problem: the universe is all n!
vertices and the candidate sets are the closed 1-spheres.  Its one
input is the sphere table, read both as rows and as columns (closed
spheres are symmetric; see ``_ExactCover``).  Solved by iterative
Algorithm X with minimum-remaining-candidates column selection on two
bytearrays: one live flag per row and one live-row count per column, in
which a covered column carries the mark ``_COVERED``, so the first
uncovered column of the smallest size is one ``bytearray.find`` per
size value.  Selecting a row kills the live rows that meet its columns,
itself first and without decrements, since its own columns are all
covered; there is no unselect.  A level that branches snapshots both
arrays with ``bytes`` and backtracking copies them back.
The right-translation symmetry lets the search fix the identity as a
center (any E-set translates to one whose spheres include the identity
as a center), and absence under that reduction is absence outright.

Both searches index vertices by lex rank through per-degree tables
kept for the life of the process, built only for the degrees they
accept (n <= 7): the lex-ordered tuple of all n! permutations with its
{perm: rank} dict, and one rank-space column per position pair (i, j),
mapping rank v to the rank of the rank-v permutation with positions i
and j swapped.  A tree's sphere table zips the columns of its edges, so
no permutation is hashed per call, and a certificate's centers are its
sorted ranks looked up in the tuple.  At n = 7 the tables hold 5040
permutations and at most C(7, 2) = 21 columns.

Maximum 1-sphere packing is branch and bound over center sets; sphere
disjointness is equivalent to pairwise distance >= 3, so this is a
maximum independent set in the distance-<=2 conflict graph, whose masks
are unions of sphere masks.  The bound caps each component's candidates
at the exact packing of one component, found by the same search with
one vertex forced in, and is carried down the search tree
(``_branch_and_bound``); a vertex's tables are built when the search
first branches on it, and a budgeted search branches on few vertices.
Value relabellings, which are automorphisms, carry that component's
packing onto every other before the main search (``_translated_packing``).
The translated packing, finished greedily, ends the search when it meets
the root bound, and is returned when it beats a stopped search's.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from functools import cache, reduce
from operator import or_

from .cayley import TranspositionTree, all_components, centers_by_component, edge_getters, star_tree
from .certify import certified
from .perms import Perm, all_perms, compose, invert

FOUND = "found"
NONE_EXHAUSTIVE = "none_exhaustive"
BEST_EFFORT = "best_effort"

# largest degree the searches accept: 7! = 5040 vertices to decide
# an E-set or to pack (at n = 8 the packing set-up alone would hold 8!
# conflict masks of up to 8! bits)
_MAX_N = 7

# with a deadline, the branch and bound reads the clock once per this
# many nodes
_CLOCK_EVERY = 256

# an exact-cover column's size byte while the column is covered; an
# uncovered column's live-row count is always smaller (a vertex lies in
# exactly n <= 7 closed spheres)
_COVERED = 128


# upper_bound: max_packing's root bound, or the packing size once
# exhaustive; None for find_eset
SearchOutcome = namedtuple("SearchOutcome", "status certificate nodes_explored "
                           "wall_budget_exceeded covered_count upper_bound",
                           defaults=(False, 0, None))


# (n, i, j) -> the swap column of positions i, j (see _swap_columns);
# at most C(7, 2) = 21 columns per degree
_COLUMNS: dict[tuple[int, int, int], tuple[int, ...]] = {}


@cache
def _lex_table(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    """(perms, rank): every degree-n permutation in lex order, so perms[v]
    has rank v, and the {perm: rank} dict.  Built once per degree, and
    only for degrees the searches accept."""
    if n > _MAX_N:
        raise ValueError(f"no lex table for n={n} > {_MAX_N}")
    perms = tuple(all_perms(n))
    return perms, {g: v for v, g in enumerate(perms)}


def _swap_columns(tree: TranspositionTree) -> list[tuple[int, ...]]:
    """One rank-space column per tree edge, in edge order: the column of
    edge (i, j) maps rank v to the rank of the rank-v permutation with
    positions i and j swapped.  Columns are shared by every tree of the
    degree with that edge and built on first use, from the edge's getter
    in ``cayley.edge_getters`` and the lex table."""
    perms, rank = _lex_table(tree.n)
    out = []
    for (i, j), get in zip(tree.edges, edge_getters(tree)):
        col = _COLUMNS.get((tree.n, i, j))
        if col is None:
            col = _COLUMNS[tree.n, i, j] = tuple(map(rank.__getitem__, map(get, perms)))
        out.append(col)
    return out


@cache
def _value_columns(n: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """{(a, b): column} for values a != b, mapping rank v to the rank of
    (a b) o g, g = perms[v]: g^-1 with positions a and b swapped, inverted,
    so the swap column of the star with hub min(a, b) between inverse lookups."""
    perms, rank = _lex_table(n)
    inv = [rank[invert(g)] for g in perms]
    cols = {(a, b): tuple(map(inv.__getitem__, map(col.__getitem__, inv)))
            for a in range(1, n)
            for b, col in zip(range(a + 1, n + 1), _swap_columns(star_tree(n, a))[a - 1:])}
    return cols | {(b, a): col for (a, b), col in cols.items()}


def _plain_changes(m: int) -> list[int]:
    """Steinhaus-Johnson-Trotter order: swapping places k and k + 1 for
    each k of the list in turn visits all m! orders of m items once.  The
    last item sweeps to the front and back between the swaps of the rest."""
    out: list[int] = []
    for i, k in enumerate(_plain_changes(m - 1) + [-1] if m > 1 else []):
        out += range(m - 2, -1, -1) if i % 2 == 0 else range(m - 1)
        if k >= 0:
            out.append(k + (i % 2 == 0))
    return out


def _translated_packing(tree: TranspositionTree, conflict: list[int],
                        packing: list[int]) -> list[int]:
    """A packing of the whole graph from a packing of the first component.

    Each component is the image of the first under the r!t! value
    relabellings g -> x o g with x mapping 1..r onto it, which are graph
    automorphisms.  They are walked in plain-changes order, so each step
    maps the image through one value-transposition column.  Per component
    in ``all_components`` order, the first image with the fewest centers
    in conflict with those already chosen gives its other centers; one
    greedy pass over all ranks then fills the gaps."""
    n, r = tree.n, tree.r
    perms, rank = _lex_table(n)
    columns = _value_columns(n)
    inner = _plain_changes(r)
    steps = inner + [s for k in _plain_changes(n - r) for s in (r + k, *inner)] + [-1]
    chosen: list[int] = []
    blocked = 0
    flags = bytes(len(conflict))  # flags[v]: does rank v conflict with a chosen center?
    bits = bytes.maketrans(b"01", b"\0\1")
    for comp in all_components(tree):
        x = sorted(comp) + sorted(set(range(1, n + 1)) - comp)
        image = [rank[compose(tuple(x), perms[v])] for v in packing]
        least = len(image) + 1
        for k in steps:
            hits = sum(map(flags.__getitem__, image))
            if hits < least:
                best, least = image, hits
                if not hits:
                    break
            if k < 0:
                break
            x[k], x[k + 1] = x[k + 1], x[k]
            image = list(map(columns[x[k], x[k + 1]].__getitem__, image))
        # an image is a packing, so its centers block none of each other
        new = [v for v in best if not flags[v]]
        chosen += new
        blocked = reduce(or_, map(conflict.__getitem__, new), blocked)
        flags = format(blocked, "b").zfill(len(conflict))[::-1].encode().translate(bits)
    free = ~blocked & ((1 << len(conflict)) - 1)
    while free:
        v = (free & -free).bit_length() - 1
        chosen.append(v)
        free &= ~conflict[v]
    return chosen


def _sphere_ranks(tree: TranspositionTree) -> list[list[int]]:
    """sphere[v] = sorted ranks of the closed sphere of the rank-v vertex:
    v plus one entry of every edge's swap column."""
    return list(map(sorted, zip(range(math.factorial(tree.n)), *_swap_columns(tree))))


class _ExactCover:
    """Exact cover of the vertices by closed spheres, backtracked by snapshots.

    ``spheres[v]`` lists the ranks in the closed sphere of vertex v,
    ascending.  It is read both as row v (the vertices sphere v covers)
    and as column v (the spheres that cover vertex v): u lies in the
    sphere of v exactly when v lies in the sphere of u, so the table is
    its own transpose.  ``live[r]`` is 1 while sphere r meets no covered
    vertex, and ``size[c]`` is vertex c's count of live spheres, or
    exactly ``_COVERED`` once c is covered.
    """

    def __init__(self, spheres: list[list[int]]):
        self.spheres = spheres
        self.size = bytearray(map(len, spheres))
        self.live = bytearray(b"\1") * len(spheres)

    def select_row(self, row: int) -> None:
        """Put live row ``row`` in the cover: cover each of its columns,
        killing every live row that meets one.  A killed row's columns
        lose one live row each, and a covered column then carries
        ``_COVERED``; no live row meets it afterwards.  ``row`` itself is
        killed first, without decrements: it lies only in its own
        columns, which all end up covered."""
        spheres, size, live = self.spheres, self.size, self.live
        live[row] = 0
        for c in spheres[row]:
            for w in spheres[c]:
                if live[w]:
                    live[w] = 0
                    for d in spheres[w]:
                        size[d] -= 1
            size[c] = _COVERED

    def solve(self):
        """Yield every solution (a list of row indices) by exhaustive enumeration.

        Iterative: ``chosen`` holds the row selected at each level.  A
        branch takes the first uncovered column with the fewest live rows
        (``size.find(k)`` for k = 0, 1, 2, ..., a dead end when k is 0)
        and tries its live rows in ascending index, which is the dancing
        links order.  A level with two or more rows pushes a snapshot of
        ``size``, ``live`` and the uncovered count before its first row;
        backtracking restores the deepest snapshot in place, by slice
        assignment, and selects that level's next row, dropping the
        snapshot with its last row.  A level with one row pushes nothing,
        so a deep, nearly forced path costs no memory per level.
        ``self.nodes`` counts branches.
        """
        spheres, size, live = self.spheres, self.size, self.live
        find = size.find
        select = self.select_row
        self.nodes = 0
        uncovered = len(size) - size.count(_COVERED)
        chosen: list[int] = []
        # (depth, untried rows in reverse order, size, live, uncovered)
        branches: list[tuple[int, list[int], bytes, bytes, int]] = []
        while True:
            row = -1
            if uncovered:
                # minimum remaining candidates column
                k = 0
                best = find(0)
                while best < 0:
                    k += 1
                    best = find(k)
                if k:
                    self.nodes += 1
                    picks = [w for w in spheres[best] if live[w]]
                    row = picks[0]
                    if k > 1:
                        branches.append((len(chosen), picks[:0:-1], bytes(size), bytes(live),
                                         uncovered))
            else:
                yield chosen[:]
            if row < 0:
                if not branches:
                    return
                depth, untried, was_size, was_live, uncovered = branches[-1]
                size[:] = was_size
                live[:] = was_live
                row = untried.pop()
                if not untried:
                    branches.pop()
                del chosen[depth:]
            chosen.append(row)
            select(row)
            uncovered -= len(spheres[row])


def _centers_from_ranks(n: int, ranks) -> list[Perm]:
    """The degree-n permutations of these lex ranks, sorted: lex order is
    rank order, so sorted ranks index sorted centers."""
    perms = _lex_table(n)[0]
    return [perms[v] for v in sorted(ranks)]


def find_eset(tree: TranspositionTree, symmetry: bool = True) -> SearchOutcome:
    """Decide whether the Cayley graph has an efficient dominating set."""
    if tree.n > _MAX_N:
        raise ValueError(f"n={tree.n} too large: {math.factorial(tree.n)} vertices")
    cover = _ExactCover(_sphere_ranks(tree))
    # the identity has lex rank 0
    forced = [0] if symmetry else []
    for v in forced:
        cover.select_row(v)
    for rows in cover.solve():
        cert, report = certified(tree, _centers_from_ranks(tree.n, forced + rows))
        assert report.is_eset, "search returned an unsound certificate"
        return SearchOutcome(status=FOUND, certificate=cert, nodes_explored=cover.nodes,
                             covered_count=report.covered_count)
    return SearchOutcome(status=NONE_EXHAUSTIVE, certificate=None, nodes_explored=cover.nodes)


def _branch_and_bound(cand: int, conflict: list[int], comp_masks: list[int], cap: int,
                      node_budget: int | None,
                      deadline: float | None) -> tuple[list[int], int, bool]:
    """Maximum independent set of the candidate bitmask in the conflict graph.

    ``conflict[v]`` contains v, and the disjoint ``comp_masks`` cover
    ``cand``.  The bound at a node is the sum over components of
    min(cap, candidates left in the component), so ``cap`` must be at
    least the largest independent set inside any one component; with
    ``cap`` the component size it is the candidate count.

    Iterative depth-first search in preorder: take the lowest candidate
    first, then skip it.  A node is pruned when its depth plus its bound
    cannot beat the incumbent.  An expanded node pushes its skip child
    and goes on to its take child in place, so the explicit stack holds
    only skip children.  Each node carries its per-component candidate
    counts and bound, derived from its parent's: skipping v lowers v's
    component count by 1, and taking v lowers the count of each
    component j that ``conflict[v]`` meets by the candidates in
    ``conflict[v] & comp_masks[j]``.  Those parts, cut to the root
    candidates, are split when v first branches, not at set-up: a budgeted
    search branches on few vertices.  A part of two or more vertices keeps
    a (j, part) entry in ``parts[v]``: its candidates are counted by
    ``bit_count``, and a part that holds none costs one test and no
    update.  The single-vertex parts form one mask ``ones[v]``, and each
    vertex of ``cand & ones[v]`` lowers its ``home`` component's count by
    1, so a vertex that is no longer a candidate moves no count.  The take
    child's candidates are ``cand & keep[v]``, ``keep[v]`` being the root
    candidates outside ``conflict[v]``: a positive mask, which ANDs faster
    than ``~conflict[v]``.  The path to a node is a linked pair (last
    vertex taken, path to the parent), None at the root, which every node
    below shares; the best one becomes a list only on return.  Returns
    (best ranks in the order taken, nodes expanded, exhaustive); the
    search stops before expanding node ``node_budget + 1`` (None: no node
    cap) or, with a deadline, at the first clock reading past
    ``deadline``.  The clock is read before nodes 1, 1 + ``_CLOCK_EVERY``,
    1 + 2 * ``_CLOCK_EVERY``, ..., so a deadline stops the search at a
    multiple of ``_CLOCK_EVERY`` nodes.
    """
    # per candidate v: home[v], its component index, and tables[v], None until v branches
    root = cand
    home: list[int] = [0] * len(conflict)
    tables: list[tuple[int, list[tuple[int, int]], int] | None] = [None] * len(conflict)
    for j, mask in enumerate(comp_masks):
        rest = cand & mask
        while rest:
            low = rest & (rest - 1)
            home[(rest ^ low).bit_length() - 1] = j
            rest = low
    counts = [(cand & mask).bit_count() for mask in comp_masks]
    bound = sum(min(cap, c) for c in counts)

    best = None
    best_depth = nodes = 0
    limit = math.inf if node_budget is None else node_budget
    # the node count at which to stop or, with a deadline, to read the clock
    check = limit if deadline is None else 0
    # skip children: (candidates, path, depth, candidates per component,
    # bound); each entry owns its counts list
    stack = [(cand, None, 0, counts, bound)]
    while stack:
        cand, path, depth, counts, bound = stack.pop()
        while True:
            if nodes >= check:
                if nodes >= limit or time.monotonic() > deadline:
                    return _unlink(best), nodes, False
                check = min(limit, nodes + _CLOCK_EVERY)
            nodes += 1
            if depth > best_depth:
                best, best_depth = path, depth
            if depth + bound <= best_depth:
                break
            rest = cand & (cand - 1)
            v = (cand ^ rest).bit_length() - 1
            if (table := tables[v]) is None:
                row = conflict[v] & root
                parts = []
                ones = 0
                for i, m in enumerate(comp_masks):
                    if p := row & m:
                        if p & (p - 1):
                            parts.append((i, p))
                        else:
                            ones |= p
                table = tables[v] = (root ^ row, parts, ones)
            keep, parts, ones = table
            taken = counts[:]
            take_bound = bound
            for j, part in parts:
                if hit := cand & part:
                    c = taken[j]
                    left = c - hit.bit_count()
                    taken[j] = left
                    if left < cap:
                        take_bound -= (c if c < cap else cap) - left
            hit = cand & ones
            while hit:
                low = hit & (hit - 1)
                j = home[(hit ^ low).bit_length() - 1]
                hit = low
                if taken[j] <= cap:
                    take_bound -= 1
                taken[j] -= 1
            j = home[v]
            if counts[j] <= cap:
                bound -= 1
            counts[j] -= 1
            stack.append((rest, path, depth, counts, bound))
            cand, path, depth, counts, bound = (cand & keep, (v, path), depth + 1,
                                                taken, take_bound)
    return _unlink(best), nodes, True


def _unlink(path) -> list[int]:
    """The vertices of a linked (v, parent) path, root first."""
    out = []
    while path is not None:
        v, path = path
        out.append(v)
    out.reverse()
    return out


def _packing_graph(tree: TranspositionTree) -> tuple[list[int], list[int]]:
    """(conflict, comp_masks) over lex ranks: conflict[v] is the bitmask
    of vertices at distance <= 2 from v (their spheres meet v's), the
    union of the sphere masks over v's sphere, and comp_masks holds one
    bitmask per component in ``all_components`` order (the whole graph
    for a star)."""
    spheres = _sphere_ranks(tree)
    masks = [reduce(or_, map((1).__lshift__, sph)) for sph in spheres]
    conflict = [reduce(or_, map(masks.__getitem__, sph)) for sph in spheres]
    if tree.r is None:
        return conflict, [(1 << len(spheres)) - 1]
    perms, rank = _lex_table(tree.n)
    # first appearance in lex order is all_components order
    return conflict, [reduce(or_, map((1).__lshift__, map(rank.__getitem__, members)))
                      for members in centers_by_component(tree, perms).values()]


def max_packing(tree: TranspositionTree, node_budget: int | None = 2_000_000,
                time_budget: float | None = None) -> SearchOutcome:
    """Branch and bound for a maximum 1-sphere packing.

    The bound caps each component's share of the candidates at the
    exact maximum packing inside one component.  A value relabelling
    g -> x o g is a graph automorphism taking any component onto any
    other, so one cap serves them all.  It is found by the same search
    on the first component, with the cap set to the component size and
    with the component's lowest vertex v0 forced in: the cap is 1 + the
    best packing of the component minus the conflicts of v0.  Forcing is
    sound because the component of g is the coset g o H, H the
    permutations that keep the set of left positions (all of S_n for a
    star), and the relabelling x -> (g o h o g^-1) o x maps that coset
    onto itself and g to g o h, so some maximum packing of a component
    contains any chosen vertex of it.  Forcing shrinks the cap search,
    not the cap, and a tighter valid bound prunes only subtrees that
    cannot beat the incumbent.  If the cap search runs out of budget,
    the cap falls back to the component size.  Both searches get
    ``node_budget`` nodes (None: no node cap) and end by the
    ``time_budget`` deadline; the cap search may spend at most half of
    ``time_budget`` when there is a main search to follow.  A star is
    one component, so its cap search, with v0, is the whole search.

    With more than one component, v0 and the cap search's packing are
    then translated onto every component (``_translated_packing``, which
    reads no clock).  A translated packing that meets the root bound
    (below) is optimal and is returned as exhaustive, with no main
    search; otherwise, when the main search stops before it is
    exhaustive, the larger of the two packings is returned, the main
    search's on a tie.  ``nodes_explored`` counts the main search only.

    ``upper_bound`` is the packing size when the search is exhaustive,
    else the root bound: the smaller of ``cap * len(comp_masks)`` and the
    sphere-volume bound n! // n (disjoint closed spheres of n vertices
    each).  The status is ``found`` whenever the packing meets
    ``upper_bound``, so a stopped search that reached the bound is
    reported optimal; ``wall_budget_exceeded`` still says that it
    stopped.  The verifier re-checks the packing before it is returned.
    Degrees above 7, a ``node_budget`` below 1 and a ``time_budget``
    that is not positive are refused before any set-up.
    """
    if tree.n > _MAX_N:
        raise ValueError(f"n={tree.n} too large: {math.factorial(tree.n)} vertices")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node_budget must be positive, got {node_budget}")
    if time_budget is not None and not time_budget > 0:
        raise ValueError(f"time_budget must be positive, got {time_budget}")
    conflict, comp_masks = _packing_graph(tree)
    deadline = cap_deadline = None
    if time_budget is not None:
        deadline = time.monotonic() + time_budget
        # a star's cap search is its whole search; elsewhere it may spend
        # at most half the time, so the main search gets the rest
        cap_deadline = deadline - (time_budget / 2 if len(comp_masks) > 1 else 0)

    first = comp_masks[0]
    size = first.bit_count()
    v0 = (first & -first).bit_length() - 1
    sample, nodes, exact = _branch_and_bound(first & ~conflict[v0], conflict, [first], size,
                                             node_budget, cap_deadline)
    cap = 1 + len(sample) if exact else size
    root = min(cap * len(comp_masks), len(conflict) // tree.n)
    if len(comp_masks) == 1:
        # a star: the cap search already searched the whole graph
        best, exhaustive = [v0] + sample, exact
    else:
        translated = _translated_packing(tree, conflict, [v0] + sample)
        if len(translated) == root:
            # optimal: no main search can do better
            best, nodes, exhaustive = translated, 0, True
        else:
            best, nodes, exhaustive = _branch_and_bound((1 << len(conflict)) - 1, conflict,
                                                        comp_masks, cap, node_budget, deadline)
            if not exhaustive:
                best = max(best, translated, key=len)
    cert, report = certified(tree, _centers_from_ranks(tree.n, best))
    assert report.valid, "search returned an unsound certificate"
    bound = len(best) if exhaustive else root
    return SearchOutcome(status=FOUND if len(best) == bound else BEST_EFFORT, certificate=cert,
                         nodes_explored=nodes, wall_budget_exceeded=not exhaustive,
                         covered_count=report.covered_count, upper_bound=bound)
