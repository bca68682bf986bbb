"""Exhaustive decision and optimization searches.

E-set existence is an exact cover problem: the universe is all n!
vertices and the candidate sets are the closed 1-spheres.  Solved with
iterative dancing links and minimum-remaining-candidates column
selection.  Column sizes live in a bytearray in which a covered column
carries the mark ``_COVERED``, so the first uncovered column of the
smallest size is one ``bytearray.find`` per size value rather than a
Python walk over the header ring.  The right-translation symmetry lets
the search fix the identity as a center (any E-set translates to one
whose spheres include the identity as a center), and absence under that
reduction is absence outright.

Maximum 1-sphere packing is branch and bound over center sets; sphere
disjointness is equivalent to pairwise distance >= 3, so this is a
maximum independent set in the distance-<=2 conflict graph, bounded
per component.  The bound is carried down the search tree: each stack
entry holds its per-component candidate counts, and a child updates
only the components its branch vertex reaches.  The per-component cap
comes from the same search on one component with one vertex forced in,
which vertex-transitivity of a component makes sound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cayley import TranspositionTree, all_components, component_of, edge_getters
from .certify import PackingCertificate, verify_eset, verify_packing
from .perms import Perm, all_perms, lex_unrank

FOUND = "found"
NONE_EXHAUSTIVE = "none_exhaustive"
BEST_EFFORT = "best_effort"

# largest degrees the searches accept: 7! = 5040 vertices to decide
# an E-set or to pack (at n = 8 the packing set-up alone would hold 8!
# conflict masks of up to 8! bits), 5! = 120 to enumerate
_MAX_N = 7
_COUNT_MAX_N = 5

# added to a DLX column's size byte while the column is covered; every
# column has fewer rows (a vertex lies in exactly n closed spheres)
_COVERED = 128


@dataclass
class SearchOutcome:
    status: str
    certificate: PackingCertificate | None
    nodes_explored: int
    wall_budget_exceeded: bool = False
    covered_count: int = 0
    # max_packing: the root bound, or the packing size once exhaustive; None for find_eset
    upper_bound: int | None = None


def _rank_index(n: int) -> dict[Perm, int]:
    """{perm: lex rank} over all degree-n permutations, in rank order."""
    return {g: v for v, g in enumerate(all_perms(n))}


def _sphere_ranks(tree: TranspositionTree, rank: dict[Perm, int]) -> list[list[int]]:
    """sphere[v] = sorted ranks of the closed sphere of the rank-v vertex.

    One column per tree edge: the edge's getter from
    ``cayley.edge_getters`` maps each vertex, in rank order, to its
    neighbor across that edge, and ``rank`` maps the neighbor back to its
    rank.  Both loops run in C; the sphere of v is v plus one entry of
    every column.
    """
    columns = [map(rank.__getitem__, map(get, rank)) for get in edge_getters(tree)]
    return list(map(sorted, zip(range(len(rank)), *columns)))


class _DancingLinks:
    """Array-based dancing links over a 0/1 membership matrix.

    ``size[c]`` is column c's row count, plus ``_COVERED`` while c is
    covered; the root ``size[0]`` holds ``_COVERED`` for good.  A covered
    column's count never changes while it is covered (its remaining rows
    meet no covered column), so the mark is exact.  Columns must have
    fewer than ``_COVERED`` rows.
    """

    def __init__(self, num_cols: int, rows: list[list[int]]):
        total = 1 + num_cols + sum(len(r) for r in rows)
        self.L = [0] * total
        self.R = [0] * total
        self.U = [0] * total
        self.D = [0] * total
        self.C = [0] * total
        size = [0] * (num_cols + 1)
        self.row_of = [-1] * total
        # header ring: node 0 is the root, nodes 1..num_cols the columns
        for c in range(num_cols + 1):
            self.L[c] = c - 1 if c else num_cols
            self.R[c] = (c + 1) % (num_cols + 1)
            self.U[c] = c
            self.D[c] = c
            self.C[c] = c
        nxt = num_cols + 1
        self.row_nodes: list[int] = []
        for ri, cols in enumerate(rows):
            first = nxt
            for c in cols:
                col = c + 1
                node = nxt
                nxt += 1
                self.C[node] = col
                self.row_of[node] = ri
                self.U[node] = self.U[col]
                self.D[node] = col
                self.D[self.U[col]] = node
                self.U[col] = node
                size[col] += 1
                if node == first:
                    self.L[node] = node
                    self.R[node] = node
                else:
                    self.L[node] = self.L[first]
                    self.R[node] = first
                    self.R[self.L[first]] = node
                    self.L[first] = node
            self.row_nodes.append(first)
        if max(size) >= _COVERED:
            raise ValueError(f"a column has {max(size)} rows; at most {_COVERED - 1} allowed")
        size[0] = _COVERED
        self.size = bytearray(size)

    def cover(self, col: int) -> None:
        L, R, U, D, C, size = self.L, self.R, self.U, self.D, self.C, self.size
        R[L[col]] = R[col]
        L[R[col]] = L[col]
        size[col] += _COVERED
        i = D[col]
        while i != col:
            j = R[i]
            while j != i:
                D[U[j]] = D[j]
                U[D[j]] = U[j]
                size[C[j]] -= 1
                j = R[j]
            i = D[i]

    def uncover(self, col: int) -> None:
        L, R, U, D, C, size = self.L, self.R, self.U, self.D, self.C, self.size
        i = U[col]
        while i != col:
            j = L[i]
            while j != i:
                size[C[j]] += 1
                D[U[j]] = j
                U[D[j]] = j
                j = L[j]
            i = U[i]
        size[col] -= _COVERED
        R[L[col]] = col
        L[R[col]] = col

    def select_row(self, node: int) -> None:
        self.cover(self.C[node])
        j = self.R[node]
        while j != node:
            self.cover(self.C[j])
            j = self.R[j]

    def deselect_row(self, node: int) -> None:
        j = self.L[node]
        while j != node:
            self.uncover(self.C[j])
            j = self.L[j]
        self.uncover(self.C[node])

    def solve(self):
        """Yield every solution (a list of row indices) by exhaustive enumeration.

        Iterative: ``chosen`` holds one selected row node per level.  A
        branch takes the first column with the fewest rows and tries its
        rows top to bottom; backtracking pops the deepest level, deselects
        it and moves down to the next row of the same column, popping
        again when that is the column header.  ``self.nodes`` counts
        branches.

        The header ring always lists the uncovered columns in index order
        (``uncover`` restores a column in place), and covered columns and
        the root carry ``_COVERED`` in ``size``, so ``size.find(k)`` for
        k = 0, 1, 2, ... stops at exactly that column: the first
        uncovered one of the smallest size, a dead end when k is 0.
        """
        R, D, C, row_of = self.R, self.D, self.C, self.row_of
        find = self.size.find
        self.nodes = 0
        chosen: list[int] = []
        while True:
            if R[0] == 0:
                yield [row_of[node] for node in chosen]
            else:
                # minimum remaining candidates column
                k = 0
                best = find(0)
                while best < 0:
                    k += 1
                    best = find(k)
                if k:
                    self.nodes += 1
                    node = D[best]
                    chosen.append(node)
                    self.select_row(node)
                    continue
            while chosen:
                node = chosen.pop()
                self.deselect_row(node)
                node = D[node]
                if node != C[node]:
                    chosen.append(node)
                    self.select_row(node)
                    break
            else:
                return


def _cert_from_ranks(tree: TranspositionTree, ranks) -> PackingCertificate:
    centers = sorted(lex_unrank(v, tree.n) for v in ranks)
    return PackingCertificate(n=tree.n, kind="one_sphere", centers=centers,
                              r=tree.r, t=tree.t, numbering=tree.numbering)


def find_eset(tree: TranspositionTree, symmetry: bool = True) -> SearchOutcome:
    """Decide whether the Cayley graph has an efficient dominating set."""
    if tree.n > _MAX_N:
        raise ValueError(f"n={tree.n} too large: {math.factorial(tree.n)} vertices")
    spheres = _sphere_ranks(tree, _rank_index(tree.n))
    dlx = _DancingLinks(len(spheres), spheres)
    # the identity has lex rank 0
    forced = [0] if symmetry else []
    for v in forced:
        dlx.select_row(dlx.row_nodes[v])
    for rows in dlx.solve():
        cert = _cert_from_ranks(tree, forced + rows)
        report = verify_eset(tree, cert)
        assert report.is_eset, "search returned an unsound certificate"
        return SearchOutcome(status=FOUND, certificate=cert, nodes_explored=dlx.nodes,
                             covered_count=report.covered_count)
    return SearchOutcome(status=NONE_EXHAUSTIVE, certificate=None, nodes_explored=dlx.nodes)


def count_esets(tree: TranspositionTree) -> int:
    """Number of distinct E-sets, by exhaustive exact-cover enumeration."""
    if tree.n > _COUNT_MAX_N:
        raise ValueError(f"n={tree.n} too large for exhaustive enumeration")
    spheres = _sphere_ranks(tree, _rank_index(tree.n))
    dlx = _DancingLinks(len(spheres), spheres)
    return sum(1 for _ in dlx.solve())


def _branch_and_bound(cand: int, conflict: list[int], comp_masks: list[int], cap: int,
                      node_budget: int, deadline: float | None) -> tuple[list[int], int, bool]:
    """Maximum independent set of the candidate bitmask in the conflict graph.

    ``conflict[v]`` contains v, and the disjoint ``comp_masks`` cover
    ``cand``.  The bound at a node is the sum over components of
    min(cap, candidates left in the component), so ``cap`` must be at
    least the largest independent set inside any one component; with
    ``cap`` the component size it is the candidate count.

    Iterative depth-first search over an explicit stack, in preorder:
    take the lowest candidate first, then skip it.  A node is pruned when
    its depth plus its bound cannot beat the incumbent.  Each stack entry
    carries its per-component candidate counts and bound, derived from
    its parent's: skipping v lowers v's component count by 1, and taking
    v lowers the count of each component j that ``conflict[v]`` meets by
    the candidates in ``conflict[v] & comp_masks[j]``.  Returns (best
    ranks, nodes expanded, exhaustive); the search stops before
    expanding node ``node_budget + 1`` or once ``time.monotonic()``
    passes ``deadline``.
    """
    # home[v]: v's component index; parts[v]: (j, conflict[v] & comp_masks[j])
    # for each component j that conflict[v] meets, over the candidates v
    home: list[int] = [0] * len(conflict)
    parts: list[list[tuple[int, int]]] = [[]] * len(conflict)
    for j, mask in enumerate(comp_masks):
        rest = cand & mask
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            home[v] = j
            parts[v] = [(i, p) for i, m in enumerate(comp_masks) if (p := conflict[v] & m)]
    counts = [(cand & mask).bit_count() for mask in comp_masks]
    bound = sum(min(cap, c) for c in counts)

    best: list[int] = []
    chosen: list[int] = []
    nodes = 0
    # (candidates, depth of the parent, vertex taken on the way here or None,
    #  candidates per component, bound); each entry owns its counts list
    stack = [(cand, 0, None, counts, bound)]
    while stack:
        if nodes >= node_budget or (deadline is not None and time.monotonic() > deadline):
            return best, nodes, False
        nodes += 1
        cand, depth, v, counts, bound = stack.pop()
        del chosen[depth:]
        if v is not None:
            chosen.append(v)
            depth += 1
        if depth > len(best):
            best = chosen[:]
        if depth + bound <= len(best):
            continue
        b = cand & -cand
        v = b.bit_length() - 1
        taken = counts[:]
        take_bound = bound
        for j, part in parts[v]:
            c = taken[j]
            left = c - (cand & part).bit_count()
            taken[j] = left
            if left < cap:
                take_bound -= (c if c < cap else cap) - left
        j = home[v]
        if counts[j] <= cap:
            bound -= 1
        counts[j] -= 1
        stack.append((cand ^ b, depth, None, counts, bound))
        stack.append((cand & ~conflict[v], depth, v, taken, take_bound))
    return best, nodes, True


def _packing_graph(tree: TranspositionTree) -> tuple[list[int], list[int]]:
    """(conflict, comp_masks) over lex ranks: conflict[v] is the bitmask
    of vertices at distance <= 2 from v (their spheres meet v's), and
    comp_masks holds one bitmask per component (the whole graph for a
    star)."""
    rank = _rank_index(tree.n)
    spheres = _sphere_ranks(tree, rank)
    conflict = []
    for sph in spheres:
        m = 0
        for u in sph:
            for w in spheres[u]:
                m |= 1 << w
        conflict.append(m)
    if tree.r is None:
        return conflict, [(1 << len(rank)) - 1]
    comp_mask = dict.fromkeys(all_components(tree), 0)
    for g, v in rank.items():
        comp_mask[component_of(tree, g)] |= 1 << v
    return conflict, list(comp_mask.values())


def max_packing(tree: TranspositionTree, node_budget: int = 2_000_000,
                time_budget: float | None = None) -> SearchOutcome:
    """Branch and bound for a maximum 1-sphere packing.

    The bound caps each component's share of the candidates at the
    exact maximum packing inside one component.  A value relabelling
    g -> x o g is a graph automorphism taking any component onto any
    other, so one cap serves them all.  It is found by the same search
    on the first component, with the cap set to the component size (the
    bound is then the candidate count) and with the component's lowest
    vertex v0 forced in: the cap is 1 + the best packing of the
    component minus the conflicts of v0.  Forcing is sound because the
    component of g is the coset g o H, H the permutations that keep the
    set of left positions (all of S_n for a star), and the relabelling
    x -> (g o h o g^-1) o x maps that coset onto itself and g to g o h,
    so some maximum packing of a component contains any chosen vertex
    of it.  If the cap search runs out of budget, the cap falls back to
    the component size.  Both searches get ``node_budget`` nodes and
    share the ``time_budget`` deadline; ``nodes_explored`` counts the
    main search only.  The main search carries its bound down the tree
    (see ``_branch_and_bound``) with the values, and so the preorder, of
    recomputing it per node.

    Forcing shrinks the cap search, not the cap: wherever the search
    without v0 forced would also finish within the budget, the output
    is the same.  Where only the forced search finishes, the exact cap
    replaces the component size; a tighter valid bound prunes only
    subtrees that cannot beat the incumbent, so the packing found
    within the same budget is at least as large.

    ``upper_bound`` is the packing size when the main search is
    exhaustive, else the smaller of the root bound ``cap * len(comp_masks)``
    and the sphere-volume bound n! // n (disjoint closed spheres of n
    vertices each).  The status is ``found`` whenever the packing meets
    ``upper_bound``, so a stopped search that reached the bound is
    reported optimal; ``wall_budget_exceeded`` still says that it
    stopped.  The verifier re-checks the packing before it is returned.
    Degrees above 7 are refused before any set-up.
    """
    if tree.n > _MAX_N:
        raise ValueError(f"n={tree.n} too large: {math.factorial(tree.n)} vertices")
    conflict, comp_masks = _packing_graph(tree)
    deadline = None if time_budget is None else time.monotonic() + time_budget

    first = comp_masks[0]
    size = first.bit_count()
    v0 = (first & -first).bit_length() - 1
    sample, _, exact = _branch_and_bound(first & ~conflict[v0], conflict, [first], size,
                                         node_budget, deadline)
    cap = 1 + len(sample) if exact else size

    best, nodes, exhaustive = _branch_and_bound((1 << len(conflict)) - 1, conflict, comp_masks,
                                                cap, node_budget, deadline)
    cert = _cert_from_ranks(tree, best)
    report = verify_packing(tree, cert)
    assert report.valid, "search returned an unsound certificate"
    bound = len(best) if exhaustive else min(cap * len(comp_masks), len(conflict) // tree.n)
    return SearchOutcome(status=FOUND if len(best) == bound else BEST_EFFORT, certificate=cert,
                         nodes_explored=nodes, wall_budget_exceeded=not exhaustive,
                         covered_count=report.covered_count, upper_bound=bound)
