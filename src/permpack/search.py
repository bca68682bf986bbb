"""Exhaustive decision and optimization searches.

E-set existence is an exact cover problem: the universe is all n!
vertices and the candidate sets are the closed 1-spheres.  Solved with
dancing links and minimum-remaining-candidates column selection; the
right-translation symmetry lets the search fix the identity as a center
(any E-set translates to one whose spheres include the identity as a
center), and absence under that reduction is absence outright.

Maximum 1-sphere packing is branch and bound over center sets; sphere
disjointness is equivalent to pairwise distance >= 3, so this is a
maximum independent set in the distance-<=2 conflict graph, bounded
per component.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cayley import (TranspositionTree, all_components, closed_sphere,
                     component_of)
from .certify import PackingCertificate, verify_eset
from .perms import Perm, all_perms, identity, lex_rank, lex_unrank

FOUND = "found"
NONE_EXHAUSTIVE = "none_exhaustive"
BEST_EFFORT = "best_effort"


@dataclass
class SearchOutcome:
    status: str
    certificate: PackingCertificate | None
    nodes_explored: int
    wall_budget_exceeded: bool = False
    covered_count: int = 0
    solution_count: int | None = None


def _rank_index(n: int) -> dict[Perm, int]:
    """{perm: lex rank} over all degree-n permutations, in rank order."""
    return {g: v for v, g in enumerate(all_perms(n))}


def _sphere_ranks(tree: TranspositionTree, rank: dict[Perm, int]) -> list[list[int]]:
    """sphere[v] = sorted ranks of the closed sphere of the rank-v vertex."""
    return [sorted(rank[h] for h in closed_sphere(tree, g)) for g in rank]


class _DancingLinks:
    """Array-based dancing links over a 0/1 membership matrix."""

    def __init__(self, num_cols: int, rows: list[list[int]]):
        total = 1 + num_cols + sum(len(r) for r in rows)
        self.L = [0] * total
        self.R = [0] * total
        self.U = [0] * total
        self.D = [0] * total
        self.C = [0] * total
        self.size = [0] * (num_cols + 1)
        self.row_of = [-1] * total
        self.num_cols = num_cols
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
                self.size[col] += 1
                if node == first:
                    self.L[node] = node
                    self.R[node] = node
                else:
                    self.L[node] = self.L[first]
                    self.R[node] = first
                    self.R[self.L[first]] = node
                    self.L[first] = node
            self.row_nodes.append(first)

    def cover(self, col: int) -> None:
        L, R, U, D, C, size = self.L, self.R, self.U, self.D, self.C, self.size
        R[L[col]] = R[col]
        L[R[col]] = L[col]
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

    def solve(self, stop_after: int | None = None):
        """Yield solutions (lists of row indices); exhaustive enumeration."""
        self.nodes = 0
        self.found = 0
        yield from self._search([], stop_after)

    def _search(self, stack: list[int], stop_after: int | None):
        R, D, size = self.R, self.D, self.size
        if R[0] == 0:
            self.found += 1
            yield [self.row_of[n] for n in stack]
            return
        # minimum remaining candidates column
        col = R[0]
        best = col
        c = R[col]
        while c != 0:
            if size[c] < size[best]:
                best = c
                if size[best] == 0:
                    break
            c = R[c]
        if size[best] == 0:
            return
        self.nodes += 1
        node = D[best]
        while node != best:
            stack.append(node)
            self.select_row(node)
            yield from self._search(stack, stop_after)
            self.deselect_row(node)
            stack.pop()
            if stop_after is not None and self.found >= stop_after:
                return
            node = D[node]


def _cert_from_ranks(tree: TranspositionTree, ranks) -> PackingCertificate:
    centers = sorted(lex_unrank(v, tree.n) for v in ranks)
    return PackingCertificate(n=tree.n, kind="one_sphere", centers=centers,
                              r=tree.r, t=tree.t, numbering=tree.numbering)


def find_eset(tree: TranspositionTree, symmetry: bool = True,
              max_degree: int = 7) -> SearchOutcome:
    """Decide whether the Cayley graph has an efficient dominating set."""
    if tree.n > max_degree:
        raise ValueError(f"n={tree.n} too large: {math.factorial(tree.n)} vertices")
    spheres = _sphere_ranks(tree, _rank_index(tree.n))
    dlx = _DancingLinks(len(spheres), spheres)
    if symmetry:
        forced = [lex_rank(identity(tree.n))]
        dlx.select_row(dlx.row_nodes[forced[0]])
    else:
        forced = []
    for rows in dlx.solve(stop_after=1):
        cert = _cert_from_ranks(tree, forced + rows)
        report = verify_eset(tree, cert)
        assert report.is_eset, "search returned an unsound certificate"
        return SearchOutcome(status=FOUND, certificate=cert, nodes_explored=dlx.nodes,
                             covered_count=report.covered_count)
    return SearchOutcome(status=NONE_EXHAUSTIVE, certificate=None, nodes_explored=dlx.nodes)


def count_esets(tree: TranspositionTree, max_degree: int = 5) -> int:
    """Number of distinct E-sets, by exhaustive exact-cover enumeration."""
    if tree.n > max_degree:
        raise ValueError(f"n={tree.n} too large for exhaustive enumeration")
    spheres = _sphere_ranks(tree, _rank_index(tree.n))
    dlx = _DancingLinks(len(spheres), spheres)
    return sum(1 for _ in dlx.solve())


def _component_caps(tree: TranspositionTree, conflict: list[int],
                    comp_masks: list[int]) -> list[int]:
    """Exact max independent set of the conflict graph inside each component."""
    caps = []
    for mask in comp_masks:
        members = []
        m = mask
        while m:
            b = m & -m
            members.append(b.bit_length() - 1)
            m ^= b
        local = {v: conflict[v] & mask for v in members}

        best = 0

        def mis(cand_mask: int, count: int) -> None:
            nonlocal best
            if count + bin(cand_mask).count("1") <= best:
                return
            if not cand_mask:
                best = max(best, count)
                return
            b = cand_mask & -cand_mask
            v = b.bit_length() - 1
            mis(cand_mask & ~local[v], count + 1)
            mis(cand_mask ^ b, count)

        mis(mask, 0)
        caps.append(best)
    return caps


def max_packing(tree: TranspositionTree, node_budget: int = 2_000_000,
                time_budget: float | None = None) -> SearchOutcome:
    """Branch and bound for a maximum 1-sphere packing."""
    n = tree.n
    total = math.factorial(n)
    rank = _rank_index(n)
    spheres = _sphere_ranks(tree, rank)
    # conflict[v]: vertices at distance <= 2 (their spheres meet v's)
    conflict = [0] * total
    for v, sph in enumerate(spheres):
        m = 0
        for u in sph:
            for w in spheres[u]:
                m |= 1 << w
        conflict[v] = m

    if tree.r is not None:
        comp_mask = dict.fromkeys(all_components(tree), 0)
        for g, v in rank.items():
            comp_mask[component_of(tree, g)] |= 1 << v
        comp_masks = list(comp_mask.values())
    else:
        comp_masks = [(1 << total) - 1]
    caps = _component_caps(tree, conflict, comp_masks)

    full = (1 << total) - 1
    best_set: list[int] = []
    nodes = 0
    start = time.monotonic()
    out_of_budget = False

    def bound(cand_mask: int) -> int:
        b = 0
        for mask, cap in zip(comp_masks, caps):
            rem = cand_mask & mask
            if rem:
                b += min(cap, bin(rem).count("1"))
        return b

    def dfs(cand_mask: int, chosen: list[int]) -> None:
        nonlocal nodes, best_set, out_of_budget
        nodes += 1
        if out_of_budget or nodes > node_budget or (
                time_budget is not None and time.monotonic() - start > time_budget):
            out_of_budget = True
            return
        if len(chosen) > len(best_set):
            best_set = list(chosen)
        if not cand_mask or len(chosen) + bound(cand_mask) <= len(best_set):
            return
        b = cand_mask & -cand_mask
        v = b.bit_length() - 1
        chosen.append(v)
        dfs(cand_mask & ~conflict[v], chosen)
        chosen.pop()
        dfs(cand_mask ^ b, chosen)

    dfs(full, [])
    cert = _cert_from_ranks(tree, best_set)
    status = BEST_EFFORT if out_of_budget else FOUND
    return SearchOutcome(status=status, certificate=cert, nodes_explored=nodes,
                         wall_budget_exceeded=out_of_budget,
                         covered_count=len(best_set) * n)
