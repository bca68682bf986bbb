"""Johnson graphs J(n, r, r-1), exact subgraphs, condensed cycles, COPs.

Vertices are r-subsets of {1..n} (frozensets); two subsets are adjacent
when they intersect in r-1 elements, the intersection being the edge
color.  A subgraph is exact when (a) colors of edges meeting at a vertex
share exactly r-2 elements and (b) every 2-path u-v-w involves r+2
elements.  In tight hosts (n = r+2) a degree-3 vertex cannot satisfy (b)
for all incident pairs -- only two outside elements exist -- so cycle
alternation and nest validation cap the count of (b) at the host,
min(r+2, n-1), which tolerates 2-paths involving n-1 elements when
n = r+2.  One predicate, _path_violation, states (a) and (b); its
callers pass the count.

validate_nest is the one nest check: successor_orientations, and the
uniform construction built on it, take only structures it accepts.
perms.is_r_subset decides what an r-subset of 1..n is, so bool and float
elements are refused as they are for components, and make_subgraph is
the one builder of an ExactSubgraph.

search_exact_2factor answers J(n, n-2) for even n without searching: by
a parity lemma (proved in its docstring) it has no exact 2-factor.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, product
from math import comb

from .perms import is_r_subset

Subset = frozenset[int]


class ExactSubgraph(namedtuple("ExactSubgraph", "vertices edges kind", defaults=("general",))):
    """Vertices (frozenset of subsets), edges (tuple of subset pairs) and
    kind: cycle | two_factor | nest | path | general."""

    __slots__ = ()

    def adjacency(self) -> dict[Subset, list[Subset]]:
        adj: dict[Subset, list[Subset]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def subset_key(s) -> tuple[int, ...]:
    return tuple(sorted(s))


def subgraph_to_dict(sub: ExactSubgraph) -> dict:
    return {
        "kind": sub.kind,
        "vertices": sorted(sorted(v) for v in sub.vertices),
        "edges": sorted(sorted([sorted(u), sorted(v)]) for u, v in sub.edges),
    }


def subgraph_from_dict(data: dict) -> ExactSubgraph:
    try:
        return make_subgraph(
            [(frozenset(u), frozenset(v)) for u, v in data["edges"]],
            kind=data.get("kind", "general"),
            extra_vertices=[frozenset(v) for v in data.get("vertices", [])])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed subgraph: {exc}") from exc


def make_subgraph(edges, kind: str = "general", extra_vertices=()) -> ExactSubgraph:
    # one object per vertex, the first seen: {True, 2} == {1, 2}, so the
    # checks test each vertex once and then hold for every edge end
    verts: dict[Subset, Subset] = {}
    for v in map(frozenset, extra_vertices):
        verts.setdefault(v, v)
    norm = []
    for u, v in edges:
        u, v = frozenset(u), frozenset(v)
        norm.append((verts.setdefault(u, u), verts.setdefault(v, v)))
    return ExactSubgraph(vertices=frozenset(verts), edges=tuple(norm), kind=kind)


def is_johnson_edge(u: Subset, v: Subset) -> bool:
    return len(u & v) == len(u) - 1 and len(u) == len(v)


def _path_violation(u: Subset, v: Subset, w: Subset, need: int) -> str | None:
    """Exactness of the 2-path u-v-w of Johnson edges: the colors share
    r-2 elements and the path involves at least need elements, r+2 for
    the strict rule or the host cap min(r+2, n-1).  Returns a violation
    string or None."""
    r = len(v)
    c1, c2 = u & v, v & w
    if len(c1 & c2) != r - 2:
        return f"colors {subset_key(c1)} and {subset_key(c2)} at {subset_key(v)} share {len(c1 & c2)} != {r - 2} elements"
    if len(u | v | w) < need:
        return f"path {subset_key(u)}-{subset_key(v)}-{subset_key(w)} involves {len(u | v | w)} < {need} elements"
    return None


def _structure_violation(n: int, r: int, sub: ExactSubgraph, need: int,
                         adj: dict[Subset, list[Subset]]) -> str | None:
    """First edge that is not a Johnson edge between r-subsets of 1..n,
    else the first 2-path that _path_violation rejects, else None.  adj
    is sub.adjacency()."""
    bad = {v for v in adj if not is_r_subset(v, n, r)}
    for u, v in sub.edges:
        if u in bad or v in bad:
            return f"edge {subset_key(u)}-{subset_key(v)} is not between r-subsets of 1..{n}"
        if not is_johnson_edge(u, v):
            return f"{subset_key(u)} and {subset_key(v)} are not adjacent in the Johnson graph"
    for v, nbrs in adj.items():
        for u, w in combinations(nbrs, 2):
            bad = _path_violation(u, v, w, need)
            if bad is not None:
                return bad
    return None


def is_exact(n: int, r: int, sub: ExactSubgraph) -> tuple[bool, str | None]:
    """Literal exactness check; on failure returns the offending witness."""
    bad = _structure_violation(n, r, sub, r + 2, sub.adjacency())
    return bad is None, bad


def expand_cc(cc, r: int) -> ExactSubgraph:
    """Cycle on the width-r cyclic windows of the element sequence cc."""
    elems = tuple(cc)
    m = len(elems)
    if not 1 <= r <= m - 2:
        raise ValueError(f"condensed cycle of {m} elements needs 1 <= r <= {m - 2}, got r={r}")
    if len(set(elems)) != m:
        raise ValueError(f"condensed cycle has repeated elements: {elems}")
    if not is_r_subset(elems, max(elems), m):
        raise ValueError(f"condensed cycle elements must be integers of 1..{max(elems)}: {elems}")
    windows = [frozenset(elems[(i + k) % m] for k in range(r)) for i in range(m)]
    return make_subgraph(zip(windows, windows[1:] + windows[:1]), kind="cycle")


def expand_cop(cop, n: int) -> set[Subset]:
    """r-subsets {i, i+d1, i+d1+d2, ...} mod n for every start i."""
    parts = tuple(cop)
    if sum(parts) != n or any(d < 1 for d in parts):
        raise ValueError(f"parts {parts} are not a composition of {n}")
    out = set()
    for start in range(1, n + 1):
        subset = []
        acc = start
        for d in (0,) + parts[:-1]:
            acc += d
            subset.append((acc - 1) % n + 1)
        out.add(frozenset(subset))
    return out


def parse_cop(text: str) -> tuple[int, ...]:
    """'1213' -> (1, 2, 1, 3); comma form accepted for multi-digit parts."""
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)


def alternate_cops(cop_a, cop_b, n: int) -> ExactSubgraph | None:
    """Search for an exact cycle alternating the subsets of the two COPs.

    Exactness here is host-capped: a 2-path may involve min(r+2, n-1)
    elements, so in a tight host (n = r+2) the cycle can fail the strict
    is_exact.  Returns None when exhaustive backtracking finds no exact
    alternation.
    """
    fam_a = sorted(expand_cop(cop_a, n), key=subset_key)
    fam_b = sorted(expand_cop(cop_b, n), key=subset_key)
    if len(fam_a) != len(fam_b) or set(fam_a) & set(fam_b):
        return None
    m = len(fam_a)
    need = min(len(fam_a[0]) + 2, n - 1)
    # frames[i] yields the candidates for path position i+1; the families
    # are disjoint, so one used set serves both
    path = [fam_a[0]]
    used = {fam_a[0]}
    frames = [iter(fam_b)]
    while frames:
        for cand in frames[-1]:
            if (cand not in used and is_johnson_edge(path[-1], cand)
                    and (len(path) < 2 or _path_violation(path[-2], path[-1], cand, need) is None)):
                break
        else:
            frames.pop()
            used.discard(path.pop())
            continue
        path.append(cand)
        used.add(cand)
        if len(path) < 2 * m:
            frames.append(iter(fam_b if len(path) % 2 else fam_a))
        elif (is_johnson_edge(path[-1], path[0])
              and _path_violation(path[-2], path[-1], path[0], need) is None
              and _path_violation(path[-1], path[0], path[1], need) is None):
            return make_subgraph(zip(path, path[1:] + path[:1]), kind="cycle")
        else:
            used.discard(path.pop())
    return None


def _pair_table(n: int, r: int) -> tuple[list[Subset], list[int], list[dict[int, int]]]:
    """Index the r-subsets of 1..n in subset_key order and tabulate exact 2-paths.

    Returns (verts, full, ok): full[v] is the bitmask of the Johnson
    neighbors of vertex v, and for each neighbor u of v, ok[v][u] is the
    mask of neighbors w whose 2-path u-v-w is exact, by the (dropped,
    added) rule stated in search_exact_2factor: the verdicts of
    _path_violation with need = r+2, computed from masks.  A subset is
    found by its bitcode, the sum of 1 << x over its elements x.
    """
    subsets = list(combinations(range(1, n + 1), r))
    index = {sum(1 << x for x in c): i for i, c in enumerate(subsets)}
    full: list[int] = []
    ok: list[dict[int, int]] = []
    for c, code in zip(subsets, index):
        moves = [(index[code ^ 1 << a | 1 << b], a, b) for a in c
                 for b in range(1, n + 1) if not code >> b & 1]
        by_drop, by_add = [0] * (n + 1), [0] * (n + 1)
        for u, a, b in moves:
            by_drop[a] |= 1 << u
            by_add[b] |= 1 << u
        mask = sum(by_drop)  # each neighbor drops one element
        full.append(mask)
        ok.append({u: mask & ~(by_drop[a] | by_add[b]) for u, a, b in moves})
    return [frozenset(c) for c in subsets], full, ok


# the most exhausted states search_exact_2factor remembers before it stops
# undecided: J(7,4) leaves 57 762 and J(10,7) 211 700, while J(10,6) (past the
# default size gate) fills the memo in under a second and stays undecided at 2^21
_MAX_DEAD = 1 << 18


def search_exact_2factor(n: int, r: int, max_vertices: int = 90) -> ExactSubgraph | None:
    """Exhaustive search for an exact spanning 2-regular subgraph of J(n, r, r-1).

    Deterministic: the pivot is the lexicographically first vertex of
    degree < 2 and its candidate edges are tried in lexicographic order,
    so identical inputs yield identical certificates.  Exactness of a
    2-path u-v-w is a rule on (dropped, added) pairs: with
    u = v - {a'} | {b'} and w = v - {a} | {b}, the colors share r-2
    elements iff a != a', and the path involves r+2 elements iff
    b != b'.  The rule is tabulated once per call (_pair_table).  The
    search is iterative, with an explicit stack, and returns None only
    after complete enumeration.

    States that ran out of candidates are remembered (nogood recording).
    A state's key is one int with a field per vertex: 0 at degree 2,
    1 at degree 0, and 2 + the index of its one neighbor at degree 1.
    The key fixes the subtree below the state: the pivot is the lowest
    vertex of degree < 2, its candidates are the allowed vertices of
    degree < 2, and a vertex's allowed neighbors depend only on its
    degree and, at degree 1, its neighbor.  So a state whose key is
    already remembered has no completion and is left at once; only
    subtrees without a solution are skipped, and the first 2-factor
    found is the one the plain search finds, edge for edge.  Past
    _MAX_DEAD keys the search raises ValueError, J(n, r) undecided: each
    key is added once, so it searches about _MAX_DEAD states, each with
    at most r(n-r) children.  max_vertices bounds the pair table's memory.

    For even n, J(n, n-2) has no exact 2-factor, so the search returns
    None at once, whatever the size.  Proof: v = {1..n} - {x, y} can add
    only x or y, and its two edges add different elements, so one adds x
    and the other y.  For an element q, every vertex avoiding q is
    {1..n} - {q, z} and has exactly one edge whose ends both avoid q, the
    one adding z.  These edges pair off the n-1 vertices avoiding q, which
    is impossible when n-1 is odd.
    """
    if not 2 < r < n - 1:
        raise ValueError(f"need 2 < r < n-1, got r={r}, n={n}")
    if r == n - 2 and n % 2 == 0:
        return None
    if comb(n, r) > max_vertices:
        raise ValueError(f"instance too large: C({n},{r}) = {comb(n, r)} > {max_vertices}")
    verts, full, ok = _pair_table(n, r)
    # allow[v] holds the neighbors v may still be joined to: full[v] at
    # degree 0, ok[v][x] at degree 1 with neighbor x.  ok[v][x] lacks x,
    # so allow[v] == full[v] exactly when v has degree 0.
    allow = list(full)
    open_ = (1 << len(verts)) - 1  # vertices of degree < 2
    width = (len(verts) + 1).bit_length()  # bits of one key field
    # vertex v's field sits at bit shift[v], and key & clear[v] zeroes it
    last = len(verts) - 1
    shift = [(last - v) * width for v in range(len(verts))]
    clear = [~((1 << width) - 1 << s) for s in shift]
    key = sum(1 << s for s in shift)
    dead: set[int] = set()  # keys of states with no completion
    # frames: (pivot, untried candidates, w, saved allow[pivot], saved allow[w], saved open_, saved key)
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    pivot, untried = 0, full[0]
    while open_:
        while untried:
            low = untried & -untried
            untried ^= low
            w = low.bit_length() - 1
            if allow[w] >> pivot & 1:
                break
        else:
            dead.add(key)
            if len(dead) > _MAX_DEAD:
                raise ValueError(f"J({n},{r}) undecided: over {_MAX_DEAD} exhausted states")
            if not stack:
                return None
            pivot, untried, w, allow[pivot], allow[w], open_, key = stack.pop()
            continue
        stack.append((pivot, untried, w, allow[pivot], allow[w], open_, key))
        if allow[pivot] == full[pivot]:
            allow[pivot] = ok[pivot][w]
            key += 1 + w << shift[pivot]
        else:
            open_ ^= 1 << pivot
            key &= clear[pivot]
        if allow[w] == full[w]:
            allow[w] = ok[w][pivot]
            key += 1 + pivot << shift[w]
        else:
            open_ ^= low
            key &= clear[w]
        pivot = (open_ & -open_).bit_length() - 1
        untried = allow[pivot] & open_ if key not in dead else 0
    return make_subgraph(((verts[p], verts[w]) for p, _, w, *_ in stack), kind="two_factor")


def validate_nest(n: int, r: int, sub: ExactSubgraph) -> tuple[bool, str]:
    """Check the nest conditions: spanning, max degree 3, every component
    a cycle with pendant vertices, Johnson edges between r-subsets of
    1..n, and exactness of every 2-path under the host cap min(r+2, n-1)
    (see _path_violation)."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if len(sub.vertices) != comb(n, r):
        return False, f"not spanning: {len(sub.vertices)} of {comb(n, r)} vertices"
    adj = sub.adjacency()
    if any(len(set(nb)) != len(nb) for nb in adj.values()):
        return False, "repeated edge"
    deg = {v: len(nb) for v, nb in adj.items()}
    maxdeg = max(deg.values())
    if maxdeg > 3:
        return False, f"degree {maxdeg} > 3"
    # every component is a cycle with pendants iff each core vertex
    # (degree >= 2) has two core neighbors and each other vertex has one
    # neighbor, a core vertex
    for v, nbrs in adj.items():
        core_nbrs = sum(deg[w] >= 2 for w in nbrs)
        if deg[v] >= 2 and core_nbrs != 2:
            return False, f"core is not a cycle at {subset_key(v)}"
        if deg[v] < 2 and core_nbrs != 1:
            return False, f"{subset_key(v)} is not a pendant on a cycle"
    bad = _structure_violation(n, r, sub, min(r + 2, n - 1), adj)
    return (False, bad) if bad is not None else (True, "nest")


def successor_orientations(sub: ExactSubgraph):
    """Yield successor maps (vertex -> out-neighbor) with out-degree 1.

    sub must be a nest that validate_nest accepts.  Pendant vertices
    point at their unique neighbor; each cycle core can run in either
    direction.
    """
    adj = sub.adjacency()
    core = {v for v in sub.vertices if len(adj[v]) >= 2}
    succ_base = {v: adj[v][0] for v in sub.vertices - core}
    # decompose the core into cycles: each core vertex has two core neighbors
    cycles: list[list[Subset]] = []
    seen: set[Subset] = set()
    for v in sorted(core, key=subset_key):
        if v in seen:
            continue
        cyc = [v]
        prev, cur = v, next(w for w in adj[v] if w in core)
        while cur != v:
            cyc.append(cur)
            prev, cur = cur, next(w for w in adj[cur] if w in core and w != prev)
        seen.update(cyc)
        cycles.append(cyc)

    # the first cycle's direction varies slowest
    for directions in product((1, -1), repeat=len(cycles)):
        succ = dict(succ_base)
        for cyc, direction in zip(cycles, directions):
            m = len(cyc)
            for k in range(m):
                succ[cyc[k]] = cyc[(k + direction) % m]
        yield succ
