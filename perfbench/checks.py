"""Output checks that do not rely on permpack.

Packings are checked by building every closed sphere from the tree's
edges and testing disjointness directly; Johnson structures by testing
the exactness conditions on every 2-path.  A check returns a list of
error strings, empty when the output is right.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, factorial


def x3_edges(r: int, t: int, renumbered: bool = False) -> list[tuple[int, int]]:
    """Edges of the diameter-3 tree with hub degrees r, t (1-based)."""
    n = r + t
    hub_l, hub_r = (1, r + 1) if renumbered else (r, r + 1)
    edges = [(hub_l, hub_r)]
    edges += [(v, hub_l) for v in range(1, r + 1) if v != hub_l]
    edges += [(hub_r, v) for v in range(r + 2, n + 1)]
    return edges


def closed_sphere(center: tuple, edges) -> list[tuple]:
    out = [center]
    for i, j in edges:
        w = list(center)
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        out.append(tuple(w))
    return out


def parse_perm(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",")) if "," in text else tuple(map(int, text))


def check_packing(n: int, edges, centers, base=None, r: int | None = None) -> tuple[int, list[str]]:
    """Covered-vertex count of the 1-sphere packing and its violations.

    With `base` (a set of frozensets of left-side values) spheres are cut
    to the vertices whose first r values lie in a listed component.
    """
    errors = []
    ident = tuple(range(1, n + 1))
    covered: set = set()
    for c in centers:
        if len(c) != n or tuple(sorted(c)) != ident:
            return 0, [f"center {c} is not a permutation of 1..{n}"]
        for v in closed_sphere(c, edges):
            if base is not None and frozenset(v[:r]) not in base:
                continue
            if v in covered:
                errors.append(f"sphere of {c} overlaps an earlier sphere")
                break
            covered.add(v)
    return len(covered), errors


def check_cert(n: int, centers, edges, count: int | None = None,
               alpha: Fraction | None = None) -> list[str]:
    """A 1-sphere packing: disjoint spheres, covered = centers x n, and
    the expected number of centers and density when given."""
    covered, errors = check_packing(n, edges, centers)
    if covered != len(centers) * n and not errors:
        errors.append(f"covered {covered} != {len(centers)} centers x {n}")
    if count is not None and len(centers) != count:
        errors.append(f"{len(centers)} centers, expected {count}")
    if alpha is not None and Fraction(covered, factorial(n)) != alpha:
        errors.append(f"alpha {Fraction(covered, factorial(n))}, expected {alpha}")
    return errors


def check_cert_json(cert: dict, edges, count: int | None = None,
                    alpha: Fraction | None = None) -> list[str]:
    """check_cert on a certificate in permpack's JSON form."""
    if cert.get("kind") != "one_sphere":
        return [f"certificate kind {cert.get('kind')!r}, expected 'one_sphere'"]
    return check_cert(cert["n"], [parse_perm(s) for s in cert["centers"]], edges,
                      count, alpha)


def check_exact(n: int, r: int, edges, spanning_2factor: bool = False) -> list[str]:
    """Exactness of a subgraph of J(n, r, r-1), given as a list of
    (subset, subset) edges: Johnson edges, colors at a vertex sharing
    r-2 elements, every 2-path involving r+2 elements."""
    universe = frozenset(range(1, n + 1))
    adj: dict = {}
    for u, v in edges:
        u, v = frozenset(u), frozenset(v)
        if len(u) != r or len(v) != r or not (u | v) <= universe or len(u & v) != r - 1:
            return [f"{sorted(u)}-{sorted(v)} is not an edge of J({n},{r})"]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for v, nbrs in adj.items():
        for u, w in combinations(nbrs, 2):
            if len((u & v) & (v & w)) != r - 2 or len(u | v | w) != r + 2:
                return [f"2-path {sorted(u)}-{sorted(v)}-{sorted(w)} is not exact"]
    if spanning_2factor:
        if len(adj) != comb(n, r):
            return [f"spans {len(adj)} of {comb(n, r)} vertices"]
        if any(len(set(nb)) != 2 for nb in adj.values()):
            return ["not 2-regular"]
    return []


def expect(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def self_test(run_jobs, Job) -> list[str]:
    """Feed wrong outputs through the job checks; each must count as failed.

    Returns the cases that were wrongly accepted.
    """
    edges22 = x3_edges(2, 2)
    overlapping = {"n": 4, "kind": "one_sphere", "centers": ["1234", "2134"]}  # adjacent
    non_exact = [((1, 2, 3), (2, 3, 4)), ((2, 3, 4), (2, 3, 5))]  # colors coincide
    cases = [
        Job("selftest.overlapping_center", lambda: overlapping,
            lambda out: check_cert_json(out, edges22)),
        Job("selftest.non_exact_edge", lambda: non_exact,
            lambda out: check_exact(5, 3, out)),
        Job("selftest.wrong_status", lambda: "found",
            lambda out: expect("status", out, "none_exhaustive")),
    ]
    result = run_jobs(cases)
    if result.failed != len(cases):
        return [name for name, errs in result.errors.items() if not errs] or ["miscount"]
    return []
