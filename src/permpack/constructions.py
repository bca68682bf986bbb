"""Explicit packings: star-slice E-sets, the perfect code of the type-0
subgraph X'(r,r), uniform packings driven by exact Johnson structures,
the nonuniform extension, puncturing, and the type-census table rows.

Every packing of a diameter-3 tree is built from hub slices
(``hub_slice``): the vertices of one component with one value fixed at
the left hub and one at the right hub.  The uniform construction takes
a nest that ``johnson.validate_nest`` accepts and raises ValueError on
any other structure, with the validator's verdict.

The constructive searches are deterministic (fixed orderings, no
randomness).  Each construction returns a ``Construction``: its
certificate together with the verifier's report that accepted it, both
from ``certify.certified``, so a caller never has to verify the
certificate a second time.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

from . import johnson
from .cayley import (RENUMBERED, TranspositionTree, all_components, build_tree,
                     centers_by_component, closed_sphere, component_key, component_type,
                     neighbors_across, packing_union, require_components)
from .certify import certified
from .perms import Perm, parity


class ConstructionError(RuntimeError):
    """A construction search exhausted without a certificate."""


# largest r of the X' code: at r = 5 it takes seconds, at r = 6 it holds
# 64 (6!)^2 = 33 177 600 vertices in sphere unions and exhausts memory
_XPRIME_MAX_R = 5

# largest degree of the puncture packing, as of the X' code (2 * 5): it
# holds all n! vertices, and n = 10 took 29 s and 410 MiB on a 2-core host
_PUNCTURE_MAX_N = 10


TableRow = namedtuple("TableRow", "r T S Sigma SigmaPrime P alpha")

Construction = namedtuple("Construction", "certificate report target_alpha", defaults=(None,))
Construction.__doc__ = """A certificate and the verifier's report that accepted it.

``target_alpha`` is the density the construction aims at, when it has
one; it falls short when ``report.alpha < target_alpha``."""


def _with_value(values, k: int, i: int) -> list[Perm]:
    """The arrangements of ``values`` with i at index k, in lex order
    (inserting i keeps the lex order of the other values' arrangements)."""
    return [w[:k] + (i,) + w[k:] for w in permutations(sorted(v for v in values if v != i))]


def star_eset(n: int, j: int, i: int) -> list[Perm]:
    """All permutations with value i at position j, in lex order; (n-1)!
    members, an E-set of the star."""
    if not (1 <= j <= n and 1 <= i <= n):
        raise ValueError(f"position/value out of range for n={n}")
    return _with_value(range(1, n + 1), j - 1, i)


def hub_slice(tree: TranspositionTree, values, i: int, j: int) -> list[Perm]:
    """The vertices of the component ``values`` with value i at the left
    hub and value j at the right hub, in lex order: a product of factor
    E-sets."""
    values = component_key(tree, values)
    complement = frozenset(range(1, tree.n + 1)) - values
    if i not in values or j not in complement:
        raise ValueError(f"slice values {i},{j} unavailable in component {sorted(values)}")
    # lex-ordered sides in a left-major product: enumerate_component's order
    rights = _with_value(complement, tree.hub_right - 1 - tree.r, j)
    return [left + right for left in _with_value(values, tree.hub_left - 1, i) for right in rights]


def partner(r: int, v: int) -> int:
    """The other element of the pair {i, r+i} containing v."""
    return v + r if v <= r else v - r


def xprime_components(r: int) -> list[frozenset[int]]:
    """The 2^r type-0 components: one value from each pair {i, r+i}."""
    return [frozenset(choice) for choice in product(*[(i, r + i) for i in range(1, r + 1)])]


def _component_centers(tree: TranspositionTree, values: frozenset[int], flag: str) -> list[Perm]:
    """Centers of one X' component for one parity flag.

    For each value i of the component, the hub-slice product with i at
    the left hub and the partner of i at the right hub, so that the
    hub-hub edge keeps each sphere inside X'; of it, the members whose
    right side has the chosen parity.
    """
    r = tree.r
    return [g for i in sorted(values) for g in hub_slice(tree, values, i, partner(r, i))
            if parity(g[r:]) == flag]


def _disjoint_picks(options):
    """Backtrack over slots: pick one (centers, footprint) per slot of
    ``options``, the footprints pairwise disjoint (a None footprint never
    fits); yield each pick's centers as one flat list, in slot order.
    With no slots the one pick is empty.

    Iterative: ``frames`` holds one option iterator per open slot and
    ``picks`` the options taken so far, so the depth is not bounded by
    Python's recursion limit.
    """
    if not options:
        yield []
        return
    covered: set[Perm] = set()
    picks: list = []
    frames = [iter(options[0])]
    while frames:
        for centers, foot in frames[-1]:
            if foot is not None and foot.isdisjoint(covered):
                break
        else:
            frames.pop()
            if picks:
                covered -= picks.pop()[1]
            continue
        covered |= foot
        picks.append((centers, foot))
        if len(picks) < len(options):
            frames.append(iter(options[len(picks)]))
        else:
            yield [g for centers, _ in picks for g in centers]
            covered -= picks.pop()[1]


def _xprime_options(tree: TranspositionTree):
    """One slot per type-0 component: (centers, footprint) for its even
    and its odd parity flag."""
    return [[(centers, packing_union(tree, centers)) for centers in
             (_component_centers(tree, c, "even"), _component_centers(tree, c, "odd"))]
            for c in xprime_components(tree.r)]


def xprime_perfect_code(r: int) -> Construction:
    """A perfect 1-sphere packing of the subgraph X'(r,r) of X3(r,r);
    r > 5 is refused before any set-up."""
    if r < 2:
        raise ValueError("need r >= 2")
    if r > _XPRIME_MAX_R:
        raise ValueError(f"the X' code needs r <= {_XPRIME_MAX_R}: at r={r} the 2^r (r!)^2 "
                         f"vertices of X'({r},{r}) and their sphere unions do not fit in memory")
    tree = build_tree(r, r, RENUMBERED)
    comps = xprime_components(r)
    # any disjoint pick is a perfect code: 2^r r!^2 / 2r spheres of 2r
    # vertices each, all inside X', which has 2^r r!^2 vertices
    centers = next(_disjoint_picks(_xprime_options(tree)))
    cert, report = certified(tree, sorted(centers), comps)
    assert report.is_eset, f"the X'({r},{r}) pick is not a perfect code"
    return Construction(cert, report)


# ---------------------------------------------------------------------------
# Uniform packings from exact Johnson structures


def uniform_from_exact(tree: TranspositionTree, structure: johnson.ExactSubgraph,
                       ) -> Construction:
    """Per component with a successor in the structure, centers fix the
    lost element at the left hub and the gained element at the right hub,
    so sphere completions cross the hub edge into the successor component.
    Orientations are backtracked until the verifier accepts.

    The structure must be a nest of J(n, r) that johnson.validate_nest
    accepts; any other structure raises ValueError with its verdict.
    """
    ok, why = johnson.validate_nest(tree.n, require_components(tree), structure)
    if not ok:
        raise ValueError(f"structure is not a nest of J({tree.n},{tree.r}): {why}")
    last_error = None
    for succ in johnson.successor_orientations(structure):
        centers = []
        for c, s in succ.items():
            # a nest has Johnson edges only: one value lost, one gained
            (lost,), (gained,) = c - s, s - c
            centers.extend(hub_slice(tree, c, lost, gained))
        cert, report = certified(tree, sorted(centers))
        if report.valid:
            return Construction(cert, report)
        last_error = report.violations[0] if report.violations else "invalid"
    raise ConstructionError(f"no orientation of the structure packs: {last_error}")


# ---------------------------------------------------------------------------
# Nonuniform extension (Table III densities)


def _eligible_components(tree: TranspositionTree):
    """The components of type k > 0, except k = r/2 when r is even."""
    return [c for c in all_components(tree) if 0 < component_type(tree, c) != tree.r / 2]


def _local_configs(tree: TranspositionTree, values: frozenset[int], size: int):
    """Deterministic list of (size-k center set, footprint) pairs in one
    non-X' component.

    Guided shape: hub-slice products (value i at the left hub, j at the
    right hub), optionally displaced by one hub-leaf transposition on
    either side; all members must keep their hub-edge neighbor off X'.
    Displacement is what lets neighboring components coexist at full
    density; the undisplaced products alone collide across the hub edge.
    """
    complement = sorted(set(range(1, tree.n + 1)) - values)
    hub_edges = [e for e in tree.edges if e != tree.epsilon]
    # center sets in first-seen order, each once though groups may share it
    feet: dict[tuple[Perm, ...], set[Perm] | None] = {}
    for i, j in product(sorted(values), complement):
        base = hub_slice(tree, values, i, j)
        for disp in [None] + hub_edges:
            group = sorted(base if disp is None else neighbors_across(tree, disp, base))
            across = centers_by_component(tree, neighbors_across(tree, tree.epsilon, group))
            if any(component_type(tree, c) == 0 for c in across):
                continue
            for combo in combinations(group, size):
                if combo not in feet:
                    feet[combo] = packing_union(tree, combo)
    return [(combo, foot) for combo, foot in feet.items() if foot is not None]


def nonuniform_extension(r: int, stage: str = "final") -> Construction:
    """Extend the X' perfect code into the densest nonuniform packing the
    guided search reaches; target alpha is the table-row value.

    stage="intermediate" stops at half density in the non-X' components
    (the double-sphere selection stage); stage="final" displaces to the
    full 2/r proportion.  The intermediate stage is refused for r >= 4,
    where its subset enumeration does not fit in memory, and the final
    stage for r >= 5, where its configurations alone take minutes and
    gigabytes.

    The X' code is ``xprime_perfect_code(r)``'s, and one ``_disjoint_picks``
    over one slot per eligible component extends it.  The residual
    configurations need no check against the X' code: their centers keep
    every epsilon-neighbour off X', and the X' spheres stay inside X'.
    With no residual pick the X' code alone is returned, and the
    shortfall shows in its alpha.
    """
    if stage not in ("intermediate", "final"):
        raise ValueError(f"unknown stage {stage!r}")
    if stage == "intermediate" and r >= 4:
        group = factorial(r - 1) ** 2
        raise ValueError(f"the intermediate stage needs r <= 3: at r={r} each group has "
                         f"C({group}, {group // 2}) center subsets")
    if stage == "final" and r >= 5:
        raise ValueError(f"the final stage needs r <= 4: at r={r} each of the "
                         f"{table_row(r).P} eligible components has up to "
                         f"{r * r * (2 * r - 1)} groups of {factorial(r - 1) ** 2} centers, "
                         f"each with its sphere union")
    code = xprime_perfect_code(r)
    tree = build_tree(r, r, RENUMBERED)
    per_comp = factorial(r - 1) ** 2 // (2 if stage == "intermediate" else 1)
    comps = _eligible_components(tree)
    residual = next(_disjoint_picks([_local_configs(tree, c, per_comp) for c in comps]), [])
    cert, report = certified(tree, code.certificate.centers + sorted(residual))
    # the picks' footprints are pairwise disjoint sphere unions
    assert report.valid, f"the nonuniform pick at r={r} is not a packing"
    if stage == "intermediate":
        target = code.report.alpha + Fraction(len(comps) * per_comp * 2 * r, factorial(2 * r))
    else:
        target = table_row(r).alpha
    return Construction(cert, report, target)


def puncture_attempt(r: int, t: int) -> Construction:
    """Best-effort nonuniform packing of X3(r,t) for r > t: greedy
    maximal packing seeded component by component with hub-slice
    products, measured by the verifier; no claim of maximality and no
    target density.  r + t > 10 is refused before any set-up."""
    if not r > t > 1:
        raise ValueError("puncturing applies to r > t > 1")
    if r + t > _PUNCTURE_MAX_N:
        raise ValueError(f"puncturing needs r + t <= {_PUNCTURE_MAX_N}: it enumerates all "
                         f"{factorial(r + t)} vertices of X3({r},{t}), and n = 10 alone "
                         f"took 29 s and 410 MiB")
    tree = build_tree(r, t, RENUMBERED)
    seeds = (g for values in all_components(tree) for i in sorted(values)
             for j in sorted(set(range(1, tree.n + 1)) - values)
             for g in hub_slice(tree, values, i, j))
    # the hub slices of a component list all its vertices, so the greedy
    # packing is maximal
    covered: set[Perm] = set()
    centers: list[Perm] = []
    for g in seeds:
        sph = closed_sphere(tree, g)
        if covered.isdisjoint(sph):
            covered |= sph
            centers.append(g)
    cert, report = certified(tree, sorted(centers))
    assert report.valid
    return Construction(cert, report)


# ---------------------------------------------------------------------------
# Component-type census (Table III)


def table_T(r: int, k: int) -> int:
    return comb(r, 2 * k) * 2 ** (r - 2 * k) * comb(2 * k, k)


def table_row(r: int) -> TableRow:
    if r < 2:
        raise ValueError("need r >= 2")
    ks = range(r // 2 + 1)
    T = [table_T(r, k) for k in ks]
    sigma = comb(2 * r, r)
    P = sigma - 2 ** r - (comb(r, r // 2) if r % 2 == 0 else 0)
    S = []
    for k in ks:
        if k == 0:
            S.append(Fraction(2 ** r))
        elif r % 2 == 0 and k == r // 2:
            S.append(Fraction(0))
        else:
            S.append(Fraction(2 * table_T(r, k), r))
    sigma_prime = Fraction(2 ** r) + Fraction(2 * P, r)
    alpha = Fraction(sigma_prime, sigma)
    assert sum(T) == sigma and sum(S) == sigma_prime
    return TableRow(r=r, T=T, S=S, Sigma=sigma, SigmaPrime=sigma_prime, P=P, alpha=alpha)
