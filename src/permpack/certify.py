"""Packing certificates and their verifier.

A certificate declares sphere centers of one kind (one_sphere,
double_sphere, s_sphere); the verifier checks pairwise disjointness of
the declared spheres, measures the covered fraction alpha = covered / n!
as an exact rational, and profiles the centers per component.  No
floating point is used anywhere.

``verify_packing`` is the one verifier.  A one_sphere or s_sphere
certificate that declares a ``base_subgraph`` is measured in the
subgraph its components induce: a center outside it is a violation,
and an E-set covers all of its vertices, as the X'(r,r) perfect code
does.  ``verify_on_subgraph`` passes the base as an argument.

The verifier reads the graph only through ``cayley.closed_sphere``,
``cayley.neighbors_across`` and ``cayley.packing_profile``, which
applies the single disjointness rule, ``cayley.packing_union``, and an
epsilon-neighbour count one component at a time.  For one_sphere
certificates it gives the centers per component, or None when two
closed spheres meet.  A disjoint packing with no base, or with every
center in its base, is accepted at once.  Otherwise the verifier runs
the ordered per-sphere loop, which names each sphere that meets an
earlier one and a vertex they share.
"""

from __future__ import annotations

import copyreg
import math
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .cayley import (TranspositionTree, all_components, centers_by_component, closed_sphere,
                     component_key, component_of, neighbors_across,
                     packing_profile, require_components)
from .perms import Perm, compose, invert, is_perm, perm_to_str, word_from_str


class PackingCertificate(SimpleNamespace):
    """Declared sphere centers of one kind (one_sphere, double_sphere with
    pairs of centers, or s_sphere), with the tree and density they claim;
    mutable, equal by value and unhashable."""

    def __init__(self, n: int, kind: str, centers: list, r: int | None = None,
                 t: int | None = None, numbering: str | None = None,
                 declared_alpha: Fraction | None = None,
                 base_subgraph: list[frozenset[int]] | None = None):
        super().__init__(n=n, kind=kind, centers=centers, r=r, t=t, numbering=numbering,
                         declared_alpha=declared_alpha, base_subgraph=base_subgraph)

    # for copy and pickle at every protocol: SimpleNamespace's reduce calls
    # the class with no arguments, so make the instance bare and set its state
    def __reduce__(self):
        return copyreg.__newobj__, (type(self),), vars(self)


class VerificationReport(namedtuple("VerificationReport", "valid covered_count alpha is_eset "
                                    "per_component_profile violations")):
    """The verifier's verdict; ``violations`` defaults to a new empty list."""

    __slots__ = ()

    def __new__(cls, valid: bool, covered_count: int, alpha: Fraction, is_eset: bool,
                per_component_profile: dict, violations: list[str] | None = None):
        return super().__new__(cls, valid, covered_count, alpha, is_eset, per_component_profile,
                               [] if violations is None else violations)


class CertificateError(ValueError):
    """Malformed certificate."""


def _flat_centers(cert: PackingCertificate) -> list[Perm]:
    if cert.kind == "double_sphere":
        return [p for pair in cert.centers for p in pair]
    return list(cert.centers)


def _check_wellformed(tree: TranspositionTree, cert: PackingCertificate) -> None:
    if cert.kind not in ("one_sphere", "double_sphere", "s_sphere"):
        raise CertificateError(f"unknown sphere kind {cert.kind!r}")
    if cert.n != tree.n:
        raise CertificateError(f"certificate degree {cert.n} != tree degree {tree.n}")
    for name in ("r", "t", "numbering"):
        declared, actual = getattr(cert, name), getattr(tree, name)
        if declared is not None and declared != actual:
            raise CertificateError(f"certificate {name} {declared!r} != tree {name} {actual!r}")
    flat = _flat_centers(cert)
    for p in flat:
        if not is_perm(p, cert.n):
            raise CertificateError(f"center {p} is not a permutation of 1..{cert.n}")
    if len(set(flat)) != len(flat):
        raise CertificateError("centers are not distinct")
    if cert.kind == "double_sphere":
        for x, y in cert.centers:
            # x != y (the centers are distinct), so y is in x's sphere iff adjacent
            if y not in closed_sphere(tree, x):
                raise CertificateError(
                    f"double-sphere centers {perm_to_str(x)}, {perm_to_str(y)} are not adjacent")
    if cert.kind == "s_sphere" and cert.base_subgraph is None:
        raise CertificateError("s_sphere certificate needs a base_subgraph")


def _base(tree: TranspositionTree, cert: PackingCertificate) -> set[frozenset[int]] | None:
    """The components of the declared base subgraph; None when there is
    none or the certificate is double_sphere, which ignores it."""
    if cert.kind == "double_sphere" or cert.base_subgraph is None:
        return None
    require_components(tree)
    try:
        return {component_key(tree, c) for c in cert.base_subgraph}
    except ValueError as exc:
        raise CertificateError(f"malformed certificate: base_subgraph entry {exc}") from None


def sphere_sets(tree: TranspositionTree, cert: PackingCertificate) -> list[frozenset[Perm]]:
    """The vertex set of each declared sphere, in certificate order; with
    a base subgraph, a one_sphere sphere is its part inside the base."""
    if cert.kind == "double_sphere":
        return [closed_sphere(tree, x) | closed_sphere(tree, y) for x, y in cert.centers]
    base = _base(tree, cert)
    if base is None:
        return [closed_sphere(tree, p) for p in cert.centers]
    inner = [frozenset(q for q in closed_sphere(tree, p) if component_of(tree, q) in base)
             for p in cert.centers]
    if cert.kind == "one_sphere":
        return inner
    # s_sphere: the sphere inside the base plus its neighbors outside it,
    # which lie across epsilon
    return [s | {w for w in neighbors_across(tree, tree.epsilon, s)
                 if component_of(tree, w) not in base} for s in inner]


def _ordered_union(cert: PackingCertificate, spheres, violations: list[str]) -> set[Perm]:
    """Union of the (center, sphere) pairs in order; each sphere that
    meets an earlier one is named in violations, with a vertex they share."""
    covered: set = set()
    for center, sph in spheres:
        clash = covered & sph
        if clash:
            label = ("+".join(map(perm_to_str, center)) if cert.kind == "double_sphere"
                     else perm_to_str(center))
            violations.append(f"sphere of {label} overlaps an earlier sphere at "
                              f"{perm_to_str(next(iter(clash)))}")
        covered |= sph
    return covered


def _report(cert: PackingCertificate, covered: int, violations: list[str], whole: int,
            groups: dict) -> VerificationReport:
    """The report on `covered` vertices, with the centers grouped by
    component in `groups`.

    A wrong declared alpha is appended to violations; alpha is
    covered / n!, and an E-set is a valid one_sphere packing that covers
    all `whole` vertices.
    """
    alpha = Fraction(covered, math.factorial(cert.n))
    if cert.declared_alpha is not None and alpha != cert.declared_alpha:
        violations.append(f"declared alpha {cert.declared_alpha} != measured {alpha}")
    return VerificationReport(
        valid=not violations,
        covered_count=covered,
        alpha=alpha,
        is_eset=(not violations) and cert.kind == "one_sphere" and covered == whole,
        # centers per component, keyed by the sorted left values
        per_component_profile={tuple(sorted(c)): len(cs) for c, cs in groups.items()},
        violations=violations,
    )


def verify_packing(tree: TranspositionTree, cert: PackingCertificate) -> VerificationReport:
    _check_wellformed(tree, cert)
    base = _base(tree, cert)
    whole = (math.factorial(cert.n) if base is None
             else len(base) * math.factorial(tree.r) * math.factorial(tree.t))
    if cert.kind == "one_sphere":
        groups = packing_profile(tree, cert.centers)
        if groups is not None and (base is None or base.issuperset(groups)):
            # disjoint closed spheres of n vertices each.  With every center
            # in the base, a sphere leaves the base only at its center's
            # epsilon-neighbour, which no other sphere holds: the cut
            # spheres meet iff the whole ones do, and each loses that one
            # vertex when it lies outside the base.
            covered = tree.n * len(cert.centers)
            if base is not None:
                away = neighbors_across(tree, tree.epsilon, cert.centers)
                covered -= sum(len(qs) for c, qs in centers_by_component(tree, away).items()
                               if c not in base)
            return _report(cert, covered, [], whole, groups)
    outside = set() if base is None else {
        p for p in cert.centers if component_of(tree, p) not in base}
    violations = [f"center {perm_to_str(p)} lies outside the listed components"
                  for p in cert.centers if p in outside]
    spheres = [(p, s) for p, s in zip(cert.centers, sphere_sets(tree, cert)) if p not in outside]
    covered = _ordered_union(cert, spheres, violations)
    groups = {} if tree.r is None else centers_by_component(tree, _flat_centers(cert))
    return _report(cert, len(covered), violations, whole, groups)


def verify_eset(tree: TranspositionTree, cert: PackingCertificate) -> VerificationReport:
    if cert.kind != "one_sphere":
        raise CertificateError("E-set verification applies to one_sphere certificates")
    return verify_packing(tree, cert)


def verify_on_subgraph(tree: TranspositionTree, cert: PackingCertificate,
                       components) -> VerificationReport:
    """``verify_packing`` with the listed components as the base subgraph."""
    if cert.kind != "one_sphere":
        raise CertificateError("subgraph verification applies to one_sphere certificates")
    return verify_packing(tree, PackingCertificate(
        cert.n, cert.kind, cert.centers, cert.r, cert.t, cert.numbering, cert.declared_alpha,
        list(components)))


def certified(tree: TranspositionTree, centers: list[Perm],
              base_subgraph: list[frozenset[int]] | None = None,
              ) -> tuple[PackingCertificate, VerificationReport]:
    """The tree's one_sphere certificate of ``centers``, in the order
    given, with ``verify_packing``'s report on it; the caller decides
    what the report must say."""
    cert = PackingCertificate(tree.n, "one_sphere", centers, tree.r, tree.t, tree.numbering,
                              base_subgraph=base_subgraph)
    return cert, verify_packing(tree, cert)


def uniformity_check(tree: TranspositionTree, cert: PackingCertificate) -> tuple[bool, str | None]:
    """Is the packing equivalent in all components, or in all those of its
    declared base subgraph, to the first of them in ``all_components`` order?

    Equivalence of components c1, c2: some color-preserving translation
    g -> compose(x, g) that maps c1 onto c2 (x restricted to a bijection
    c1 -> c2 on the left values and complement -> complement on the right)
    carries the centers in c1 exactly onto the centers in c2.
    """
    if cert.kind != "one_sphere":
        raise CertificateError("uniformity applies to one_sphere certificates")
    _check_wellformed(tree, cert)
    if not cert.centers:
        return True, None
    base = _base(tree, cert)
    groups = centers_by_component(tree, cert.centers)
    compared = [c for c in all_components(tree) if base is None or c in base]
    by_comp = {c: set(groups.get(c, ())) for c in compared}
    for c in compared[1:]:
        if not _equivalent(by_comp[compared[0]], by_comp[c]):
            return False, (f"components {tuple(sorted(compared[0]))} and {tuple(sorted(c))} "
                           f"carry inequivalent center sets")
    return True, None


def _equivalent(centers1: set[Perm], centers2: set[Perm]) -> bool:
    """Does some translation g -> compose(x, g) carry centers1 onto centers2?

    Any such x sends g = min(centers1) to some h in centers2, so x is one
    of the candidates h o g^-1.  Each candidate maps g's left values (its
    component) onto h's and the right values onto the right values, so it
    is a translation of the kind ``uniformity_check`` asks for.
    """
    if len(centers1) != len(centers2):
        return False
    if not centers1:
        return True
    g_inv = invert(min(centers1))
    for h in centers2:
        x = compose(h, g_inv)
        if all(compose(x, p) in centers2 for p in centers1):
            return True
    return False


# ---------------------------------------------------------------------------
# JSON interchange


def frac_to_str(x: Fraction) -> str:
    """"a/b" in lowest terms; unlike ``str``, 1 is written "1/1"."""
    return f"{x.numerator}/{x.denominator}"


def cert_to_dict(cert: PackingCertificate) -> dict:
    out = {"n": cert.n, "r": cert.r, "t": cert.t, "numbering": cert.numbering,
           "kind": cert.kind}
    if cert.kind == "double_sphere":
        out["centers"] = [[perm_to_str(x), perm_to_str(y)] for x, y in cert.centers]
    else:
        out["centers"] = list(map(perm_to_str, cert.centers))
    if cert.declared_alpha is not None:
        out["declared_alpha"] = frac_to_str(cert.declared_alpha)
    if cert.base_subgraph is not None:
        out["base_subgraph"] = [sorted(c) for c in cert.base_subgraph]
    return out


def cert_from_dict(data: dict) -> PackingCertificate:
    try:
        kind = data["kind"]
        raw = data["centers"]
        if not isinstance(raw, list):
            raise TypeError(f"centers must be a list, got {type(raw).__name__}")
        if kind == "double_sphere":
            centers = [(word_from_str(a), word_from_str(b)) for a, b in raw]
        else:
            centers = list(map(word_from_str, raw))
        alpha = data.get("declared_alpha")
        if alpha is not None:
            # a JSON number would be read as its binary fraction
            if not isinstance(alpha, str):
                raise TypeError(f"declared_alpha must be a string such as \"5/6\", "
                                f"got {alpha!r}")
            alpha = Fraction(alpha)
        base = data.get("base_subgraph")
        if base is not None:
            base = [frozenset(c) for c in base]
        n, r, t = data["n"], data.get("r"), data.get("t")
        if type(n) is not int:
            raise TypeError(f"n must be an integer, got {n!r}")
        for name, value in (("r", r), ("t", t)):
            if value is not None and type(value) is not int:
                raise TypeError(f"{name} must be an integer or null, got {value!r}")
        return PackingCertificate(
            n=n, kind=kind, centers=centers, r=r, t=t, numbering=data.get("numbering"),
            declared_alpha=alpha, base_subgraph=base)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "valid": report.valid,
        "covered_count": report.covered_count,
        "alpha": frac_to_str(report.alpha),
        "is_eset": report.is_eset,
        "per_component_profile": {"".join(map(str, k)): v
                                  for k, v in sorted(report.per_component_profile.items())},
        "violations": report.violations,
    }
