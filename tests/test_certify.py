"""Certificate verifier: well-formedness, disjointness, alpha, uniformity,
JSON round-trips."""

import ast
import copy
import hashlib
import inspect
import json
import math
import pathlib
import pickle
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import permpack
from conftest import load_fixture, placed_x3
from permpack.cayley import (RENUMBERED, TranspositionTree, all_components, build_tree,
                             closed_sphere, component_of, edge_getters, enumerate_component,
                             neighbors, packing_profile, packing_union, star_tree)
from permpack.certify import (CertificateError, PackingCertificate, VerificationReport,
                              _equivalent, cert_from_dict, cert_to_dict,
                              report_to_dict, sphere_sets, uniformity_check,
                              verify_eset, verify_on_subgraph, verify_packing)
from permpack.constructions import (Construction, TableRow, xprime_components,
                                    xprime_perfect_code)
from permpack.johnson import ExactSubgraph
from permpack.perms import all_perms, compose, perm_from_str, perm_to_str
from permpack.search import SearchOutcome


def _cert(tree, centers, **kw):
    return PackingCertificate(n=tree.n, kind="one_sphere", centers=list(centers),
                              r=tree.r, t=tree.t, numbering=tree.numbering, **kw)


def test_single_sphere_alpha():
    tree = build_tree(2, 2)
    rep = verify_packing(tree, _cert(tree, [(1, 2, 3, 4)]))
    assert rep.valid and rep.covered_count == 4
    assert rep.alpha == Fraction(1, 6)
    assert not rep.is_eset


def test_overlap_detected():
    tree = build_tree(2, 2)
    rep = verify_packing(tree, _cert(tree, [(1, 2, 3, 4), (2, 1, 3, 4)]))
    assert not rep.valid
    assert any("overlaps" in v for v in rep.violations)


def test_declared_alpha_mismatch():
    tree = build_tree(2, 2)
    rep = verify_packing(tree, _cert(tree, [(1, 2, 3, 4)],
                                    declared_alpha=Fraction(1, 2)))
    assert not rep.valid
    assert any("declared" in v for v in rep.violations)
    # the subgraph verifier checks a declared alpha too
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    code.declared_alpha = Fraction(1, 2)
    rep = verify_on_subgraph(tree, code, code.base_subgraph)
    assert rep.violations == ["declared alpha 1/2 != measured 2/5"]


def test_malformed_certificates_rejected():
    tree = build_tree(2, 2)
    with pytest.raises(CertificateError):
        verify_packing(tree, _cert(tree, [(1, 2, 3)]))
    with pytest.raises(CertificateError):
        verify_packing(tree, _cert(tree, [(1, 2, 3, 4), (1, 2, 3, 4)]))
    with pytest.raises(CertificateError):
        verify_packing(tree, PackingCertificate(n=5, kind="one_sphere",
                                                centers=[(1, 2, 3, 4, 5)]))
    with pytest.raises(CertificateError):
        verify_packing(tree, _cert(tree, [(1, 2, 3, 4)]).__class__(
            n=4, kind="weird", centers=[(1, 2, 3, 4)]))
    with pytest.raises(CertificateError, match="s_sphere certificate needs a base_subgraph"):
        verify_packing(tree, PackingCertificate(n=4, kind="s_sphere", centers=[(1, 2, 3, 4)]))


@pytest.mark.parametrize("field, value, message", [
    ("n", "5", "n must be an integer, got '5'"),
    ("n", True, "n must be an integer, got True"),
    ("n", 5.0, "n must be an integer, got 5.0"),
    ("r", "3", "r must be an integer or null, got '3'"),
    ("t", [2], "t must be an integer or null, got [2]"),
    ("centers", "12534", "centers must be a list, got str"),
    ("centers", {"12534": 1}, "centers must be a list, got dict"),
])
def test_cert_from_dict_checks_field_types(field, value, message):
    # a wrong type would otherwise reach the verifier, which reads "5" as a
    # degree that differs from 5 and a string of centers as its characters
    data = load_fixture("x32_uniform_5_6.json")
    data[field] = value
    with pytest.raises(CertificateError) as err:
        cert_from_dict(data)
    assert str(err.value) == f"malformed certificate: {message}"


def test_cert_from_dict_accepts_null_r_and_t():
    data = load_fixture("x32_uniform_5_6.json")
    data.update(r=None, t=None)
    cert = cert_from_dict(data)
    assert (cert.n, cert.r, cert.t) == (5, None, None)
    assert verify_packing(build_tree(3, 2), cert).valid


def test_double_sphere_requires_adjacent_centers():
    tree = build_tree(2, 2)
    good = PackingCertificate(n=4, kind="double_sphere",
                              centers=[((1, 2, 3, 4), (2, 1, 3, 4))])
    rep = verify_packing(tree, good)
    assert rep.valid and rep.covered_count == 6
    bad = PackingCertificate(n=4, kind="double_sphere",
                             centers=[((1, 2, 3, 4), (2, 1, 4, 3))])
    with pytest.raises(CertificateError):
        verify_packing(tree, bad)


def test_s_sphere_enlarges_across_the_hub_matching():
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    cert = PackingCertificate(n=6, kind="s_sphere", centers=list(code.centers),
                              r=3, t=3, numbering=RENUMBERED,
                              base_subgraph=xprime_components(3))
    rep = verify_packing(tree, cert)
    assert rep.valid
    # every sphere gains its outside neighbors: covered grows past 288
    assert rep.covered_count == 288 + 192


def test_verify_eset_requires_one_sphere():
    tree = build_tree(2, 2)
    cert = PackingCertificate(n=4, kind="double_sphere",
                              centers=[((1, 2, 3, 4), (2, 1, 3, 4))])
    with pytest.raises(CertificateError):
        verify_eset(tree, cert)
    # so do the subgraph verifier and the uniformity check
    with pytest.raises(CertificateError, match="subgraph verification applies"):
        verify_on_subgraph(tree, cert, [frozenset({1, 2})])
    with pytest.raises(CertificateError, match="uniformity applies"):
        uniformity_check(tree, cert)


def test_verify_on_subgraph_counts_against_component_sizes():
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    rep = verify_on_subgraph(tree, code, code.base_subgraph)
    assert rep.valid and rep.is_eset and rep.covered_count == 288


def test_verify_on_subgraph_leaves_the_certificate_unchanged():
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    cert = _cert(tree, code.centers)
    before = _cert(tree, code.centers)
    assert verify_on_subgraph(tree, cert, code.base_subgraph).is_eset
    assert cert == before and cert.base_subgraph is None
    assert not verify_packing(tree, cert).is_eset


def test_certificate_is_a_mutable_value():
    cert = PackingCertificate(4, "one_sphere", [(1, 2, 3, 4)])
    assert cert == PackingCertificate(n=4, kind="one_sphere", centers=[(1, 2, 3, 4)])
    assert cert != PackingCertificate(4, "one_sphere", [(1, 2, 3, 4)], r=2)
    assert cert != (4, "one_sphere", [(1, 2, 3, 4)])
    assert repr(cert) == ("PackingCertificate(n=4, kind='one_sphere', centers=[(1, 2, 3, 4)], "
                          "r=None, t=None, numbering=None, declared_alpha=None, "
                          "base_subgraph=None)")
    with pytest.raises(TypeError):
        hash(cert)
    cert.r = 2
    assert cert == PackingCertificate(4, "one_sphere", [(1, 2, 3, 4)], 2)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda cert: pickle.loads(pickle.dumps(cert))]
    + [lambda cert, p=p: pickle.loads(pickle.dumps(cert, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    ids=["copy", "deepcopy", "pickle"]
    + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_certificate_copies_and_pickles(clone):
    cert = PackingCertificate(6, "one_sphere", [(1, 2, 3, 4, 5, 6)], 3, 3, RENUMBERED,
                              Fraction(1, 120), [frozenset({1, 2, 3})])
    made = clone(cert)
    assert type(made) is PackingCertificate and made == cert and made is not cert


def _record_cases():
    """(record, required arguments, {name: default}) of every record."""
    tree = build_tree(2, 2)
    cert = _cert(tree, [(1, 2, 3, 4)])
    report = verify_packing(tree, cert)
    cases = [
        (TranspositionTree, (4, ((1, 2), (1, 3), (1, 4))),
         {"epsilon": None, "r": None, "t": None, "numbering": None}),
        (PackingCertificate, (4, "one_sphere", []),
         {"r": None, "t": None, "numbering": None, "declared_alpha": None,
          "base_subgraph": None}),
        (VerificationReport, (True, 4, Fraction(1, 6), False, {}), {"violations": []}),
        (SearchOutcome, ("found", cert, 7),
         {"wall_budget_exceeded": False, "covered_count": 0, "upper_bound": None}),
        (ExactSubgraph, (frozenset(), ()), {"kind": "general"}),
        (TableRow, (2, [1, 4], [Fraction(4), Fraction(0)], 6, Fraction(4), 0, Fraction(2, 3)),
         {}),
        (Construction, (cert, report), {"target_alpha": None}),
    ]
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


@pytest.mark.parametrize("record, required, defaults", _record_cases())
def test_records_take_positional_and_keyword_arguments(record, required, defaults):
    names = list(inspect.signature(record).parameters)
    assert names[len(required):] == list(defaults)
    made = record(*required)
    assert made == record(**dict(zip(names, required)))
    assert [getattr(made, name) for name in names] == [*required, *defaults.values()]
    # a mutable default is a new object per record
    for name, value in defaults.items():
        if isinstance(value, list):
            assert getattr(made, name) is not getattr(record(*required), name)


def test_verify_on_subgraph_needs_components():
    # a star has no components; refused before any sphere is built
    cert = PackingCertificate(n=4, kind="one_sphere", centers=[])
    with pytest.raises(ValueError, match="components defined only for diameter-3 trees"):
        verify_on_subgraph(star_tree(4), cert, [])


def test_verify_on_subgraph_blames_the_overlapping_sphere():
    # 124356 lies outside the X' components; the overlap that follows is
    # 213456's, not that of the certificate's second center
    tree = build_tree(3, 3, RENUMBERED)
    cert = _cert(tree, [(1, 2, 4, 3, 5, 6), (1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 5, 6)])
    rep = verify_on_subgraph(tree, cert, xprime_components(3))
    assert rep.violations[0] == "center 124356 lies outside the listed components"
    assert len(rep.violations) == 2
    assert rep.violations[1].startswith("sphere of 213456 overlaps an earlier sphere at ")


def test_verify_packing_measures_the_declared_base_subgraph():
    # the X' code declares its components, so the one verifier measures it
    # in X'(3,3), where it is a perfect code
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    rep = verify_packing(tree, code)
    assert rep.valid and rep.is_eset and rep.covered_count == 288
    assert rep == verify_on_subgraph(tree, code, code.base_subgraph)


def test_s_sphere_center_outside_the_base_is_a_violation():
    # the rule of a one_sphere base: the center is named, not raised
    tree = build_tree(3, 3, RENUMBERED)
    cert = PackingCertificate(n=6, kind="s_sphere",
                              centers=[(1, 2, 4, 3, 5, 6), (1, 2, 3, 4, 5, 6)], r=3, t=3,
                              numbering=RENUMBERED, base_subgraph=xprime_components(3))
    rep = verify_packing(tree, cert)
    assert not rep.valid
    assert rep.violations == ["center 124356 lies outside the listed components"]


def test_a_base_subgraph_on_a_star_is_refused():
    cert = PackingCertificate(n=4, kind="one_sphere", centers=[(1, 2, 3, 4)],
                              base_subgraph=[frozenset({1, 2})])
    with pytest.raises(ValueError, match="components defined only for diameter-3 trees"):
        verify_packing(star_tree(4), cert)


def _identifier(node):
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)


def test_only_certify_calls_verify_on_subgraph():
    # one verifier body: the library verifies through verify_packing
    src = pathlib.Path(permpack.__file__).parent
    callers = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _identifier(node) == "verify_on_subgraph":
                callers.add(path.stem)
    assert callers <= {"certify"}


def test_one_certificate_builder_one_edge_move_one_parity_rule():
    # certify alone builds certificates: search and constructions take
    # theirs, with the verifier's report, from certify.certified; moves
    # across a tree edge are cayley's, and perms has one parity rule
    src = pathlib.Path(permpack.__file__).parent
    builders, defined, used = set(), set(), {}
    for path in sorted(src.glob("*.py")):
        used[path.stem] = names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            names.add(_identifier(node))
            if isinstance(node, ast.Call) and _identifier(node.func) == "PackingCertificate":
                builders.add(path.stem)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert builders == {"certify"}
    verifiers = {"PackingCertificate", "verify_packing", "verify_eset", "verify_on_subgraph"}
    assert used["search"] & verifiers == set()
    assert used["constructions"] & verifiers == set()
    assert [mod for mod, names in used.items() if "swap_positions" in names] == []
    assert defined & {"relative_parity", "epsilon_neighbors", "_cert_from_ranks"} == set()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_uniformity_check_compares_only_the_base_components(r):
    # the X' code is uniform over its base, the 2^r type-0 components,
    # while the components outside it carry no centers
    tree = build_tree(r, r, RENUMBERED)
    code = xprime_perfect_code(r).certificate
    assert uniformity_check(tree, code) == (True, None)
    # without the base, the empty components outside it are compared too
    assert not uniformity_check(tree, _cert(tree, code.centers))[0]
    # one center fewer in the last base component: it differs from the
    # first base component in all_components order, the reference
    base = [c for c in all_components(tree) if c in set(code.base_subgraph)]
    dropped = next(g for g in code.centers if component_of(tree, g) == base[-1])
    lopsided = _cert(tree, [g for g in code.centers if g != dropped],
                     base_subgraph=code.base_subgraph)
    assert uniformity_check(tree, lopsided) == (
        False, f"components {tuple(sorted(base[0]))} and {tuple(sorted(base[-1]))} "
               f"carry inequivalent center sets")
    # one base component has nothing to be compared with
    single = _cert(tree, [g for g in code.centers if component_of(tree, g) == base[0]],
                   base_subgraph=base[:1])
    assert uniformity_check(tree, single) == (True, None)


def _sorted_compared_with_values(tree: ast.Module) -> list[str]:
    """Comparisons of a sorted(...) call with a range(1, ...) list, given
    inline or through a name assigned from one."""
    ranges = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and "range(1," in ast.unparse(node.value)
              for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Call) and _identifier(o.func) == "sorted" for o in operands)
                    and any("range(1," in ast.unparse(o)
                            or isinstance(o, ast.Name) and o.id in ranges for o in operands)):
                found.append(ast.unparse(node))
    return found


def test_one_epsilon_check_one_product_one_permutation_test():
    # perms.compose is the one product and perms.is_perm the one
    # permutation test; packing_profile groups the centers once
    src = pathlib.Path(permpack.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    functions = {stem: {node.name: node for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)} for stem, tree in modules.items()}
    assert "translate" not in functions["cayley"]
    groupings = [node for node in ast.walk(functions["cayley"]["packing_profile"])
                 if isinstance(node, ast.Call) and _identifier(node.func) == "centers_by_component"]
    assert len(groupings) == 1
    reads = [stem for stem, tree in modules.items() for node in ast.walk(tree)
             if _identifier(node) == "_values"]
    in_is_perm = [node for node in ast.walk(functions["perms"]["is_perm"])
                  if _identifier(node) == "_values"]
    assert in_is_perm and reads == ["perms"] * len(in_is_perm)
    assert {stem: _sorted_compared_with_values(tree) for stem, tree in modules.items()
            if stem != "perms" and _sorted_compared_with_values(tree)} == {}


_ONE_TO_N = re.compile(r"(frozen)?set\(range\(1, (\w+\.)?n \+ 1\)\)")


def _compared_with_one_to_n(tree: ast.Module) -> list[str]:
    """Comparisons with the set of 1..n, given inline or through a name
    assigned from one."""
    names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _ONE_TO_N.fullmatch(ast.unparse(node.value))
             for target in node.targets if isinstance(target, ast.Name)}
    return [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(_ONE_TO_N.fullmatch(ast.unparse(o))
                    or isinstance(o, ast.Name) and o.id in names
                    for o in [node.left, *node.comparators])]


def test_one_r_subset_rule_one_subgraph_builder_a_stdlib_certificate_record():
    # perms.is_r_subset is the one test of an r-subset of 1..n,
    # johnson.make_subgraph the one builder of an ExactSubgraph, and the
    # certificate takes equality and repr from types.SimpleNamespace
    src = pathlib.Path(permpack.__file__).parent
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    builders = {(stem, function.name) for stem, tree in modules.items()
                for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and _identifier(node.func) == "ExactSubgraph"}
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _identifier(node.func) == "ExactSubgraph"]
    assert builders == {("johnson", "make_subgraph")} and len(calls) == 1
    record = next(node for node in ast.walk(modules["certify"])
                  if isinstance(node, ast.ClassDef) and node.name == "PackingCertificate")
    defined = {node.name for node in record.body if isinstance(node, ast.FunctionDef)} | {
        target.id for node in record.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    assert defined & {"__eq__", "__repr__", "__hash__", "__slots__"} == set()
    assert {stem: _compared_with_one_to_n(modules[stem]) for stem in ("cayley", "johnson")} == {
        "cayley": [], "johnson": []}


def test_uniformity_accepts_fixture_and_rejects_lopsided():
    tree = build_tree(3, 2)
    cert = cert_from_dict(load_fixture("x32_uniform_5_6.json"))
    ok, why = uniformity_check(tree, cert)
    assert ok and why is None
    # drop two centers from one component: no translation can match
    dropped = [c for c in cert.centers if c[:3] != cert.centers[0][:3]]
    lopsided = _cert(tree, dropped)
    ok, why = uniformity_check(tree, lopsided)
    assert not ok and "inequivalent" in why


def test_uniformity_needs_components():
    tree = star_tree(4)
    assert uniformity_check(tree, _cert(tree, [])) == (True, None)
    with pytest.raises(ValueError, match="diameter-3"):
        uniformity_check(tree, _cert(tree, [(1, 2, 3, 4)]))


def test_uniformity_of_x53_from_j85(x53_from_j85):
    tree, _, made = x53_from_j85
    cert = made.certificate
    assert uniformity_check(tree, cert) == (True, None)
    # move one center within its component: the counts still match, so
    # only the translations can tell the components apart
    taken = set(cert.centers)
    spare = next(g for g in enumerate_component(tree, component_of(tree, cert.centers[0]))
                 if g not in taken)
    lopsided = _cert(tree, [spare] + cert.centers[1:])
    ok, why = uniformity_check(tree, lopsided)
    assert not ok and "inequivalent" in why
    ok, why = uniformity_check(tree, _cert(tree, cert.centers[1:]))
    assert not ok and "inequivalent" in why


def _reference_equivalent(tree, centers1, c1, centers2, c2):
    """``_equivalent`` by enumeration: try every value relabelling x that
    maps component c1 onto c2 and its complement onto c2's, r!t! of them."""
    if len(centers1) != len(centers2):
        return False
    if not centers1:
        return True
    universe = set(range(1, tree.n + 1))
    left1, left2 = sorted(c1), sorted(c2)
    right1, right2 = sorted(universe - c1), sorted(universe - c2)
    for lperm in permutations(left2):
        for rperm in permutations(right2):
            word = [0] * tree.n
            for a, b in zip(left1 + right1, lperm + rperm):
                word[a - 1] = b
            if {compose(tuple(word), g) for g in centers1} == centers2:
                return True
    return False


@given(st.data())
def test_equivalent_matches_reference(data):
    r, t = data.draw(st.sampled_from([(2, 2), (3, 2), (3, 3)]))
    tree = build_tree(r, t)
    comps = all_components(tree)
    c1, c2 = data.draw(st.sampled_from(comps)), data.draw(st.sampled_from(comps))
    verts1, verts2 = list(enumerate_component(tree, c1)), list(enumerate_component(tree, c2))
    k = data.draw(st.integers(0, min(5, len(verts1))))
    centers1 = set(data.draw(st.lists(st.sampled_from(verts1), min_size=k, max_size=k,
                                      unique=True)))
    if data.draw(st.booleans()):
        # a translate of centers1, with one center perhaps moved
        universe = set(range(1, tree.n + 1))
        image = (data.draw(st.permutations(sorted(c2)))
                 + data.draw(st.permutations(sorted(universe - c2))))
        word = [0] * tree.n
        for a, b in zip(sorted(c1) + sorted(universe - c1), image):
            word[a - 1] = b
        centers2 = {compose(tuple(word), g) for g in centers1}
        if centers2 and data.draw(st.booleans()):
            centers2.discard(data.draw(st.sampled_from(sorted(centers2))))
            centers2.add(data.draw(st.sampled_from([g for g in verts2 if g not in centers2])))
    else:
        size = data.draw(st.sampled_from([k, min(k + 1, len(verts2))]))
        centers2 = set(data.draw(st.lists(st.sampled_from(verts2), min_size=size,
                                          max_size=size, unique=True)))
    assert _equivalent(centers1, centers2) == _reference_equivalent(
        tree, centers1, c1, centers2, c2)


def _reference_report(tree, cert):
    """``report_to_dict(verify_packing(...))`` of a one_sphere certificate
    by the per-sphere loop: each closed sphere a frozenset built through
    ``neighbors``, cut to the base subgraph when there is one, united in
    certificate order."""
    base = cert.base_subgraph
    inside = (lambda g: True) if base is None else (lambda g: component_of(tree, g) in base)
    violations = [f"center {perm_to_str(g)} lies outside the listed components"
                  for g in cert.centers if not inside(g)]
    covered = set()
    for g in filter(inside, cert.centers):
        sph = frozenset([g] + [h for _, h in neighbors(tree, g)])
        if base is not None:
            sph = frozenset(q for q in sph if inside(q))
        clash = covered & sph
        if clash:
            violations.append(f"sphere of {perm_to_str(g)} overlaps an earlier sphere at "
                              f"{perm_to_str(next(iter(clash)))}")
        covered |= sph
    whole = sum(map(inside, all_perms(tree.n)))
    alpha = Fraction(len(covered), math.factorial(tree.n))
    profile = {}
    if tree.r is not None:
        for g in cert.centers:
            key = "".join(map(str, sorted(component_of(tree, g))))
            profile[key] = profile.get(key, 0) + 1
    return {"valid": not violations, "covered_count": len(covered),
            "alpha": f"{alpha.numerator}/{alpha.denominator}",
            "is_eset": not violations and len(covered) == whole,
            "per_component_profile": profile, "violations": violations}


_REFERENCE_TREES = [build_tree(2, 2), build_tree(2, 2, RENUMBERED), build_tree(3, 2),
                    build_tree(3, 2, RENUMBERED), star_tree(4)]


@given(st.data())
def test_verify_packing_matches_reference(data):
    tree = data.draw(st.sampled_from(_REFERENCE_TREES))
    verts = list(all_perms(tree.n))
    order = data.draw(st.permutations(verts))
    if data.draw(st.booleans()):
        # a greedy packing in a random order: disjoint spheres
        covered, centers = set(), []
        for g in order[:data.draw(st.integers(0, len(verts)))]:
            sph = closed_sphere(tree, g)
            if covered.isdisjoint(sph):
                covered |= sph
                centers.append(g)
    else:
        centers = order[:data.draw(st.integers(0, 12))]
    if centers and data.draw(st.booleans()):
        # a neighbor of a center, at a drawn place in the list: an overlap
        g = data.draw(st.sampled_from(centers))
        _, h = data.draw(st.sampled_from(neighbors(tree, g)))
        if h not in centers:
            centers.insert(data.draw(st.integers(0, len(centers))), h)
    cert = _cert(tree, centers)
    if tree.r is not None and data.draw(st.booleans()):
        # a base subgraph: the centers' components and drawn others, or
        # drawn components alone, which may leave centers outside
        comps = all_components(tree)
        drawn = data.draw(st.lists(st.sampled_from(comps), unique=True))
        if data.draw(st.booleans()):
            drawn += [c for c in dict.fromkeys(component_of(tree, g) for g in centers)
                      if c not in drawn]
        cert.base_subgraph = drawn
    assert report_to_dict(verify_packing(tree, cert)) == _reference_report(tree, cert)


def _placed_trees():
    """X3(2,2), (3,2), (3,3) and (4,2) with their hubs at every place,
    both numberings among them."""
    return [placed_x3(r, t, a, b) for r, t in ((2, 2), (3, 2), (3, 3), (4, 2))
            for a in range(1, r + 1) for b in range(r + 1, r + t + 1)]


@given(st.data())
def test_per_component_check_matches_whole_graph_union(data):
    tree = data.draw(st.sampled_from(_placed_trees()))
    rnd = random.Random(data.draw(st.integers(0, 2**32)))
    verts = list(all_perms(tree.n))
    kind = data.draw(st.sampled_from(["random", "greedy", "eps-center", "eps-neighbour"]))
    if kind == "random":
        # repeats allowed: a repeated center is a meeting too
        centers = [rnd.choice(verts) for _ in range(data.draw(st.integers(0, 40)))]
    else:
        # a greedy packing in a random order: disjoint spheres
        rnd.shuffle(verts)
        covered, centers = set(), []
        for g in verts[:data.draw(st.integers(1, len(verts)))]:
            sph = closed_sphere(tree, g)
            if covered.isdisjoint(sph):
                covered |= sph
                centers.append(g)
    if kind.startswith("eps"):
        # d with c.eps = d (d is c's epsilon-neighbour) or c.eps = d.e for a
        # tree edge e other than eps; the centers whose spheres meet d's,
        # c aside, are dropped, so the only meeting is across eps
        getters = dict(zip(tree.edges, edge_getters(tree)))
        c = rnd.choice(centers)
        d = getters[tree.epsilon](c)
        if kind == "eps-neighbour":
            e = rnd.choice([e for e in tree.edges if e != tree.epsilon])
            d = getters[e](d)
        sph = closed_sphere(tree, d)
        centers = [g for g in centers if g == c or sph.isdisjoint(closed_sphere(tree, g))]
        centers.insert(rnd.randrange(len(centers) + 1), d)
        for comp in {component_of(tree, g) for g in centers}:
            assert packing_union(tree, [g for g in centers if component_of(tree, g) == comp])
    union = packing_union(tree, centers)
    groups = packing_profile(tree, centers)
    assert (groups is None) == (union is None)
    assert kind in ("random", "greedy") or groups is None
    by_comp = {}
    for g in centers:
        by_comp.setdefault(component_of(tree, g), []).append(g)
    if groups is not None:
        assert groups == by_comp and list(groups) == list(by_comp)
        assert tree.n * len(centers) == len(union)
    if len(set(centers)) == len(centers):
        rep = verify_packing(tree, _cert(tree, centers))
        assert rep.valid == (union is not None)
        assert rep.covered_count == len(set().union(*sphere_sets(tree, _cert(tree, centers))))
        assert rep.per_component_profile == {tuple(sorted(k)): len(v) for k, v in by_comp.items()}


def test_per_component_check_on_a_star_is_the_whole_graph_union():
    tree = star_tree(4)
    assert packing_profile(tree, [(1, 2, 3, 4), (2, 3, 4, 1)]) == {}
    assert packing_profile(tree, [(1, 2, 3, 4), (2, 1, 3, 4)]) is None


def test_verifying_x53_from_j85_builds_no_whole_graph_union(x53_from_j85):
    tree, _, made = x53_from_j85
    verify_packing(tree, made.certificate)  # the tree's edge getters are cached
    tracemalloc.start()
    try:
        report = verify_packing(tree, made.certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and report.covered_count == 8 * 2688
    # the union of all 2688 spheres holds 21 504 words of 8 values, about
    # 4 MiB with its set; one component's union is 1/56 of that
    assert peak < 2**20


def test_verify_packing_names_the_overlap_of_x53_from_j85(x53_from_j85):
    tree, _, made = x53_from_j85
    cert = made.certificate
    assert report_to_dict(verify_packing(tree, cert)) == _reference_report(tree, cert)
    # one center replaced by a neighbor of another: the fast union falls
    # short and the ordered loop names the same overlap as the reference
    centers = list(cert.centers)
    _, h = neighbors(tree, centers[1000])[2]
    centers[7] = h
    moved = _cert(tree, centers)
    rep = report_to_dict(verify_packing(tree, moved))
    assert not rep["valid"] and rep["violations"]
    assert rep == _reference_report(tree, moved)


def _golden_cases():
    t22, t32, t33 = build_tree(2, 2), build_tree(3, 2), build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    s_sphere = PackingCertificate(n=6, kind="s_sphere", centers=list(code.centers), r=3, t=3,
                                  numbering=RENUMBERED, base_subgraph=xprime_components(3))
    s_overlap = PackingCertificate(n=6, kind="s_sphere",
                                   centers=[(1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 5, 6)], r=3, t=3,
                                   numbering=RENUMBERED, base_subgraph=xprime_components(3))

    def double(*pairs):
        return PackingCertificate(n=4, kind="double_sphere", centers=list(pairs))

    return [
        (t22, cert_from_dict(load_fixture("x22_eset_2_3.json"))),
        (t22, cert_from_dict(load_fixture("x22_eset_5_6.json"))),
        (t32, cert_from_dict(load_fixture("x32_uniform_5_6.json"))),
        (t33, s_sphere),
        (t33, s_overlap),
        (t22, double(((1, 2, 3, 4), (2, 1, 3, 4)), ((3, 4, 1, 2), (4, 3, 1, 2)))),
        (t22, double(((1, 2, 3, 4), (2, 1, 3, 4)), ((1, 3, 2, 4), (3, 1, 2, 4)))),
        (t22, _cert(t22, [(1, 2, 3, 4), (2, 1, 3, 4), (1, 3, 2, 4)])),
    ]


def test_reports_golden():
    # the reports of the fixtures, s-sphere, double-sphere and overlapping
    # certificates, witness vertices of the overlaps included
    reports = [report_to_dict(verify_packing(tree, cert)) for tree, cert in _golden_cases()]
    data = json.dumps(reports, sort_keys=True)
    assert hashlib.sha256(data.encode()).hexdigest()[:16] == "c1f8864ccfe7bb76"


def test_translation_invariance_randomized():
    rng = random.Random(5)
    tree = build_tree(3, 2)
    cert = cert_from_dict(load_fixture("x32_uniform_5_6.json"))
    base = verify_packing(tree, cert)
    perms = list(all_perms(5))
    for _ in range(5):
        x = perms[rng.randrange(len(perms))]
        moved = _cert(tree, sorted(compose(x, g) for g in cert.centers))
        rep = verify_packing(tree, moved)
        assert rep.valid == base.valid
        assert rep.alpha == base.alpha
        assert rep.covered_count == base.covered_count


def test_sphere_sets_sizes():
    tree = build_tree(2, 2)
    cert = _cert(tree, [(1, 2, 3, 4)])
    (sph,) = sphere_sets(tree, cert)
    assert sph == closed_sphere(tree, (1, 2, 3, 4))


def test_cert_json_roundtrip(tmp_path):
    tree = build_tree(3, 2)
    cert = cert_from_dict(load_fixture("x32_uniform_5_6.json"))
    data = cert_to_dict(cert)
    again = cert_from_dict(data)
    assert again == cert
    assert data["centers"] == sorted(data["centers"])
    with pytest.raises(CertificateError):
        cert_from_dict({"n": 4, "kind": "one_sphere"})


def test_cert_json_roundtrip_of_double_sphere_and_base_subgraph():
    t22, t33 = build_tree(2, 2), build_tree(3, 3, RENUMBERED)
    double = PackingCertificate(n=4, kind="double_sphere", r=2, t=2, numbering=t22.numbering,
                                centers=[((1, 2, 3, 4), (2, 1, 3, 4)),
                                         ((3, 4, 1, 2), (4, 3, 1, 2))])
    for tree, cert in ((t22, double), (t33, xprime_perfect_code(3).certificate)):
        again = cert_from_dict(json.loads(json.dumps(cert_to_dict(cert))))
        assert again == cert
        assert verify_packing(tree, again) == verify_packing(tree, cert)


def test_fixture_centers_parse():
    data = load_fixture("x22_eset_5_6.json")
    assert len(data["centers"]) == 5
    assert all(len(perm_from_str(s)) == 4 for s in data["centers"])
