"""Acceptance gate: nine end-to-end criteria, one test (and one verdict
line) each.  Each test prints "criterion N: PASS" only after all of its
assertions hold; a failure surfaces as a normal pytest failure."""

import math
import time
from fractions import Fraction

from conftest import graph_distance, load_fixture, nest_g35, nest_g46, two_factor_g35
from permpack.cayley import (RENUMBERED, build_tree,
                             closed_sphere, component_of, component_type,
                             neighbors, star_tree)
from permpack.certify import (PackingCertificate, cert_from_dict,
                              uniformity_check, verify_eset,
                              verify_on_subgraph, verify_packing)
from permpack.constructions import (nonuniform_extension, star_eset, table_T,
                                    table_row, uniform_from_exact,
                                    xprime_perfect_code)
from permpack.johnson import (alternate_cops, expand_cc, is_exact, parse_cop,
                              search_exact_2factor, validate_nest)
from permpack.perms import all_perms, compose
from permpack.search import FOUND, NONE_EXHAUSTIVE, find_eset, max_packing


def test_criterion_1_no_eset_at_desk_scale():
    budgets = {(2, 2): 1.0, (3, 2): 10.0, (4, 2): 600.0, (3, 3): 600.0}
    for (r, t), budget in budgets.items():
        start = time.monotonic()
        out = find_eset(build_tree(r, t), symmetry=True)
        elapsed = time.monotonic() - start
        assert out.status == NONE_EXHAUSTIVE, (r, t)
        assert elapsed < budget, f"({r},{t}) took {elapsed:.1f}s > {budget}s"
    # soundness cross-check: reduction off agrees at n = 4, 5
    for r, t in ((2, 2), (3, 2)):
        assert find_eset(build_tree(r, t), symmetry=False).status == NONE_EXHAUSTIVE
    print("criterion 1: PASS (no E-set for (2,2),(3,2),(4,2),(3,3); reduction sound)")


def test_criterion_2_star_slices():
    for n in range(3, 7):
        star = star_tree(n)
        union = set()
        for i in range(1, n + 1):
            slc = star_eset(n, 1, i)
            rep = verify_eset(star, PackingCertificate(
                n=n, kind="one_sphere", centers=slc))
            assert rep.is_eset, (n, i)
            union.update(slc)
        assert len(union) == math.factorial(n), n
    print("criterion 2: PASS (star slices are E-sets and partition S_n, n=3..6)")


def test_criterion_3_x22_certificates_and_optimum():
    tree = build_tree(2, 2)
    for name, alpha in (("x22_eset_5_6.json", Fraction(5, 6)),
                        ("x22_eset_2_3.json", Fraction(2, 3))):
        cert = cert_from_dict(load_fixture(name))
        rep = verify_packing(tree, cert)
        assert rep.valid and rep.alpha == alpha, name
    out = max_packing(tree)
    assert out.status == FOUND and not out.wall_budget_exceeded
    assert out.covered_count == 20
    print("criterion 3: PASS (shipped 5/6 and 2/3 certificates verify; optimum 20 certified)")


def test_criterion_4_uniform_packing_of_x32():
    tree = build_tree(3, 2)
    cert = uniform_from_exact(tree, two_factor_g35()).certificate
    rep = verify_packing(tree, cert)
    assert rep.valid
    assert len(cert.centers) == 20
    assert rep.alpha == Fraction(5, 6)
    assert uniformity_check(tree, cert)[0]
    print("criterion 4: PASS (uniform 20-center certificate for (3,2), alpha = 5/6)")


def test_criterion_5_johnson_results():
    assert is_exact(5, 3, expand_cc((1, 2, 3, 4, 5), 3))[0]
    assert is_exact(5, 3, expand_cc((1, 3, 5, 2, 4), 3))[0]
    cyc14 = alternate_cops(parse_cop("1123"), parse_cop("2113"), 7)
    assert cyc14 is not None and len(cyc14.vertices) == 14
    assert is_exact(7, 4, cyc14)[0]
    assert search_exact_2factor(6, 4) is None
    for n, r in ((5, 3), (7, 4)):
        sub = search_exact_2factor(n, r)
        assert sub is not None
        assert len(sub.vertices) == math.comb(n, r)
        assert is_exact(n, r, sub)[0]
    assert validate_nest(5, 3, nest_g35())[0]
    assert validate_nest(6, 4, nest_g46())[0]
    print("criterion 5: PASS (exact cycles, 2-factors, absence at (6,4), both nests)")


def test_criterion_6_type0_code_and_nonuniform_stages():
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    assert len(code.centers) == 48
    assert len(code.base_subgraph) == 8
    rep = verify_on_subgraph(tree, code, code.base_subgraph)
    assert rep.is_eset and rep.covered_count == 288
    mid = nonuniform_extension(3, stage="intermediate")
    assert verify_packing(tree, mid.certificate).valid
    assert mid.report.alpha * math.factorial(6) == 432
    fin = nonuniform_extension(3, stage="final")
    assert verify_packing(tree, fin.certificate).valid
    assert fin.report.alpha == Fraction(4, 5)
    assert fin.report.alpha * math.factorial(6) == 576
    print("criterion 6: PASS (288-vertex perfect subgraph code; 432 and 576 stages)")


def test_criterion_7_census_table():
    printed = {
        2: ([4, 2], [4, 0], 6, 4), 3: ([8, 12], [8, 8], 20, 16),
        4: ([16, 48, 6], [16, 24, 0], 70, 40),
        5: ([32, 160, 60], [32, 64, 24], 252, 120),
        6: ([64, 480, 360, 20], [64, 160, 120, 0], 924, 344),
        7: ([128, 1344, 1680, 280], [128, 384, 480, 80], 3432, 1072),
    }
    for r, (T, S, sigma, sigma_prime) in printed.items():
        row = table_row(r)
        assert (row.T, row.Sigma) == (T, sigma), r
        assert row.S == [Fraction(s) for s in S], r
        assert row.SigmaPrime == Fraction(sigma_prime), r
    for r in range(2, 13):
        row = table_row(r)
        assert sum(row.T) == math.comb(2 * r, r)
        assert sum(row.S) == 2 ** r + Fraction(2 * row.P, r)
        if r > 2:
            assert Fraction(2 * r, r * r) < row.alpha < 1
    print("criterion 7: PASS (census rows r=2..7 exact; identities to r=12)")


def test_criterion_8_component_structure():
    for r, t in ((2, 2), (3, 2), (3, 3), (4, 2)):
        tree = build_tree(r, t, RENUMBERED)
        n = r + t
        comps = {}
        for g in all_perms(n):
            comps.setdefault(component_of(tree, g), set()).add(g)
        assert len(comps) == math.comb(n, r), (r, t)
        assert all(len(m) == math.factorial(r) * math.factorial(t)
                   for m in comps.values())
        if r != t:
            continue
        census = {}
        for c in comps:
            census[component_type(tree, c)] = census.get(component_type(tree, c), 0) + 1
        assert census == {k: table_T(r, k) for k in range(r // 2 + 1) if table_T(r, k)}
        eps = tree.epsilon
        for g in all_perms(n):
            h = dict(neighbors(tree, g))[eps]
            dk = abs(component_type(tree, component_of(tree, g))
                     - component_type(tree, component_of(tree, h)))
            assert dk <= 1, (g, h)
    print("criterion 8: PASS (component counts, sizes, type census, type-adjacent hub edges)")


def test_criterion_9_property_suites():
    # (i) distance >= 3 <=> sphere disjointness, exhaustive for n <= 5
    for r, t in ((2, 2), (3, 2)):
        tree = build_tree(r, t)
        perms = list(all_perms(r + t))
        spheres = {g: closed_sphere(tree, g) for g in perms}
        step = 7 if r + t == 5 else 1  # deterministic thinning keeps n=5 quick
        for i, g in enumerate(perms):
            for h in perms[i + 1::step]:
                disjoint = not (spheres[g] & spheres[h])
                assert disjoint == (graph_distance(tree, g, h) >= 3), (g, h)
    # (ii) translation invariance of verification (randomized is done in the
    # unit suite; here a fixed spot check)
    tree = build_tree(3, 2)
    cert = cert_from_dict(load_fixture("x32_uniform_5_6.json"))
    x = (4, 1, 5, 2, 3)
    moved = PackingCertificate(n=5, kind="one_sphere",
                               centers=sorted(compose(x, g) for g in cert.centers),
                               r=3, t=2, numbering=tree.numbering)
    assert verify_packing(tree, moved).alpha == verify_packing(tree, cert).alpha
    # (iii) uniform certificates never exceed alpha = n/(rt)
    for structure in (two_factor_g35(), nest_g35()):
        c = uniform_from_exact(tree, structure).certificate
        rep = verify_packing(tree, c)
        assert rep.valid and rep.alpha <= Fraction(5, 6)
        assert uniformity_check(tree, c)[0]
    print("criterion 9: PASS (distance/disjointness, translation invariance, uniform bound)")
