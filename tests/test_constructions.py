"""Star slices, type-0 perfect code, uniform and nonuniform packings,
puncturing, census rows."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import cut_nest_g35, nest_g35, two_factor_g35
from permpack import constructions
from permpack.cayley import (ORIGINAL, RENUMBERED, all_components, build_tree, component_of,
                             component_type, star_tree)
from permpack.certify import (PackingCertificate, cert_to_dict, uniformity_check,
                              verify_eset, verify_on_subgraph, verify_packing)
from permpack.cli import run
from permpack.constructions import (_component_centers, _disjoint_picks,
                                    _eligible_components, _local_configs, _xprime_options,
                                    hub_slice, nonuniform_extension, partner,
                                    puncture_attempt, star_eset,
                                    table_T, table_row, uniform_from_exact,
                                    xprime_components, xprime_perfect_code)
from permpack.johnson import alternate_cops, search_exact_2factor
from permpack.perms import all_perms, parity


def test_star_eset_slices_partition():
    for n in range(3, 6):
        star = star_tree(n)
        seen = set()
        for i in range(1, n + 1):
            slc = star_eset(n, 1, i)
            assert len(slc) == math.factorial(n - 1)
            rep = verify_eset(star, PackingCertificate(
                n=n, kind="one_sphere", centers=slc))
            assert rep.is_eset
            seen.update(slc)
        assert len(seen) == math.factorial(n)


def test_star_eset_is_the_filtered_slice():
    # generated directly; it must be the filter of all n! words, in order
    for n in range(1, 7):
        perms = list(all_perms(n))
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                assert star_eset(n, j, i) == [p for p in perms if p[j - 1] == i]


def test_star_eset_validates_input():
    with pytest.raises(ValueError):
        star_eset(4, 5, 1)


def test_hub_slice_shape():
    tree = build_tree(3, 2)
    centers = hub_slice(tree, {1, 2, 3}, 1, 4)
    assert len(centers) == math.factorial(2) * math.factorial(1)
    for g in centers:
        assert component_of(tree, g) == frozenset({1, 2, 3})
        assert g[tree.hub_left - 1] == 1 and g[tree.hub_right - 1] == 4
    with pytest.raises(ValueError):
        hub_slice(tree, {1, 2, 3}, 4, 5)
    with pytest.raises(ValueError):
        hub_slice(tree, {1, 2}, 1, 4)


@pytest.mark.parametrize("r, t, numbering", [(3, 2, ORIGINAL), (3, 2, RENUMBERED),
                                             (3, 3, ORIGINAL), (3, 3, RENUMBERED)])
def test_hub_slice_is_the_filtered_component(r, t, numbering):
    # the members are generated directly; they must be the component's
    # vertices with the two fixed values, in lex order
    tree = build_tree(r, t, numbering)
    j, j2 = tree.hub_left, tree.hub_right
    for comp in all_components(tree):
        members = [g for g in all_perms(tree.n) if component_of(tree, g) == comp]
        for i in sorted(comp):
            for i2 in sorted(set(range(1, tree.n + 1)) - comp):
                expected = [g for g in members if g[j - 1] == i and g[j2 - 1] == i2]
                assert hub_slice(tree, comp, i, i2) == expected


def test_partner():
    assert partner(3, 1) == 4
    assert partner(3, 5) == 2


def test_xprime_components():
    comps = xprime_components(3)
    assert len(comps) == 8
    tree = build_tree(3, 3, RENUMBERED)
    assert all(component_type(tree, c) == 0 for c in comps)


def _reference_component_centers(tree, values, flag):
    """Left factor: every slice with value i at position 1; right factor:
    words of the chosen parity led by the partner of i."""
    r = tree.r
    right_values = sorted(set(range(1, tree.n + 1)) - values)
    centers = []
    for i in sorted(values):
        lead = partner(r, i)
        lefts = [(i,) + rest for rest in permutations(sorted(values - {i}))]
        rights = [(lead,) + rest
                  for rest in permutations([v for v in right_values if v != lead])
                  if parity((lead,) + rest) == flag]
        centers.extend(left + right for left in lefts for right in rights)
    return centers


@pytest.mark.parametrize("r", [2, 3, 4])
def test_component_centers_match_reference(r):
    tree = build_tree(r, r, RENUMBERED)
    for values in xprime_components(r):
        for flag in ("even", "odd"):
            assert (_component_centers(tree, values, flag)
                    == _reference_component_centers(tree, values, flag))


def test_disjoint_picks_of_no_slots_is_one_empty_pick():
    assert list(_disjoint_picks([])) == [[]]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_every_xprime_pick_is_a_perfect_code(r):
    # xprime_perfect_code takes the first pick and does not retry
    tree = build_tree(r, r, RENUMBERED)
    comps = xprime_components(r)
    picks = list(_disjoint_picks(_xprime_options(tree)))
    assert picks
    for centers in picks:
        cert = PackingCertificate(n=tree.n, kind="one_sphere", centers=sorted(centers),
                                  r=r, t=r, numbering=RENUMBERED, base_subgraph=comps)
        assert verify_on_subgraph(tree, cert, comps).is_eset


def test_xprime_perfect_code_r2():
    tree = build_tree(2, 2, RENUMBERED)
    code = xprime_perfect_code(2).certificate
    assert len(code.centers) == 4
    rep = verify_on_subgraph(tree, code, code.base_subgraph)
    assert rep.is_eset and rep.covered_count == 16
    # also a valid (2/3)-packing of the whole graph
    full = verify_packing(tree, PackingCertificate(
        n=4, kind="one_sphere", centers=list(code.centers),
        r=2, t=2, numbering=RENUMBERED))
    assert full.valid and full.alpha == Fraction(2, 3)


def test_xprime_perfect_code_r3():
    tree = build_tree(3, 3, RENUMBERED)
    code = xprime_perfect_code(3).certificate
    assert len(code.centers) == 48
    rep = verify_on_subgraph(tree, code, code.base_subgraph)
    assert rep.is_eset and rep.covered_count == 288


def test_uniform_from_exact_via_nest():
    tree = build_tree(3, 2)
    cert = uniform_from_exact(tree, nest_g35()).certificate
    rep = verify_packing(tree, cert)
    assert rep.valid and len(cert.centers) == 20
    assert rep.alpha == Fraction(5, 6) == Fraction(tree.n, tree.r * tree.t)
    assert uniformity_check(tree, cert)[0]


def test_uniform_from_exact_via_two_factor():
    tree = build_tree(3, 2)
    cert = uniform_from_exact(tree, two_factor_g35()).certificate
    rep = verify_packing(tree, cert)
    assert rep.valid and len(cert.centers) == 20 and rep.alpha == Fraction(5, 6)


def test_uniform_from_exact_rejects_wrong_host():
    tree = build_tree(2, 2)
    with pytest.raises(ValueError):
        uniform_from_exact(tree, nest_g35())
    with pytest.raises(ValueError, match="diameter-3"):
        uniform_from_exact(star_tree(5), nest_g35())


def test_uniform_from_exact_takes_only_nests():
    # validate_nest is the one nest check; its verdict names the fault
    with pytest.raises(ValueError, match=r"not a nest of J\(5,3\): \(1, 2, 4\) is not a pendant"):
        uniform_from_exact(build_tree(3, 2), cut_nest_g35())
    # an exact 14-cycle that spans 14 of the 35 vertices of J(7,4)
    cycle = alternate_cops((1, 1, 2, 3), (2, 1, 1, 3), 7)
    with pytest.raises(ValueError, match="not spanning: 14 of 35"):
        uniform_from_exact(build_tree(4, 3), cycle)


def test_nonuniform_r2_is_bare_type0_code():
    res = nonuniform_extension(2)
    assert res.report.alpha == Fraction(2, 3) == res.target_alpha
    assert len(res.certificate.centers) == 4


def test_nonuniform_r3_intermediate():
    res = nonuniform_extension(3, stage="intermediate")
    assert len(res.certificate.centers) == 72
    assert res.report.alpha == Fraction(432, 720)
    assert not res.report.alpha < res.target_alpha


def test_nonuniform_r3_final():
    res = nonuniform_extension(3)
    assert len(res.certificate.centers) == 96
    assert res.report.alpha == Fraction(4, 5) == res.target_alpha
    tree = build_tree(3, 3, RENUMBERED)
    rep = verify_packing(tree, res.certificate)
    assert rep.valid and rep.covered_count == 576


@pytest.mark.parametrize("r, stage", [(2, "intermediate"), (2, "final"), (3, "intermediate"),
                                      (3, "final"), (4, "final")])
def test_nonuniform_extends_the_xprime_code_unchecked(r, stage):
    # the residual pick is not checked against the X' code: every X'
    # option and every residual configuration must have disjoint footprints
    tree = build_tree(r, r, RENUMBERED)
    per_comp = math.factorial(r - 1) ** 2 // (2 if stage == "intermediate" else 1)
    xprime = set().union(*(foot for slot in _xprime_options(tree) for _, foot in slot))
    assert len(xprime) == len(xprime_components(r)) * math.factorial(r) ** 2
    for values in _eligible_components(tree):
        for _, foot in _local_configs(tree, values, per_comp):
            assert xprime.isdisjoint(foot)
    code = xprime_perfect_code(r).certificate.centers
    assert nonuniform_extension(r, stage).certificate.centers[:len(code)] == code


def test_nonuniform_rejects_bad_stage():
    with pytest.raises(ValueError):
        nonuniform_extension(3, stage="later")


def _no_configs(*args):
    raise AssertionError("the r gate must refuse before any configuration is built")


def test_nonuniform_intermediate_refuses_r4(monkeypatch):
    # unguarded, _local_configs would enumerate C(36, 18) subsets per group
    monkeypatch.setattr(constructions, "_local_configs", _no_configs)
    with pytest.raises(ValueError):
        nonuniform_extension(4, stage="intermediate")


def test_cli_nonuniform_intermediate_r4_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "_local_configs", _no_configs)
    assert run(["construct", "nonuniform", "4", "--stage", "intermediate"]) == 2
    capsys.readouterr()


def test_nonuniform_final_refuses_r5(monkeypatch):
    # unguarded, _local_configs would build up to 225 groups of 576
    # centers in each of 220 components before the pick search starts
    monkeypatch.setattr(constructions, "_local_configs", _no_configs)
    with pytest.raises(ValueError, match="the final stage needs r <= 4"):
        nonuniform_extension(5)


def test_cli_nonuniform_final_r5_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "_local_configs", _no_configs)
    assert run(["construct", "nonuniform", "5"]) == 2
    assert "220 eligible components" in capsys.readouterr().err


def _no_setup(*args):
    raise AssertionError("the r gate must refuse before any set-up")


@pytest.mark.parametrize("r", [6, 9])
def test_xprime_refuses_r_above_5(monkeypatch, capsys, r):
    # unguarded, r = 6 ends in a MemoryError and r = 9 is killed for memory
    monkeypatch.setattr(constructions, "build_tree", _no_setup)
    monkeypatch.setattr(constructions, "_xprime_options", _no_setup)
    with pytest.raises(ValueError, match="the X' code needs r <= 5"):
        xprime_perfect_code(r)
    assert run(["construct", "xprime", str(r)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: the X' code needs r <= 5: at r={r} ")


@pytest.mark.parametrize("r, t", [(6, 5), (9, 2)])
def test_puncture_refuses_degree_above_10(monkeypatch, capsys, r, t):
    # unguarded, it enumerates all (r + t)! vertices: n = 10 took 29 s and
    # 410 MiB, and n = 11 holds 11 times as many
    monkeypatch.setattr(constructions, "build_tree", _no_setup)
    monkeypatch.setattr(constructions, "hub_slice", _no_setup)
    with pytest.raises(ValueError, match=r"puncturing needs r \+ t <= 10"):
        puncture_attempt(r, t)
    assert run(["construct", "puncture", str(r), str(t)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: puncturing needs r + t <= 10: it enumerates all ")


@pytest.mark.parametrize("make", [xprime_perfect_code, table_row])
def test_constructions_need_r_at_least_2(make):
    with pytest.raises(ValueError, match="need r >= 2"):
        make(1)


def test_nonuniform_without_configurations_falls_back_to_the_xprime_code(monkeypatch):
    monkeypatch.setattr(constructions, "_local_configs", lambda *args: [])
    res = nonuniform_extension(3)
    assert res.certificate.centers == xprime_perfect_code(3).certificate.centers
    assert res.report.valid and res.report.alpha == Fraction(2, 5)
    assert res.report.alpha < res.target_alpha == Fraction(4, 5)


@pytest.mark.parametrize("make, digest", [
    (lambda: xprime_perfect_code(3).certificate, "4bc7b8626a06854c"),
    (lambda: nonuniform_extension(3).certificate, "0e62c7f152e28a05"),
    (lambda: nonuniform_extension(3, "intermediate").certificate, "2ae89c2f6509ca3f"),
    (lambda: uniform_from_exact(build_tree(3, 2), two_factor_g35()).certificate,
     "48789b2e635c3a9d"),
    (lambda: uniform_from_exact(build_tree(3, 2), nest_g35()).certificate, "c0ec593a0caff4f3"),
    (lambda: uniform_from_exact(build_tree(4, 5),
                                search_exact_2factor(9, 4, max_vertices=126)).certificate,
     "18c6d2130e1e5790"),
    (lambda: puncture_attempt(3, 2).certificate, "6ca33ff4905ce4a2"),
    (lambda: puncture_attempt(4, 2).certificate, "ca840d14a4c97ea6"),
    (lambda: puncture_attempt(4, 3).certificate, "ef222d316731dba5"),
    (lambda: puncture_attempt(5, 2).certificate, "09b6bb410a3f5c80"),
], ids=["xprime3", "nonuniform3-final", "nonuniform3-intermediate",
        "uniform32-two-factor", "uniform32-nest", "uniform45-two-factor",
        "puncture32", "puncture42", "puncture43", "puncture52"])
def test_construction_golden_certificates(make, digest):
    # the certificates pin the order of the pick and orientation searches
    data = json.dumps(cert_to_dict(make()))
    assert hashlib.sha256(data.encode()).hexdigest()[:16] == digest


def test_puncture_attempt_reports_bounds():
    res = puncture_attempt(3, 2)
    tree = build_tree(3, 2, RENUMBERED)
    rep = verify_packing(tree, res.certificate)
    assert rep.valid
    assert res.report == rep and rep.alpha > 0
    assert res.target_alpha is None
    with pytest.raises(ValueError):
        puncture_attempt(2, 3)


def test_table_T_values():
    assert table_T(3, 0) == 8 and table_T(3, 1) == 12
    assert [table_T(7, k) for k in range(4)] == [128, 1344, 1680, 280]


def test_table_rows_match_printed_census():
    printed = {
        2: ([4, 2], [4, 0], 6, 4),
        3: ([8, 12], [8, 8], 20, 16),
        4: ([16, 48, 6], [16, 24, 0], 70, 40),
        5: ([32, 160, 60], [32, 64, 24], 252, 120),
        6: ([64, 480, 360, 20], [64, 160, 120, 0], 924, 344),
        7: ([128, 1344, 1680, 280], [128, 384, 480, 80], 3432, 1072),
    }
    for r, (T, S, sigma, sigma_prime) in printed.items():
        row = table_row(r)
        assert row.T == T
        assert row.S == [Fraction(s) for s in S]
        assert row.Sigma == sigma
        assert row.SigmaPrime == Fraction(sigma_prime)
        assert row.alpha == Fraction(sigma_prime, sigma)


def test_table_identities_up_to_12():
    for r in range(2, 13):
        row = table_row(r)
        assert sum(row.T) == math.comb(2 * r, r)
        assert sum(row.S) == 2 ** r + Fraction(2 * row.P, r)
        if r > 2:  # the density bound needs 2r > 4
            assert Fraction(2 * r, r * r) < row.alpha < 1
