"""Command-line dispatcher: exit codes, JSON output, round-trips."""

import ast
import gc
import hashlib
import json
import os
import pathlib
import shlex
import subprocess
import sys
from unittest import mock

import pytest

import permpack
from conftest import FIXTURES, cut_nest_g35, nest_g46
from permpack import certify, cli, constructions, johnson
from permpack.cayley import build_tree
from permpack.certify import verify_packing
from permpack.cli import run


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_build_tree(capsys):
    code, data = run_json(capsys, "build-tree", "--tree", "3,2")
    assert code == 0
    assert data["n"] == 5 and data["epsilon"] == [3, 4]
    assert data["num_vertices"] == 120


def test_verify_fixture_uniform(capsys):
    code, data = run_json(capsys, "verify", "--tree", "3,2", "--uniform",
                          str(FIXTURES / "x32_uniform_5_6.json"))
    assert code == 0
    assert data["valid"] and data["alpha"] == "5/6" and data["uniform"]


def test_verify_failure_exits_1(tmp_path, capsys):
    with open(FIXTURES / "x22_eset_5_6.json") as fh:
        cert = json.load(fh)
    # 2134 is the neighbour of the center 1234 across the tree edge (1, 2),
    # so its sphere and 1234's share both vertices
    cert["centers"][1] = "2134"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code = run(["verify", "--tree", "2,2", str(bad)])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not out["valid"]


@pytest.mark.parametrize("target", ["", "missing/x.json"])
def test_construct_unwritable_output_exits_2(tmp_path, capsys, target):
    # a directory, and a file in a directory that does not exist
    path = tmp_path / target
    assert run(["construct", "xprime", "2", "-o", str(path)]) == 2
    assert f"cannot write {path}" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(["verify", "--tree", "nonsense", "x.json"]) == 2
    assert run(["verify", "--tree", "2,2", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    assert run(["verify", "--tree", "2,2", str(garbled)]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [("centers", [1234, 2143]),
                                          ("declared_alpha", "1/0")])
def test_verify_malformed_certificate_exits_2(tmp_path, capsys, field, value):
    with open(FIXTURES / "x22_eset_5_6.json") as fh:
        cert = json.load(fh)
    cert[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["verify", "--tree", "2,2", str(bad)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


@pytest.mark.parametrize("center, shown", [("1224", "(1, 2, 2, 4)"), ("0123", "(0, 1, 2, 3)"),
                                           ("123", "(1, 2, 3)"), ("1,2,3,4,5", "(1, 2, 3, 4, 5)")])
def test_verify_names_a_center_that_is_no_permutation(tmp_path, capsys, center, shown):
    # a center read from JSON is checked once, by the verifier, which names it
    with open(FIXTURES / "x22_eset_5_6.json") as fh:
        cert = json.load(fh)
    cert["centers"][1] = center
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["verify", "--tree", "2,2", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: center {shown} is not a permutation of 1..4\n"


@pytest.mark.parametrize("field, value, message", [
    ("n", "5", "n must be an integer, got '5'"),
    ("r", "3", "r must be an integer or null, got '3'"),
    ("centers", "12534", "centers must be a list, got str"),
    # only the "p/q" string that cert_to_dict writes is exact
    ("declared_alpha", 0.8333333333333334,
     'declared_alpha must be a string such as "5/6", got 0.8333333333333334'),
    ("declared_alpha", True, 'declared_alpha must be a string such as "5/6", got True'),
    ("declared_alpha", 1, 'declared_alpha must be a string such as "5/6", got 1'),
])
def test_verify_wrongly_typed_field_exits_2(tmp_path, capsys, field, value, message):
    with open(FIXTURES / "x32_uniform_5_6.json") as fh:
        cert = json.load(fh)
    cert[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    assert run(["verify", "--tree", "3,2", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed certificate: {message}\n"


def test_search_eset_none_exhaustive(capsys):
    code, data = run_json(capsys, "search", "eset", "--tree", "2,2")
    assert code == 0
    assert data["status"] == "none_exhaustive"
    assert data["nodes_explored"] > 0


def test_search_maxpack(capsys):
    code, data = run_json(capsys, "search", "maxpack", "--tree", "2,2",
                          "--budget", "60s")
    assert code == 0
    assert data["status"] == "found"
    assert len(data["certificate"]["centers"]) == 5
    assert data["upper_bound"] == 5


@pytest.mark.parametrize("budget", ["-5", "0", "nan"])
def test_search_maxpack_rejects_nonpositive_budget(capsys, budget):
    # a budget that is not a finite positive number of seconds is a usage
    # error, not an empty best-effort certificate or no time limit at all
    assert run(["search", "maxpack", "--tree", "2,2", "--budget", budget]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("budget", ["abcm", "0m", "5x"])
def test_search_maxpack_bad_budget_is_quoted_as_given(capsys, budget):
    # the message quotes the whole option, unit included, and names the
    # seconds, "s" and "m" forms
    assert run(["search", "maxpack", "--tree", "2,2", "--budget", budget]) == 2
    err = capsys.readouterr().err
    assert repr(budget) in err
    assert all(form in err for form in ("60", "60s", "1m"))


def test_search_maxpack_runs_for_its_time_budget(capsys):
    # no node cap: the X3(3,3) search runs until the clock stops it
    code, data = run_json(capsys, "search", "maxpack", "--tree", "3,3", "--budget", "1s")
    assert code == 0
    assert data["wall_budget_exceeded"] and data["wall_seconds"] >= 1
    assert data["status"] == "best_effort" and data["nodes_explored"] > 0
    assert data["covered_count"] == 6 * len(data["certificate"]["centers"])


def test_construct_verify_roundtrip_x53_from_j85(tmp_path, capsys, x53_from_j85):
    # n = 8: the per-component verifier on 2688 centers in 56 components
    tree, structure, made = x53_from_j85
    structure_path, out_path = tmp_path / "j85.json", tmp_path / "construct.json"
    structure_path.write_text(json.dumps(johnson.subgraph_to_dict(structure)))
    code = run(["construct", "uniform", "--tree", "5,3", "--structure", str(structure_path),
                "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    emitted = json.loads(out_path.read_text())
    assert emitted["certificate"] == certify.cert_to_dict(made.certificate)
    code, report = run_json(capsys, "verify", "--tree", "5,3", "--uniform", str(out_path))
    assert code == 0 and report.pop("uniform")
    assert report == emitted["report"] == certify.report_to_dict(made.report)
    assert report["alpha"] == "8/15" and report["covered_count"] == 8 * 2688
    assert sorted(report["per_component_profile"].values()) == [48] * 56


def test_verify_failure_x53_from_j85_names_the_overlap(tmp_path, capsys, x53_from_j85):
    # a center moved onto the epsilon-neighbour of the first center, which
    # lies in another component: those two spheres meet across epsilon
    tree, _, made = x53_from_j85
    cert = certify.cert_to_dict(made.certificate)
    c = made.certificate.centers[0]
    eps = tree.epsilon
    moved = list(c)
    moved[eps[0] - 1], moved[eps[1] - 1] = c[eps[1] - 1], c[eps[0] - 1]
    cert["centers"][1] = "".join(map(str, moved))
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(cert))
    code, report = run_json(capsys, "verify", "--tree", "5,3", str(path))
    assert code == 1 and not report["valid"]
    assert report["violations"][0].startswith(f"sphere of {cert['centers'][1]} overlaps")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_leaves_the_cyclic_collector_as_it_found_it(capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(["verify", "--tree", "3,2", "--uniform",
                    str(FIXTURES / "x32_uniform_5_6.json")]) == 0
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_main_runs_without_the_cyclic_collector(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda: seen.append(gc.isenabled()) or 0)
    was = gc.isenabled()
    try:
        with pytest.raises(SystemExit) as stop:
            cli.main()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] and stop.value.code == 0


def test_construct_verify_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code = run(["construct", "uniform", "--tree", "3,2",
                "--structure", str(FIXTURES / "nest_g35.json"),
                "-o", str(out_path)])
    capsys.readouterr()
    assert code == 0
    emitted = json.loads(out_path.read_text())
    cert_path = tmp_path / "bare.json"
    cert_path.write_text(json.dumps(emitted["certificate"]))
    code, report = run_json(capsys, "verify", "--tree", "3,2", str(cert_path))
    assert code == 0 and report["valid"] and report["alpha"] == "5/6"
    # the -o file itself verifies too
    code, direct = run_json(capsys, "verify", "--tree", "3,2", str(out_path))
    assert code == 0 and direct == report


def test_construct_verifies_each_certificate_once(monkeypatch, capsys):
    # the construction verifies every orientation it tries (one fails on
    # this nest, one packs); the CLI prints the accepted one's report
    # instead of verifying the certificate again
    calls = []

    def counting(tree, cert):
        calls.append(cert)
        return verify_packing(tree, cert)

    monkeypatch.setattr(certify, "verify_packing", counting)
    code, data = run_json(capsys, "construct", "uniform", "--tree", "3,2",
                          "--structure", str(FIXTURES / "nest_g35.json"))
    assert code == 0
    assert len(calls) == 2
    cert = certify.cert_from_dict(data["certificate"])
    assert data["report"] == certify.report_to_dict(verify_packing(build_tree(3, 2), cert))


def test_construct_uniform_exits_1_when_no_orientation_packs(tmp_path, capsys):
    # a nest of J(6,4) whose two orientations both overlap in X3(4,2)
    path = tmp_path / "g46.json"
    path.write_text(json.dumps(johnson.subgraph_to_dict(nest_g46())))
    assert run(["construct", "uniform", "--tree", "4,2", "--structure", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("construction failed: no orientation of the structure packs")


def test_verify_reads_the_base_subgraph_of_the_xprime_code(tmp_path, capsys):
    # one verifier: verify prints the report construct printed, a perfect
    # code of the type-0 subgraph that the certificate declares
    path = tmp_path / "xprime.json"
    assert run(["construct", "xprime", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, "verify", "--tree", "3,3", "--numbering", "renumbered",
                            str(path))
    assert code == 0 and report == json.loads(path.read_text())["report"]
    assert report["is_eset"] and report["covered_count"] == 288 and report["alpha"] == "2/5"


@pytest.mark.parametrize("entry, named", [
    (lambda c: list(map(str, sorted(c))), "{'1', '2', '3'}"),
    (lambda c: "".join(map(str, sorted(c))), "{'1', '2', '3'}"),
    (lambda c: sorted(c)[:2], "{1, 2}"),
    (lambda c: sorted(c)[:2] + [7], "{1, 2, 7}"),
], ids=["strings", "string", "too-few", "out-of-range"])
def test_verify_refuses_a_base_entry_that_is_not_a_component(tmp_path, capsys, entry, named):
    path = tmp_path / "xprime.json"
    assert run(["construct", "xprime", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())["certificate"]
    data["base_subgraph"] = [entry(c) for c in data["base_subgraph"]]
    path.write_text(json.dumps(data))
    argv = ["verify", "--tree", "3,3", "--numbering", "renumbered", str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: malformed certificate: base_subgraph entry {named} "
                            f"is not a component: it needs 3 distinct values of 1..6\n")
    with pytest.raises(certify.CertificateError, match="base_subgraph entry"):
        verify_packing(build_tree(3, 3, "renumbered"), certify.cert_from_dict(data))


def test_johnson_alternate_without_an_exact_cycle_reports_not_found(capsys):
    # equal, disjoint families: the backtracking runs to exhaustion
    code, data = run_json(capsys, "johnson", "alternate", "114", "123", "6")
    assert code == 0 and data == {"found": False}


def test_verify_names_an_s_sphere_center_outside_its_base(tmp_path, capsys):
    cert = certify.PackingCertificate(
        n=6, kind="s_sphere", centers=[(1, 2, 4, 3, 5, 6)], r=3, t=3,
        numbering="renumbered", base_subgraph=constructions.xprime_components(3))
    path = tmp_path / "s_sphere.json"
    path.write_text(json.dumps(certify.cert_to_dict(cert)))
    code, report = run_json(capsys, "verify", "--tree", "3,3", "--numbering", "renumbered",
                            str(path))
    assert code == 1
    assert report["violations"] == ["center 124356 lies outside the listed components"]


def test_verify_uniform_names_inequivalent_components(tmp_path, capsys):
    # the nonuniform packing is valid but not uniform: exit 1
    path = tmp_path / "nonuniform.json"
    assert run(["construct", "nonuniform", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, "verify", "--tree", "3,3", "--numbering", "renumbered",
                            "--uniform", str(path))
    assert code == 1
    assert report["valid"] and report["uniform"] is False
    assert report["violations"] == [
        "components (1, 2, 3) and (1, 2, 4) carry inequivalent center sets"]


def test_verify_uniform_compares_the_base_of_an_xprime_code(tmp_path, capsys):
    # the X' code is uniform over its base, the type-0 components; the
    # components outside it carry no centers and are not compared
    path = tmp_path / "xprime.json"
    assert run(["construct", "xprime", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    code, report = run_json(capsys, "verify", "--tree", "3,3", "--numbering", "renumbered",
                            "--uniform", str(path))
    assert code == 0
    assert report["valid"] and report["is_eset"] and report["uniform"] is True
    assert report["violations"] == []


def test_construct_uniform_rejects_a_structure_that_is_not_a_nest(tmp_path, capsys):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(johnson.subgraph_to_dict(cut_nest_g35())))
    assert run(["construct", "uniform", "--tree", "3,2", "--structure", str(path)]) == 2
    assert "(1, 2, 4) is not a pendant on a cycle" in capsys.readouterr().err


def test_closed_pipe_ends_without_traceback():
    # the reader is gone before the first write, so every write fails
    src = pathlib.Path(permpack.__file__).resolve().parent.parent
    proc = subprocess.Popen([sys.executable, "-m", "permpack.cli", "construct", "xprime", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)))
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def test_construct_xprime(capsys):
    code, data = run_json(capsys, "construct", "xprime", "2")
    assert code == 0
    assert len(data["certificate"]["centers"]) == 4
    assert data["report"]["is_eset"]


def test_construct_nonuniform(capsys):
    code, data = run_json(capsys, "construct", "nonuniform", "3")
    assert code == 0
    assert data["achieved_alpha"] == "4/5"
    assert not data["shortfall"]


@pytest.mark.parametrize("argv, digest", [
    (["xprime", "2"], "a3fb291436ec1c2e6466f338e6d5aee1b73d1fb46d14151bc1b33df66f847945"),
    (["xprime", "3"], "944e665c3557518362e32fa9036ac9eb63a5698476e6e70899b52289eea72bdb"),
    (["nonuniform", "2"], "d305c0616767b83d09540dcac665099bf1be02f30c75f51ba49f110bb2595956"),
    (["nonuniform", "3"], "c71e6ede52ae1ed8c44513e1dcbf1bad7da826d02c50e46292ed0a9e55d041a5"),
    (["nonuniform", "3", "--stage", "intermediate"],
     "02ef108ff5688ab4c064f1f4b47a53d6df1305b1a822d519ae9475417f59f389"),
    (["uniform", "--tree", "3,2", "--structure", str(FIXTURES / "nest_g35.json")],
     "7eb365931b151a82d59dd2d1db24624551fb1ce5d854588b0c2e7b354cd007ec"),
], ids=["xprime2", "xprime3", "nonuniform2", "nonuniform3-final",
        "nonuniform3-intermediate", "uniform32-nest"])
def test_construct_output_golden(capsys, argv, digest):
    # the whole stdout: key order, the density fields and the report
    assert run(["construct"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


_XPRIME3 = "<construct xprime 3 -o>"


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--tree", "2,2", str(FIXTURES / "x22_eset_2_3.json")],
     "46b2aa4f55052d255cfb055912aba1a183fd9db91c9433a795b9568529ef9587"),
    (["verify", "--tree", "2,2", str(FIXTURES / "x22_eset_5_6.json")],
     "e194372f8ffc1c9fa9c9e786a7be05659be68c0ff5b659b054eda599734cdd13"),
    (["verify", "--tree", "3,2", str(FIXTURES / "x32_uniform_5_6.json")],
     "2b08b74a63dd26605d39fab42a383a9c5772779d8a89eca6467eee063dd02cba"),
    (["verify", "--tree", "3,3", "--numbering", "renumbered", _XPRIME3],
     "a66587bdea05ebf491991608599cf77a4a773874f0cea7fe6edc75d1ef32ee36"),
    (["verify", "--tree", "3,3", "--numbering", "renumbered", "--uniform", _XPRIME3],
     "8bf22695eb6bb9423a28d071bee874362866e98795c1bc35f4980ca8cb53ce0d"),
    (["johnson", "alternate", "1123", "2113", "7"],
     "8e24c98a30b9edf51848d566d08e545b6af15a1e84f5f2801e1e5345dcd528f0"),
    (["johnson", "alternate", "1113", "1122", "6"],
     "e1eb61424fbddfe5dee1fc811dc278e0c5d51768b1e7495137725d21d8faf7aa"),
    (["johnson", "exact-2factor", "7", "3"],
     "ab65106f0aa2ffec5895047596411d0dff448e7f9f3230e2ae7dc3ab78d0bb68"),
    (["johnson", "expand-cc", "1,2,3,4,5", "3"],
     "f91c36ccad15470aaca0aac07cedb1a66deb21e7e4bc830128854262076e7dbb"),
    (["johnson", "validate-nest", "5", "3", str(FIXTURES / "nest_g35.json")],
     "c9e3d6a003cf0e0209e532d2a4a04d5e1d17c8efd7c7c879e75867643f36284e"),
    (["tables", "7"], "835365e230e24ae8e8ec2badc7c212681dc9c628929b814c83c3ca51ec3245a8"),
    (["tables", "5", "--format", "json"],
     "550482085d6676f138d6548659df1e8bf38cd4fb93d4c77a3c04a8c4513e31e2"),
], ids=["verify-x22-2_3", "verify-x22-5_6", "verify-x32-5_6", "verify-xprime3",
        "verify-xprime3-uniform", "alternate-1123-2113-7", "alternate-1113-1122-6",
        "exact-2factor-7-3", "expand-cc-12345-3", "validate-nest-g35", "tables-7",
        "tables-5-json"])
def test_verify_johnson_tables_output_golden(tmp_path, capsys, argv, digest):
    # the whole stdout and the exit code of commands whose reports the
    # other tests read only in part
    if _XPRIME3 in argv:
        path = tmp_path / "xprime3.json"
        assert run(["construct", "xprime", "3", "-o", str(path)]) == 0
        capsys.readouterr()
        argv = [str(path) if arg == _XPRIME3 else arg for arg in argv]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_construct_puncture_reports_no_target(capsys):
    # puncturing has no proven density to aim at, so it prints none
    code, data = run_json(capsys, "construct", "puncture", "3", "2")
    assert code == 0
    assert data.keys() == {"certificate", "report"}
    assert data["report"]["alpha"] == "3/4"


def test_verify_rejects_a_certificate_of_another_tree(tmp_path, capsys):
    path = tmp_path / "nonuniform.json"
    assert run(["construct", "nonuniform", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run(["verify", "--tree", "3,3", str(path)]) == 2
    assert ("certificate numbering 'renumbered' != tree numbering 'original'"
            in capsys.readouterr().err)
    # same degree, other hubs
    assert run(["verify", "--tree", "4,2", "--numbering", "renumbered", str(path)]) == 2
    assert "certificate r 3 != tree r 4" in capsys.readouterr().err
    code, report = run_json(capsys, "verify", "--tree", "3,3", "--numbering", "renumbered",
                            str(path))
    assert code == 0 and report["valid"] and report["alpha"] == "4/5"


def test_cli_reads_no_private_name_of_a_permpack_module():
    # perfbench traces the public library functions; a private twin
    # called from the CLI would run outside every span
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            private += [a.name for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
    assert "constructions" in modules
    assert private == []


def test_johnson_expand_cc(capsys):
    code, data = run_json(capsys, "johnson", "expand-cc", "1,2,3,4,5", "3")
    assert code == 0
    assert data["found"] and data["exact"]
    assert len(data["structure"]["vertices"]) == 5


@pytest.mark.parametrize("r", ["0", "-2"])
def test_johnson_expand_cc_r_below_1_exits_2(capsys, r):
    assert run(["johnson", "expand-cc", "1,2,3,4,5", r]) == 2
    assert "needs 1 <= r <= 3" in capsys.readouterr().err


@pytest.mark.parametrize("elements, shown", [("0,1,2,3,4", "1..4: (0, 1, 2, 3, 4)"),
                                             ("1,2,-3,4,5", "1..5: (1, 2, -3, 4, 5)")])
def test_johnson_expand_cc_elements_outside_1_to_n_exit_2(capsys, elements, shown):
    # n is the largest element, so an element below 1 is what can fall outside
    assert run(["johnson", "expand-cc", elements, "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: condensed cycle elements must be integers of {shown}\n"


def test_johnson_expand_cop(capsys):
    code, data = run_json(capsys, "johnson", "expand-cop", "1213", "7")
    assert code == 0
    assert data["cop"] == [1, 2, 1, 3] and data["n"] == 7
    # {i, i+1, i+3, i+4} mod 7 for every start i
    expected = sorted(sorted((i + d - 1) % 7 + 1 for d in (0, 1, 3, 4)) for i in range(1, 8))
    assert data["subsets"] == expected and len(expected) == 7


def test_johnson_expand_cop_of_another_sum_exits_2(capsys):
    assert run(["johnson", "expand-cop", "1213", "6"]) == 2
    assert "parts (1, 2, 1, 3) are not a composition of 6" in capsys.readouterr().err


def test_johnson_exact_2factor_absent(capsys):
    code, data = run_json(capsys, "johnson", "exact-2factor", "6", "4")
    assert code == 0
    assert data == {"found": False}


def test_johnson_exact_2factor_8_5(capsys):
    # 56 vertices, a few milliseconds
    code, data = run_json(capsys, "johnson", "exact-2factor", "8", "5")
    assert code == 0
    assert data["found"] and data["exact"] is True


def test_johnson_exact_2factor_undecided_exits_2(capsys):
    # one exhausted state short of the J(7,4) search's 57 762
    with mock.patch.object(johnson, "_MAX_DEAD", 57761):
        assert run(["johnson", "exact-2factor", "7", "4"]) == 2
    assert "J(7,4) undecided" in capsys.readouterr().err


def test_johnson_exact_2factor_8_6_is_absent(capsys):
    # the parity lemma: J(n, n-2) has no exact 2-factor for even n
    code, data = run_json(capsys, "johnson", "exact-2factor", "8", "6")
    assert code == 0
    assert data == {"found": False}


def test_johnson_exact_2factor_bad_degree_exits_2(capsys):
    assert run(["johnson", "exact-2factor", "3", "5"]) == 2
    assert "need 2 < r < n-1" in capsys.readouterr().err


def test_johnson_alternate(capsys):
    code, data = run_json(capsys, "johnson", "alternate", "1123", "2113", "7")
    assert code == 0
    assert data["found"] and len(data["structure"]["vertices"]) == 14


def test_johnson_validate_nest(tmp_path, capsys):
    code, data = run_json(capsys, "johnson", "validate-nest", "5", "3",
                          str(FIXTURES / "nest_g35.json"))
    assert code == 0 and data["valid"]


def test_johnson_alternate_tight_host_is_not_strictly_exact(capsys):
    # alternation caps a 2-path's element count at n-1 = 5 when n = r+2;
    # "exact" reports the strict rule, which asks for r+2 = 6
    code, data = run_json(capsys, "johnson", "alternate", "1113", "1122", "6")
    assert code == 0
    assert data["found"] and len(data["structure"]["vertices"]) == 12
    assert data["exact"] is False and "< 6 elements" in data["witness"]


def test_johnson_validate_nest_rejects_values_outside_the_host(tmp_path, capsys):
    nest = json.loads((FIXTURES / "nest_g35.json").read_text())
    for key in ("vertices", "edges"):
        nest[key] = json.loads(json.dumps(nest[key]).replace("5", "6"))
    path = tmp_path / "nest_g36.json"
    path.write_text(json.dumps(nest))
    code, data = run_json(capsys, "johnson", "validate-nest", "5", "3", str(path))
    assert code == 1 and not data["valid"]
    assert "not between r-subsets of 1..5" in data["detail"]


@pytest.fixture(params=[True, 1.0], ids=["true", "1.0"])
def nest_g35_with_one_as(request, tmp_path):
    """nest_g35.json with each 1 written as JSON true or as 1.0, both of
    which Python reads as values equal to 1; (path, repr of the value)."""
    nest = json.loads((FIXTURES / "nest_g35.json").read_text())
    for key in ("vertices", "edges"):
        nest[key] = json.loads(json.dumps(nest[key]), parse_int=lambda s: (
            request.param if s == "1" else int(s)))
    path = tmp_path / "nest_g35_one.json"
    path.write_text(json.dumps(nest))
    return path, repr(request.param)


def test_johnson_validate_nest_refuses_values_that_are_not_integers(nest_g35_with_one_as,
                                                                    capsys):
    # the rule of components: True and 1.0 are not among the values 1..n
    path, one = nest_g35_with_one_as
    code, data = run_json(capsys, "johnson", "validate-nest", "5", "3", str(path))
    assert code == 1 and not data["valid"]
    assert data["detail"] == f"edge ({one}, 2, 3)-({one}, 2, 5) is not between r-subsets of 1..5"


def test_construct_uniform_refuses_a_nest_of_values_that_are_not_integers(
        nest_g35_with_one_as, capsys):
    path, one = nest_g35_with_one_as
    assert run(["construct", "uniform", "--tree", "3,2", "--structure", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: structure is not a nest of J(5,3): edge ({one}, 2, 3)-({one}, 2, 5) "
        f"is not between r-subsets of 1..5\n")


def test_johnson_validate_nest_malformed_subgraph_exits_2(tmp_path, capsys):
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"edges": 5}))
    assert run(["johnson", "validate-nest", "5", "3", str(path)]) == 2
    assert "malformed subgraph" in capsys.readouterr().err


def test_johnson_validate_nest_rejects_r_outside_1_to_n(tmp_path, capsys):
    # C(3, 5) = 0, so an empty structure would pass the spanning check
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": []}))
    assert run(["johnson", "validate-nest", "3", "5", str(path)]) == 2
    assert "need 1 <= r <= n, got r=5, n=3" in capsys.readouterr().err


def test_tables_tsv(capsys):
    code = run(["tables", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r\t")
    assert lines[1].split("\t")[:5] == ["2", "6", "4/1", "0", "2/3"]
    assert lines[2].split("\t")[:5] == ["3", "20", "16/1", "12", "4/5"]


def test_tables_json(capsys):
    code, data = run_json(capsys, "tables", "3", "--format", "json")
    assert code == 0
    assert data[1]["alpha"] == "4/5" and data[1]["T"] == [8, 12]


@pytest.mark.parametrize("r_max", ["1", "0", "-1"])
@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_tables_below_r_2_is_a_usage_error(capsys, r_max, fmt):
    # the census starts at r = 2, so a smaller bound would give an empty
    # table: it is refused, in both formats
    assert run(["tables", r_max, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: tables needs r_max >= 2, got {r_max}\n"


def test_cli_import_loads_no_test_dependencies():
    # every CLI process pays for what importing the CLI loads; scipy,
    # numpy and the test tools serve the tests only
    src = pathlib.Path(permpack.__file__).resolve().parent.parent
    code = ("import sys, permpack.cli; "
            "print(sorted({m.partition('.')[0] for m in sys.modules}"
            " & {'scipy', 'numpy', 'hypothesis', 'pytest'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_dataclasses():
    # each CLI process would pay for dataclasses and its inspect, ast and
    # dis imports; -S keeps site hooks of the host out of sys.modules
    src = pathlib.Path(permpack.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import permpack.cli; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_no_permpack_module_imports_dataclasses():
    for path in sorted(pathlib.Path(permpack.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name} imports dataclasses"


REPO = pathlib.Path(__file__).resolve().parents[1]


def _readme_cli_commands() -> list[tuple[list[str], str]]:
    """(argv, comment) for each line of the README's CLI code block."""
    text = (REPO / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "permpack"
        commands.append((argv, comment.strip()))
    return commands


def _is_one_cycle(structure: dict) -> bool:
    adj = {tuple(v): [] for v in structure["vertices"]}
    for u, v in structure["edges"]:
        adj[tuple(u)].append(tuple(v))
        adj[tuple(v)].append(tuple(u))
    seen, todo = set(), [next(iter(adj))]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen.add(u)
            todo += adj[u]
    return seen == set(adj) and all(len(vs) == 2 for vs in adj.values())


def _exact_14_cycle(out: str) -> bool:
    data = json.loads(out)
    return (data["found"] and data["exact"] and len(data["structure"]["vertices"]) == 14
            and _is_one_cycle(data["structure"]))


# what each commented README command must print
README_EXPECTATIONS = {
    "status: none_exhaustive": lambda out: json.loads(out)["status"] == "none_exhaustive",
    '{"found": false}': lambda out: json.loads(out) == {"found": False},
    "the exact 14-cycle": _exact_14_cycle,
    "census rows as TSV": lambda out: out.splitlines()[0] == "r\tSigma\tSigmaPrime\tP\talpha\tT\tS",
}


def test_readme_cli_block_has_ten_commands_with_known_comments():
    commands = _readme_cli_commands()
    assert len(commands) == 10
    assert {comment for _, comment in commands} - {""} == README_EXPECTATIONS.keys()


@pytest.mark.parametrize("argv,comment", _readme_cli_commands(),
                         ids=[" ".join(argv) for argv, _ in _readme_cli_commands()])
def test_readme_cli_command(argv, comment, monkeypatch, capsys):
    # from the repo root, where the README's fixture paths resolve
    monkeypatch.chdir(REPO)
    assert run(argv) == 0
    out = capsys.readouterr().out
    if comment:
        assert README_EXPECTATIONS[comment](out), out
    else:
        json.loads(out)
