"""Command-line surface: build, construct, verify, search, johnson, tables.

Thin dispatcher over the library; reports are JSON on stdout (TSV only
for the census table), diagnostics on stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.  No color is ever emitted, so
NO_COLOR is respected trivially.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time

from . import cayley, certify, constructions, johnson, search
from .cayley import ORIGINAL, RENUMBERED, build_tree
from .certify import frac_to_str


class UsageError(Exception):
    pass


def _parse_tree(spec: str, numbering: str) -> cayley.TranspositionTree:
    try:
        r, t = (int(p) for p in spec.split(","))
    except ValueError:
        raise UsageError(f"bad tree descriptor {spec!r}; expected r,t")
    return build_tree(r, t, numbering)


def _parse_budget(spec: str) -> float:
    text = spec.strip()
    mult = 1.0
    if text.endswith("m"):
        mult, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    try:
        seconds = float(text) * mult
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise UsageError(f"bad budget {spec!r}; expected a positive time like 60, 60s or 1m")
    return seconds


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}")


def _emit(obj, out_path: str | None) -> None:
    text = json.dumps(obj, indent=1)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc.strerror}")
    print(text)


def _tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True, metavar="r,t")
    p.add_argument("--numbering", choices=[ORIGINAL, RENUMBERED], default=ORIGINAL)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="permpack")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tree", help="describe a diameter-3 transposition tree")
    _tree_args(p)

    p = sub.add_parser("construct", help="build a verified packing certificate")
    kind = p.add_subparsers(dest="what", required=True)
    q = kind.add_parser("xprime")
    q.add_argument("r", type=int)
    q.add_argument("-o", "--output")
    q = kind.add_parser("uniform")
    _tree_args(q)
    q.add_argument("--structure", required=True, help="JSON subset-graph file")
    q.add_argument("-o", "--output")
    q = kind.add_parser("nonuniform")
    q.add_argument("r", type=int)
    q.add_argument("--stage", choices=["intermediate", "final"], default="final")
    q.add_argument("-o", "--output")
    q = kind.add_parser("puncture")
    q.add_argument("r", type=int)
    q.add_argument("t", type=int)
    q.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="verify a packing certificate")
    _tree_args(p)
    p.add_argument("certificate", help="JSON certificate file")
    p.add_argument("--uniform", action="store_true",
                   help="also check per-component equivalence")

    p = sub.add_parser("search", help="exhaustive decision / optimization")
    kind = p.add_subparsers(dest="what", required=True)
    q = kind.add_parser("eset")
    _tree_args(q)
    q.add_argument("--no-symmetry", action="store_true")
    q = kind.add_parser("maxpack")
    _tree_args(q)
    q.add_argument("--budget", default="60s",
                   help="time budget; the search runs until it is spent or exhaustive")

    p = sub.add_parser("johnson", help="subset-graph structures")
    kind = p.add_subparsers(dest="what", required=True)
    q = kind.add_parser("expand-cc")
    q.add_argument("elements", help="comma-separated cyclic element sequence")
    q.add_argument("r", type=int)
    q = kind.add_parser("expand-cop")
    q.add_argument("cop", help="cyclic composition, e.g. 1213")
    q.add_argument("n", type=int)
    q = kind.add_parser("alternate")
    q.add_argument("cop_a")
    q.add_argument("cop_b")
    q.add_argument("n", type=int)
    q = kind.add_parser("exact-2factor")
    q.add_argument("n", type=int)
    q.add_argument("r", type=int)
    q = kind.add_parser("validate-nest")
    q.add_argument("n", type=int)
    q.add_argument("r", type=int)
    q.add_argument("structure", help="JSON subset-graph file")

    p = sub.add_parser("tables", help="component-type census rows")
    p.add_argument("r_max", type=int)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    return top


def _cmd_build_tree(args) -> int:
    tree = _parse_tree(args.tree, args.numbering)
    _emit({"n": tree.n, "r": tree.r, "t": tree.t, "numbering": tree.numbering,
           "edges": [list(e) for e in tree.edges], "epsilon": list(tree.epsilon),
           "num_vertices": math.factorial(tree.n)}, None)
    return 0


def _cmd_construct(args) -> int:
    if args.what == "xprime":
        made = constructions.xprime_perfect_code(args.r)
    elif args.what == "uniform":
        tree = _parse_tree(args.tree, args.numbering)
        structure = johnson.subgraph_from_dict(_load_json(args.structure))
        made = constructions.uniform_from_exact(tree, structure)
    elif args.what == "nonuniform":
        made = constructions.nonuniform_extension(args.r, args.stage)
    else:
        made = constructions.puncture_attempt(args.r, args.t)
    # the construction's own report: the certificate is not verified again
    out = {"certificate": certify.cert_to_dict(made.certificate)}
    if made.target_alpha is not None:
        out.update(achieved_alpha=frac_to_str(made.report.alpha),
                   target_alpha=frac_to_str(made.target_alpha),
                   shortfall=made.report.alpha < made.target_alpha)
    out["report"] = certify.report_to_dict(made.report)
    _emit(out, args.output)
    return 0


def _cmd_verify(args) -> int:
    tree = _parse_tree(args.tree, args.numbering)
    data = _load_json(args.certificate)
    if isinstance(data, dict) and "certificate" in data:
        data = data["certificate"]  # the {certificate, report} file of `construct -o`
    cert = certify.cert_from_dict(data)
    report = certify.verify_packing(tree, cert)
    out = certify.report_to_dict(report)
    if args.uniform:
        ok, why = certify.uniformity_check(tree, cert)
        out["uniform"] = ok
        if why:
            out["violations"].append(why)
    _emit(out, None)
    return 0 if report.valid and (not args.uniform or out["uniform"]) else 1


def _cmd_search(args) -> int:
    tree = _parse_tree(args.tree, args.numbering)
    start = time.monotonic()
    if args.what == "eset":
        outcome = search.find_eset(tree, symmetry=not args.no_symmetry)
    else:
        # the time budget alone stops the search
        outcome = search.max_packing(tree, node_budget=None,
                                     time_budget=_parse_budget(args.budget))
    out = {"status": outcome.status,
           "nodes_explored": outcome.nodes_explored,
           "wall_seconds": round(time.monotonic() - start, 3),
           "wall_budget_exceeded": outcome.wall_budget_exceeded,
           "covered_count": outcome.covered_count}
    if outcome.upper_bound is not None:
        out["upper_bound"] = outcome.upper_bound
    if outcome.certificate is not None:
        out["certificate"] = certify.cert_to_dict(outcome.certificate)
    _emit(out, None)
    return 0


def _subgraph_payload(sub: johnson.ExactSubgraph | None, n: int, r: int) -> dict:
    if sub is None:
        return {"found": False}
    exact, witness = johnson.is_exact(n, r, sub)
    out = {"found": True, "structure": johnson.subgraph_to_dict(sub), "exact": exact}
    if witness:
        out["witness"] = witness
    return out


def _cmd_johnson(args) -> int:
    if args.what == "expand-cc":
        elements = tuple(int(x) for x in args.elements.split(","))
        sub = johnson.expand_cc(elements, args.r)
        n = max(elements)
        _emit(_subgraph_payload(sub, n, args.r), None)
        return 0
    if args.what == "expand-cop":
        cop = johnson.parse_cop(args.cop)
        subsets = johnson.expand_cop(cop, args.n)
        _emit({"cop": list(cop), "n": args.n,
               "subsets": sorted(sorted(s) for s in subsets)}, None)
        return 0
    if args.what == "alternate":
        cop_a = johnson.parse_cop(args.cop_a)
        sub = johnson.alternate_cops(cop_a, johnson.parse_cop(args.cop_b), args.n)
        # a COP with k parts expands to k-subsets
        _emit(_subgraph_payload(sub, args.n, len(cop_a)), None)
        return 0
    if args.what == "exact-2factor":
        sub = johnson.search_exact_2factor(args.n, args.r)
        _emit(_subgraph_payload(sub, args.n, args.r), None)
        return 0
    # validate-nest
    sub = johnson.subgraph_from_dict(_load_json(args.structure))
    ok, why = johnson.validate_nest(args.n, args.r, sub)
    _emit({"valid": ok, "detail": why}, None)
    return 0 if ok else 1


def _cmd_tables(args) -> int:
    if args.r_max < 2:
        raise UsageError(f"tables needs r_max >= 2, got {args.r_max}")
    rows = [constructions.table_row(r) for r in range(2, args.r_max + 1)]
    if args.format == "json":
        _emit([{"r": row.r, "T": row.T, "S": [frac_to_str(s) for s in row.S],
                "Sigma": row.Sigma, "SigmaPrime": frac_to_str(row.SigmaPrime),
                "P": row.P, "alpha": frac_to_str(row.alpha)} for row in rows], None)
        return 0
    print("r\tSigma\tSigmaPrime\tP\talpha\tT\tS")
    for row in rows:
        print("\t".join([
            str(row.r), str(row.Sigma), frac_to_str(row.SigmaPrime), str(row.P),
            frac_to_str(row.alpha),
            ",".join(str(x) for x in row.T),
            ",".join(frac_to_str(s) for s in row.S),
        ]))
    return 0


_DISPATCH = {
    "build-tree": _cmd_build_tree,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "johnson": _cmd_johnson,
    "tables": _cmd_tables,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _DISPATCH[args.command](args)
    except (UsageError, certify.CertificateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except constructions.ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a one-shot process: what it allocates lives until exit, so the
    # cyclic collector would only rescan it
    gc.disable()
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send the rest of the output, and the
        # flush at exit, to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
