"""The four workloads: seeded inputs, job lists and their checks.

A workload's `prepare(seed, tmp)` builds its inputs (this is the set-up
the benchmark times); `jobs(inputs, tracer)` lists the jobs of one pass.
Every pass runs the same jobs on the same inputs, so counts read off a
pass repeat exactly for a given seed.  permpack is imported inside
`prepare`, never at module level, so that its import is part of set-up.

Seeds relabel inputs without changing the answer:
- X3 trees get their positions permuted within each hub side, which is
  an isomorphism of the Cayley graph that changes lex order and so the
  search trees;
- Johnson structures get their values permuted, an automorphism of
  J(n, r) that preserves exactness.
Where a relabelling changes the cost of a job a lot, a pass runs every
such relabelling instead of a seeded one (see `x3_trees` and
`maxpack_prepare`), so the cost of a pass hardly depends on the seed
while some of its counts still do.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from checks import (check_cert, check_cert_json, check_exact, check_packing, expect,
                    parse_perm, x3_edges)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"

BNB_BUDGET = 20_000
CLI_TIMEOUT = 120


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    after: Callable[[Any], None] | None = None  # untimed follow-up on the output


@dataclass
class PassResult:
    walls: list[float] = field(default_factory=list)  # seconds per job
    calibs: list[float] = field(default_factory=list)  # before the first job and after each
    attempted: int = 0
    failed: int = 0
    errors: dict[str, list[str]] = field(default_factory=dict)
    outputs: dict[str, Any] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_jobs(jobs: list[Job], check_cache: dict | None = None,
             calib: Callable[[], float] | None = None) -> PassResult:
    """Run jobs one at a time, timing each.

    Checks and follow-ups run outside the timed part, and so does `calib`,
    the host calibration, which runs before the first job and after each
    job.  A check of a CLI output (a `Proc`) is cached by the output,
    since equal outputs give equal verdicts.
    """
    res = PassResult()
    if calib:
        res.calibs.append(calib())
    for job in jobs:
        res.attempted += 1
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            out, errors = None, [f"raised {exc!r}"]
        else:
            errors = None
        res.walls.append(time.perf_counter() - start)
        if calib:
            res.calibs.append(calib())
        if errors is None:
            res.outputs[job.name] = out
            key = (job.name, out) if check_cache is not None and isinstance(out, Proc) else None
            if key is not None and key in check_cache:
                errors = check_cache[key]
            else:
                try:
                    errors = job.check(out)
                except Exception as exc:  # malformed output
                    errors = [f"check raised {exc!r}"]
                if key is not None:
                    check_cache[key] = errors
            if job.after is not None and not errors:
                job.after(out)
        res.errors[job.name] = errors
        res.failed += bool(errors)
    return res


# ---------------------------------------------------------------------------
# seeded inputs


def placed_x3(r: int, t: int, hub_left: int, hub_right: int):
    """X3(r,t) with its positions permuted within each hub side so that
    the hubs sit at positions hub_left <= r < hub_right.

    Every other position of a side is a leaf of that side's hub, so the
    two hub positions determine the tree; there are r*t placements.
    """
    from permpack.cayley import TranspositionTree
    n = r + t
    left = [v for v in range(1, r + 1) if v != hub_left]
    right = [v for v in range(r + 1, n + 1) if v != hub_right]
    edges = [(hub_left, hub_right)] + [tuple(sorted((v, hub_left))) for v in left]
    edges += [tuple(sorted((v, hub_right))) for v in right]
    return TranspositionTree(n=n, edges=tuple(sorted(edges)), epsilon=(hub_left, hub_right),
                             r=r, t=t)


def x3_trees(rng: random.Random, left_hubs: dict) -> list:
    """One tree per listed left-hub position of each X3(r,t), with the
    right hub drawn from rng.

    The left hub's position decides most of the search cost, so passes
    list left-hub positions explicitly and leave the right hub to the
    seed; the right hub still changes lex order and the search tree.
    """
    return [placed_x3(r, t, h, rng.randint(r + 1, r + t))
            for (r, t), hubs in left_hubs.items() for h in hubs]


def tree_label(tree) -> str:
    return f"X3({tree.r},{tree.t}) hubs {tree.epsilon[0]},{tree.epsilon[1]}"


def relabel_values(sub, sigma: dict):
    """Image of a Johnson structure under the value permutation sigma."""
    from permpack.johnson import make_subgraph
    img = lambda s: frozenset(sigma[x] for x in s)  # noqa: E731
    return make_subgraph([(img(u), img(v)) for u, v in sub.edges], kind=sub.kind)


def value_perm(n: int, rng: random.Random) -> dict:
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return dict(zip(range(1, n + 1), img))


def rank_table(trees) -> float:
    """Seconds to lex-rank every closed sphere of the trees: the sphere
    table find_eset and max_packing build before they search."""
    from permpack.cayley import neighbors
    from permpack.perms import all_perms, lex_rank
    start = time.perf_counter()
    for tree in trees:
        for g in all_perms(tree.n):
            lex_rank(g)
            for _, h in neighbors(tree, g):
                lex_rank(h)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# eset-dlx


def eset_prepare(seed: int, tmp: Path) -> dict:
    from permpack.cayley import star_tree
    rng = random.Random(seed)
    trees = x3_trees(rng, {(4, 2): (1, 2, 3, 4), (3, 3): (1, 2, 3)})
    # Every hub position, in seeded order: the position changes lex order
    # and so the DLX tree (719 to 1495 nodes), and with it the cost.
    hubs = rng.sample(range(1, 8), 7)
    return {"trees": trees, "stars": [(h, star_tree(7, h)) for h in hubs]}


def eset_jobs(inp: dict, tracer) -> list[Job]:
    from permpack import search

    def none_exhaustive(out):
        return expect("status", out.status, "none_exhaustive") + expect(
            "certificate", out.certificate, None)

    def eset_found(tree):
        def check(out):
            errs = expect("status", out.status, "found")
            return errs or check_cert(tree.n, out.certificate.centers, tree.edges,
                                      count=720, alpha=Fraction(1))
        return check

    jobs = [Job(f"find_eset {tree_label(tree)} symmetry={sym}",
                lambda tree=tree, sym=sym: search.find_eset(tree, symmetry=sym),
                none_exhaustive)
            for tree in inp["trees"] for sym in (True, False)]
    jobs += [Job(f"find_eset star7 hub {hub}", lambda star=star: search.find_eset(star),
                 eset_found(star))
             for hub, star in inp["stars"]]
    return jobs


def eset_size(outputs: dict) -> int:
    return sum(len(o.certificate.centers) for o in outputs.values() if o.certificate)


def eset_probes(inp: dict, outputs: dict) -> dict:
    return {"perms.rank_table_s": rank_table(inp["trees"] + [s for _, s in inp["stars"]])}


# ---------------------------------------------------------------------------
# maxpack-bnb


def maxpack_prepare(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    # The B&B cost at a fixed budget changes with both hub positions, so
    # X3(3,3) runs at all nine placements.  At X3(4,2) set-up dominates:
    # left hub 1 halves the exact component-cap search and positions 2-4
    # cost alike, so a pass takes left hub 1 with both right hubs and one
    # seeded placement with the left hub at 2-4.
    trees = [placed_x3(3, 3, hl, hr) for hl in (1, 2, 3) for hr in (4, 5, 6)]
    trees += [placed_x3(4, 2, 1, hr) for hr in (5, 6)]
    trees += x3_trees(rng, {(4, 2): (rng.choice((2, 3, 4)),)})
    return {"trees": trees, "small": placed_x3(2, 2, rng.choice((1, 2)), rng.choice((3, 4)))}


def maxpack_jobs(inp: dict, tracer) -> list[Job]:
    from permpack import search

    def packed(tree, count=None, status=("found", "best_effort")):
        def check(out):
            errs = [] if out.status in status else [f"status {out.status!r} not in {status}"]
            centers = out.certificate.centers
            errs += expect("covered_count", out.covered_count, len(centers) * tree.n)
            return errs + check_cert(tree.n, centers, tree.edges, count=count)
        return check

    jobs = [Job(f"max_packing {tree_label(tree)} budget {BNB_BUDGET}",
                lambda tree=tree: search.max_packing(tree, node_budget=BNB_BUDGET),
                packed(tree))
            for tree in inp["trees"]]
    small = inp["small"]
    jobs.append(Job(f"max_packing {tree_label(small)} optimum",
                    lambda: search.max_packing(small), packed(small, 5, ("found",))))
    return jobs


def maxpack_size(outputs: dict) -> int:
    return sum(len(o.certificate.centers) for o in outputs.values())


def maxpack_probes(inp: dict, outputs: dict) -> dict:
    """Set-up cost and node rate of the B&B: each tree again at
    node_budget=1, which builds the sphere table, conflict masks and
    component caps and then stops."""
    from permpack import search
    trees = inp["trees"] + [inp["small"]]
    start = time.perf_counter()
    nodes = sum(search.max_packing(tree, node_budget=1).nodes_explored for tree in trees)
    return {"search.bnb_setup_s": time.perf_counter() - start,
            "bnb_setup_nodes": nodes,
            "perms.rank_table_s": rank_table(trees)}


# ---------------------------------------------------------------------------
# cli-certify


@dataclass(frozen=True)
class Proc:
    code: int
    out: str
    err: str


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_call(argv: list[str], tracer, span: str, tmp: Path) -> Proc:
    """One fresh `python -m permpack.cli` process; in traced passes the
    process runs traced_cli.py instead and its spans join the parent's."""
    env = cli_env()
    if tracer is None:
        cmd = [sys.executable, "-m", "permpack.cli", *argv]
        p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=CLI_TIMEOUT)
        return Proc(p.returncode, p.stdout, p.stderr)
    spans_path = tmp / "child_spans.json"
    env["PERFBENCH_SPANS"] = str(spans_path)
    cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
    sid = len(tracer.spans)
    p = tracer.span(span, subprocess.run, cmd, env=env, cwd=ROOT, capture_output=True,
                    text=True, timeout=CLI_TIMEOUT)
    with open(spans_path) as fh:
        tracer.adopt(json.load(fh), parent=sid)
    spans_path.unlink()
    return Proc(p.returncode, p.stdout, p.stderr)


def cli_startup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import permpack.cli"], env=cli_env(), cwd=ROOT,
                   check=True, timeout=CLI_TIMEOUT)
    return time.perf_counter() - start


def _json(proc: Proc) -> Any:
    if proc.code != 0:
        raise ValueError(f"exit code {proc.code}: {proc.err.strip()[-200:]}")
    return json.loads(proc.out)


def _table_alpha(r: int) -> Fraction:
    """alpha of census row r, from the closed form of the paper's Table III."""
    from math import comb
    sigma = comb(2 * r, r)
    p = sigma - 2 ** r - (comb(r, r // 2) if r % 2 == 0 else 0)
    return Fraction(2 ** r + Fraction(2 * p, r), sigma)


def cli_prepare(seed: int, tmp: Path) -> dict:
    from permpack import johnson
    rng = random.Random(seed)
    structures = {}
    for n, r in ((8, 5), (9, 6)):
        sub = johnson.search_exact_2factor(n, r, max_vertices=90)
        path = tmp / f"two_factor_{n}_{r}.json"
        with open(path, "w") as fh:
            json.dump(johnson.subgraph_to_dict(relabel_values(sub, value_perm(n, rng))), fh)
        structures[n] = path
    return {"tmp": tmp, "structures": structures}


def cli_jobs(inp: dict, tracer) -> list[Job]:
    tmp = inp["tmp"]
    jobs: list[Job] = []

    def add(span, argv, check, after=None, raw=False, fresh=()):
        def run():
            for path in fresh:  # no file of an earlier pass may stand in for this one's
                path.unlink(missing_ok=True)
            return cli_call(argv, tracer, span, tmp)
        jobs.append(Job(f"{span} permpack {' '.join(argv)}", run,
                        lambda proc: check(proc if raw else _json(proc)), after))

    def tsv(proc):
        if proc.code != 0:
            return [f"exit code {proc.code}"]
        rows = [line.split("\t") for line in proc.out.strip().splitlines()]
        errs = expect("header", rows[0][:5], ["r", "Sigma", "SigmaPrime", "P", "alpha"])
        errs += expect("rows", [row[0] for row in rows[1:]], [str(r) for r in range(2, 8)])
        for row in rows[1:]:
            errs += expect(f"alpha r={row[0]}", Fraction(row[4]), _table_alpha(int(row[0])))
        return errs

    def cert_ok(edges, count, alpha):
        def check(data):
            return (check_cert_json(data["certificate"], edges, count, alpha)
                    + expect("report.valid", data["report"]["valid"], True))
        return check

    def xprime(data):
        cert = data["certificate"]
        base = {frozenset(c) for c in cert["base_subgraph"]}
        centers = [parse_perm(s) for s in cert["centers"]]
        covered, errs = check_packing(6, x3_edges(3, 3, renumbered=True), centers,
                                      base=base, r=3)
        return (errs + expect("centers", len(centers), 48) + expect("covered", covered, 288)
                + expect("report.is_eset", data["report"]["is_eset"], True))

    def report(alpha, covered, uniform=None):
        def check(data):
            errs = expect("valid", data["valid"], True) + expect("alpha", data["alpha"], alpha)
            errs += expect("covered_count", data["covered_count"], covered)
            if uniform is not None:
                errs += expect("uniform", data.get("uniform"), uniform)
            return errs
        return check

    def nonuniform(data):
        return (cert_ok(x3_edges(3, 3, renumbered=True), 96, Fraction(4, 5))(data)
                + expect("achieved_alpha", data["achieved_alpha"], "4/5")
                + expect("shortfall", data["shortfall"], False))

    def unwrap(out_path, bare_path):
        # `construct -o` writes {certificate, report}, which `verify`
        # rejects as malformed; pass verify the certificate alone.
        def after(proc):
            with open(out_path) as fh:
                cert = json.load(fh)["certificate"]
            with open(bare_path, "w") as fh:
                json.dump(cert, fh)
        return after

    fx = FIXTURES
    # the README's ten commands
    add("cli.readme", ["build-tree", "--tree", "3,2"], lambda d: (
        expect("n", d["n"], 5) + expect("epsilon", d["epsilon"], [3, 4])
        + expect("num_vertices", d["num_vertices"], 120)
        + expect("edges", d["edges"], [[1, 3], [2, 3], [3, 4], [4, 5]])))
    add("cli.readme", ["search", "eset", "--tree", "3,3"],
        lambda d: expect("status", d["status"], "none_exhaustive"))
    add("cli.readme", ["search", "maxpack", "--tree", "2,2", "--budget", "60s"],
        lambda d: expect("status", d["status"], "found")
        + check_cert_json(d["certificate"], x3_edges(2, 2), 5))
    add("cli.readme", ["construct", "xprime", "3"], xprime)
    add("cli.readme", ["construct", "nonuniform", "3", "--stage", "final"], nonuniform)
    add("cli.readme", ["construct", "uniform", "--tree", "3,2", "--structure",
                       str(fx / "nest_g35.json")],
        cert_ok(x3_edges(3, 2), 20, Fraction(5, 6)))
    add("cli.readme", ["verify", "--tree", "3,2", "--uniform",
                       str(fx / "x32_uniform_5_6.json")], report("5/6", 100, True))
    add("cli.readme", ["johnson", "exact-2factor", "6", "4"],
        lambda d: expect("output", d, {"found": False}))
    add("cli.readme", ["johnson", "alternate", "1123", "2113", "7"],
        lambda d: expect("exact", d["exact"], True) + expect(
            "vertices", len(d["structure"]["vertices"]), 14) + check_exact(
            7, 4, d["structure"]["edges"], spanning_2factor=False))
    add("cli.readme", ["tables", "7"], tsv, raw=True)
    # round trip on the seeded exact 2-factors: X3(5,3) from J(8,5), X3(6,3) from J(9,6)
    for n, r, alpha, centers, uniform in ((8, 5, "8/15", 2688, True),
                                          (9, 6, "1/2", 20160, False)):
        wrapped, bare = tmp / f"construct_{n}.json", tmp / f"cert_{n}.json"
        tree = f"{r},3"
        add("cli.construct_uniform",
            ["construct", "uniform", "--tree", tree, "--structure",
             str(inp["structures"][n]), "-o", str(wrapped)],
            cert_ok(x3_edges(r, 3), centers, Fraction(alpha)), unwrap(wrapped, bare),
            fresh=(wrapped, bare))
        add("cli.verify", ["verify", "--tree", tree] + (["--uniform"] if uniform else [])
            + [str(bare)], report(alpha, centers * n, True if uniform else None))
    add("cli.construct_nonuniform", ["construct", "nonuniform", "3"], nonuniform)
    return jobs


def _certs(outputs: dict) -> dict[str, dict]:
    """Certificates emitted by a pass, by job name."""
    out = {}
    for name, proc in outputs.items():
        if proc.code == 0 and proc.out.startswith("{"):
            data = json.loads(proc.out)
            if "certificate" in data:
                out[name] = data["certificate"]
    return out


def cli_size(outputs: dict) -> int:
    return sum(len(c["centers"]) for c in _certs(outputs).values())


def cli_probes(inp: dict, outputs: dict) -> dict:
    from permpack import certify
    from permpack.cayley import build_tree, closed_sphere
    # start-up first, while this process is small: spawning from a large
    # process takes longer
    startup = statistics.median(cli_startup() for _ in range(3))
    big = [c for c in _certs(outputs).values() if c["n"] >= 8]
    texts = [json.dumps(c) for c in big]
    start = time.perf_counter()
    parsed = [certify.cert_from_dict(json.loads(text)) for text in texts]
    for cert in parsed:
        json.dumps(certify.cert_to_dict(cert))
    json_s = time.perf_counter() - start
    nine = [c for c in parsed if c.n == 9]
    start = time.perf_counter()
    for cert in nine:
        tree = build_tree(cert.r, cert.t)
        for c in cert.centers:
            closed_sphere(tree, c)
    sphere_s = time.perf_counter() - start
    return {"certify.cert_json_s": json_s, "cayley.closed_sphere_s": sphere_s,
            "cli.startup_s": startup}


# ---------------------------------------------------------------------------
# johnson-2factor


SEARCHES = ((6, 4), (8, 5), (9, 6), (8, 4))
RELABELLINGS = 4


# The two nests of tests/conftest.py, rebuilt here because that module
# imports pytest.
def nest_g35():
    from permpack.johnson import expand_cc, make_subgraph
    core = expand_cc((1, 2, 3, 4, 5), 3)
    pendants = [((1, 3, 2), (1, 3, 5)), ((4, 2, 3), (4, 2, 1)), ((3, 5, 4), (3, 5, 2)),
                ((4, 1, 5), (4, 1, 3)), ((2, 5, 1), (2, 5, 4))]
    return make_subgraph(list(core.edges) + [(frozenset(a), frozenset(b))
                                             for a, b in pendants], kind="nest")


def nest_g46():
    from permpack.johnson import make_subgraph
    cyc = [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5), (2, 3, 4, 6), (3, 4, 5, 6), (3, 4, 5, 1),
           (4, 5, 6, 1), (4, 5, 6, 2), (5, 6, 1, 2), (5, 6, 1, 3), (6, 1, 2, 3), (6, 1, 2, 4)]
    edges = [(cyc[i], cyc[(i + 1) % 12]) for i in range(12)]
    edges += [((1, 2, 3, 5), (1, 2, 4, 5)), ((3, 4, 5, 1), (3, 4, 6, 1)),
              ((5, 6, 1, 3), (2, 3, 5, 6))]
    return make_subgraph([(frozenset(a), frozenset(b)) for a, b in edges], kind="nest")


def johnson_prepare(seed: int, tmp: Path) -> dict:
    rng = random.Random(seed)
    sigmas = {(n, r): [value_perm(n, rng) for _ in range(RELABELLINGS)] for n, r in SEARCHES}
    nests = []
    for (n, r), sub in (((5, 3), nest_g35()), ((6, 4), nest_g46())):
        nests += [(n, r, relabel_values(sub, value_perm(n, rng))) for _ in range(RELABELLINGS)]
    return {"sigmas": sigmas, "nests": nests}


def johnson_jobs(inp: dict, tracer) -> list[Job]:
    from permpack import johnson
    found: dict = {}
    jobs: list[Job] = []

    def two_factor(n, r):
        def check(sub):
            if (n, r) == (6, 4):
                return expect("result", sub, None)
            if sub is None:
                return ["no 2-factor found"]
            return check_exact(n, r, sub.edges, spanning_2factor=True)
        return check

    def keep(n, r):
        def after(sub):
            if sub is not None:
                found[(n, r)] = [relabel_values(sub, s) for s in inp["sigmas"][(n, r)]]
        return after

    for n, r in SEARCHES:
        jobs.append(Job(f"search_exact_2factor({n},{r})",
                        lambda n=n, r=r: johnson.search_exact_2factor(n, r, max_vertices=90),
                        two_factor(n, r), keep(n, r)))
    for n, r in SEARCHES[1:]:
        for k in range(RELABELLINGS):
            jobs.append(Job(f"is_exact 2-factor({n},{r}) relabelling {k}",
                            lambda n=n, r=r, k=k: johnson.is_exact(n, r, found[(n, r)][k]),
                            lambda out: expect("is_exact", out, (True, None))))
            jobs.append(Job(f"validate_nest 2-factor({n},{r}) relabelling {k}",
                            lambda n=n, r=r, k=k: johnson.validate_nest(n, r, found[(n, r)][k]),
                            lambda out: expect("validate_nest", out, (True, "nest"))))
    for k, (n, r, sub) in enumerate(inp["nests"]):
        jobs.append(Job(f"validate_nest nest({n},{r}) #{k}",
                        lambda n=n, r=r, sub=sub: johnson.validate_nest(n, r, sub),
                        lambda out: expect("validate_nest", out, (True, "nest"))))
    return jobs


def johnson_size(outputs: dict) -> int:
    return sum(len(o.vertices) for name, o in outputs.items()
               if name.startswith("search_exact_2factor") and o is not None)


def no_probes(inp: dict, outputs: dict) -> dict:
    return {}


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    why: str
    prepare: Callable[[int, Path], dict]
    jobs: Callable[[dict, Any], list[Job]]
    size: Callable[[dict], int]
    probes: Callable[[dict, dict], dict]
    children_rss: bool = False  # peak RSS is that of the largest child process


WORKLOADS = {
    "eset-dlx": Workload(
        "find_eset on relabelled X3(4,2), X3(3,3) and the S7 star: DLX search and perms "
        "sphere ranking, which the other workloads barely touch",
        eset_prepare, eset_jobs, eset_size, eset_probes),
    "maxpack-bnb": Workload(
        "max_packing at a fixed node budget on relabelled X3(4,2), X3(3,3) plus the "
        "X3(2,2) optimum: B&B speed moves wall_s, bound quality best_centers",
        maxpack_prepare, maxpack_jobs, maxpack_size, maxpack_probes),
    "cli-certify": Workload(
        "fresh CLI processes for the README commands and the n=8, n=9 construct/verify "
        "round trip: start-up, one-shot set-up and the verifier",
        cli_prepare, cli_jobs, cli_size, cli_probes, children_rss=True),
    "johnson-2factor": Workload(
        "exhaustive exact 2-factor searches in J(6,4), J(8,5), J(9,6), J(8,4) plus "
        "exactness checks: the Johnson layer alone",
        johnson_prepare, johnson_jobs, johnson_size, no_probes),
}
