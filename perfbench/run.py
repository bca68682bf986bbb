#!/usr/bin/env python3
"""Benchmark for permpack: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload eset-dlx --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each run sets up its inputs from the seed, then runs passes over the
workload's job list, one job at a time, until the time is spent, and
checks every output.  It prints a report and, as its last line, one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # this process's own set-up plus four fresh processes
CALIB_LOOP = 200_000
# Seconds the calibration loop takes on the reference host (about its
# median on the 2-core host of the baseline).  The loop runs before and
# after every job; each job's time is scaled by CALIB_REF over the mean
# of the two, which takes out part of the host's speed drift.  Raw times
# are printed too.
CALIB_REF = 0.018

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "best_centers": "count"}
PER_LAYER = {
    "search.find_eset_s": "s", "search.dlx_nodes": "count", "search.dlx_nodes_per_s": "1/s",
    "perms.rank_table_s": "s",
    "search.max_packing_s": "s", "search.bnb_nodes": "count", "search.bnb_setup_s": "s",
    "search.bnb_nodes_per_s": "1/s",
    "certify.verify_packing_s": "s", "certify.uniformity_check_s": "s",
    "certify.cert_json_s": "s", "certify.centers": "count", "cayley.closed_sphere_s": "s",
    "constructions.uniform_from_exact_s": "s", "constructions.nonuniform_extension_s": "s",
    "cli.startup_s": "s", "cli.readme_s": "s", "cli.construct_uniform_s": "s",
    "cli.verify_s": "s", "cli.overhead_s": "s",
    "johnson.2factor_6_4_s": "s", "johnson.2factor_8_4_s": "s", "johnson.2factor_8_5_s": "s",
    "johnson.2factor_9_6_s": "s", "johnson.is_exact_s": "s", "johnson.validate_nest_s": "s",
    "search.self_s": "s", "certify.self_s": "s", "constructions.self_s": "s",
    "johnson.self_s": "s", "cli.self_s": "s",
    "host.calib_s": "s", "trace.overhead_frac": "frac",
}
LAYERS = ("search", "certify", "constructions", "johnson", "cli")


def calib() -> float:
    """A fixed pure-Python loop that does not touch permpack."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def setup(wl, seed: int, tmp: Path):
    """Import permpack and build the workload's inputs; (seconds, inputs)."""
    start = time.perf_counter()
    import permpack
    if Path(permpack.__file__).resolve().parent != (SRC / "permpack").resolve():
        raise RuntimeError(f"imported permpack from {permpack.__file__}, not {SRC}")
    inputs = wl.prepare(seed, tmp)
    return time.perf_counter() - start, inputs


def setup_in_child(workload: str, seed: int) -> float:
    p = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--setup-probe"],
                       capture_output=True, text=True, timeout=170, check=True)
    return float(p.stdout.split()[-1])


def layer_row(tracer, pass_id: int, probes: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    from tracing import count, self_times, total
    spans = [s for s in tracer.spans if s[5] == pass_id]
    find_s, dlx = total(spans, "search.find_eset"), count(spans, "search.find_eset", "nodes")
    mp_s, bnb = total(spans, "search.max_packing"), count(spans, "search.max_packing", "nodes")
    setup_s = probes.pop("search.bnb_setup_s", 0.0)
    setup_nodes = probes.pop("bnb_setup_nodes", 0)
    startup = probes.get("cli.startup_s", 0.0)
    selfs = self_times(spans)
    calls = sum(1 for s in spans if s[4] is None and s[1].startswith("cli."))
    row = dict.fromkeys(PER_LAYER, 0.0)  # a layer the workload does not call reads 0
    row.update({
        "search.find_eset_s": find_s, "search.dlx_nodes": dlx,
        "search.dlx_nodes_per_s": dlx / find_s if find_s else 0.0,
        "search.max_packing_s": mp_s, "search.bnb_nodes": bnb, "search.bnb_setup_s": setup_s,
        "search.bnb_nodes_per_s": ((bnb - setup_nodes) / (mp_s - setup_s)
                                   if setup_s and mp_s > setup_s else 0.0),
        "certify.verify_packing_s": total(spans, "certify.verify_packing"),
        "certify.uniformity_check_s": total(spans, "certify.uniformity_check"),
        "certify.centers": count(spans, "certify.verify_packing", "centers"),
        "constructions.uniform_from_exact_s": total(spans, "constructions.uniform_from_exact"),
        "constructions.nonuniform_extension_s":
            total(spans, "constructions.nonuniform_extension"),
        "cli.startup_s": startup,
        "cli.readme_s": total(spans, "cli.readme"),
        "cli.construct_uniform_s": total(spans, "cli.construct_uniform"),
        "cli.verify_s": total(spans, "cli.verify"),
        # process wall time minus library spans (cli self time) minus start-up
        "cli.overhead_s": selfs.get("cli", 0.0) - calls * startup if calls else 0.0,
        "johnson.is_exact_s": total(spans, "johnson.is_exact"),
        "johnson.validate_nest_s": total(spans, "johnson.validate_nest"),
    })
    for n, r in ((6, 4), (8, 4), (8, 5), (9, 6)):
        row[f"johnson.2factor_{n}_{r}_s"] = sum(
            s[3] - s[2] for s in spans if s[1] == "johnson.search_exact_2factor"
            and (s[6]["n"], s[6]["r"]) == (n, r))
    for layer in LAYERS:
        row[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    row.update(probes)
    return row


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import checks
    from tracing import Tracer
    from workloads import WORKLOADS, Job, run_jobs

    wl = WORKLOADS[name]
    accepted = checks.self_test(run_jobs, Job)
    if accepted:
        print(f"self-test: checks accepted wrong outputs: {accepted}", file=sys.stderr)
        return 1
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_calib = calib()
        own, inputs = setup(wl, seed, tmp)
        setups = [own] + [setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]

        tracer = Tracer()
        cache: dict = {}
        scaled: dict[bool, list[float]] = {False: [], True: []}  # by traced or not
        raw, calibs, rows, sizes, iters = [], [], [], [], []
        attempted = failed = 0
        errors: dict[str, list[str]] = {}
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            start = time.perf_counter()
            traced = trace and i % 2 == 1
            if traced:
                tracer.pass_id = i
                tracer.install()
            try:
                res = run_jobs(wl.jobs(inputs, tracer if traced else None), cache, calib)
            finally:
                if traced:
                    tracer.uninstall()
            calibs += res.calibs
            scaled[traced].append(sum(w * 2 * CALIB_REF / (a + b) for w, a, b in
                                      zip(res.walls, res.calibs, res.calibs[1:])))
            if not traced:
                raw.append(res.wall)
            attempted += res.attempted
            failed += res.failed
            for job, errs in res.errors.items():
                if errs:
                    errors.setdefault(job, errs)
            sizes.append(wl.size(res.outputs))
            if traced:
                rows.append(layer_row(tracer, i, wl.probes(inputs, res.outputs)))
            i += 1
            iters.append(time.perf_counter() - start)
            enough = scaled[False] and (scaled[True] or not trace)
            if enough and time.perf_counter() + statistics.median(iters) > deadline:
                break

        who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
        peak_mib = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"# why: {wl.why}")
    print(f"# closed loop, one client; {len(scaled[False])} untraced and "
          f"{len(scaled[True])} traced passes; the self-test's wrong outputs all failed")
    for job, errs in errors.items():
        print(f"FAILED {job}: {'; '.join(errs)[:300]}", file=sys.stderr)
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.4f}")

    if trace:
        metrics = {k: statistics.median(r[k] for r in rows) for k in PER_LAYER
                   if k not in ("host.calib_s", "trace.overhead_frac")}
        metrics["host.calib_s"] = statistics.median(calibs)
        metrics["trace.overhead_frac"] = (statistics.median(scaled[True])
                                          / statistics.median(scaled[False]) - 1)
        units = PER_LAYER
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
        print(f"# spans written to {(out_dir / f'trace-{name}-seed{seed}.json').relative_to(ROOT)}")
        dominant = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
        print(f"# dominant layer by self time: {dominant}")
    else:
        lo, hi = quartiles(scaled[False])
        print(f"# raw: wall median {statistics.median(raw):.4f} s over {len(raw)} passes, "
              f"setup median {statistics.median(setups):.4f} s; "
              f"calibration median {statistics.median(calibs):.5f} s")
        print(f"# scaled to the reference host: wall quartiles {lo:.4f} .. {hi:.4f} s")
        metrics = {"wall_s": statistics.median(scaled[False]),
                   "setup_s": statistics.median(setups) * 2 * CALIB_REF / (setup_calib + calibs[0]),
                   "peak_rss_mib": peak_mib,
                   "best_centers": statistics.median(sizes)}
        units = END_TO_END
    for k, v in metrics.items():
        print(f"{k:40s} {v:.6g} {units[k]}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(int(trace))], capture_output=True, text=True,
                           timeout=900)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, p.returncode)
        if p.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time set-up in this fresh process, print the seconds, exit")
    args = ap.parse_args()
    if not (SRC / "permpack" / "__init__.py").is_file():
        print(f"error: no permpack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            print(setup(WORKLOADS[args.workload], args.seed, tmp)[0])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
