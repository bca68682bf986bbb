#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads eset-dlx maxpack-bnb --seeds 1-10 \
        --seconds 30 --trace 0 [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles and
the spread (quartile distance over median) of the per-seed values, the
figures that BENCHMARK.json's bounds are checked against.  Runs go one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = ap.parse_args()
    report: dict = {}
    for name in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                "--seed", str(seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                               capture_output=True, text=True, timeout=600)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if p.returncode != 0 or not res["correct"]:
                print(f"{name} seed {seed}: exit {p.returncode}, {res['failed']} failed",
                      file=sys.stderr)
                return 1
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        report[name] = {k: {**summary(v), "values": v} for k, v in values.items()}
        for k, s in report[name].items():
            print(f"{name:16s} {k:38s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": args.seeds, "workloads": report},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
