#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads fanin_rpc,conn_churn --seeds 1-10
                                [--seconds 20] [--report-metrics extent_gbps,...]

Runs perfbench/run.py once per (workload, seed), each in its own process, and
prints per workload and metric the range, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median, marking
spreads at or above a third of the metric's bound in BENCHMARK.json. Exits 1
if any run fails or reports correct=false. Use it before and after a change,
with the same seeds, to see whether a difference exceeds the noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv):
    parser = argparse.ArgumentParser(prog="perfbench/spread.py", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="a range lo-hi or a comma-separated list")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--report-metrics", default="",
                        help="comma-separated metrics of the report section to add")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        return measure(args, str(Path(tmp) / "report.json"))


def measure(args, report_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--report-out", report_path],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed ({proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.report_metrics:
                report = json.loads(Path(report_path).read_text(encoding="utf-8"))
                for name in args.report_metrics.split(","):
                    values.setdefault(name, []).append(report["report"][name]["value"])
        print(f"\n{workload} ({len(args.seeds)} seeds, {seconds} s each)")
        print(f"  {'metric':<30} {'min':>12} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'max':>12} {'spread':>8}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = " <-- above bound/3" if bound is not None and spread >= bound / 3 else ""
            print(f"  {name:<30} {min(vals):>12.6g} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} "
                  f"{max(vals):>12.6g} {spread:>8.4f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
