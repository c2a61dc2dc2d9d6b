#!/usr/bin/env python3
"""A/B comparison of two revisions on the repo benchmark (perfbench) or on
bench/perf_smoke.

    python3 scripts/ab.py REV_A REV_B [--bench perfbench|perf_smoke]
                          [--workloads fanin_rpc,...] [--rounds 10]
                          [--seed 1] [--scratch DIR]

Checks out REV_A and REV_B as `git worktree`s under the scratch directory
(nothing is fetched), each building into its own CARGO_TARGET_DIR, and runs
`perfbench/run.py --trace 0` for every workload in alternating ABBA order:
round 0 runs A then B, round 1 B then A, and so on, so slow drift on a shared
host falls on both sides alike. Every run lasts BENCHMARK.json's run_seconds.
One unrecorded warm-up run per side builds the benchmark first.

For every end-to-end metric of BENCHMARK.json it prints, per workload, the
median of each side, the ratio B/A, each side's interquartile range (IQR),
how many of the paired rounds B won (by the metric's "better" direction) and
a verdict:
  noise       the medians differ by no more than A's IQR;
  better      outside A's IQR, and B won at least 9 in 10 pairs;
  worse       outside A's IQR, and A won at least 9 in 10 pairs;
  unresolved  anything else: more rounds are needed to tell.
It also reports whether the two sides' trace_hash / sim_hash agree, and exits
1 if any run failed, reported correct=false or failed operations.

With --bench perf_smoke, each worktree is built with CMake (RelWithDebInfo)
into its own directory under the scratch directory, and every round runs
`bench/perf_smoke --json` once per side, in the same ABBA order. For each
row (default, scale_seq, scale_par) it prints events_per_sec and
rpcs_per_sec with the verdicts above, and whether the simulated identity of
the row (events, rpcs, trace_hash) agrees across every run of both sides.
--workloads and --seed do not apply; it exits 1 if any build or run failed.

The worktrees and their builds are removed at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fanin_rpc", "extent_mix", "conn_churn", "scale_out")
RUN_TIMEOUT_S = 1200
# A side must win at least this share of the pairs to be called better/worse.
DECISIVE_SHARE = 0.9
# perf_smoke: the rows compared, their host rates (higher is better) and the
# fields that name a row's simulated run, which must agree across revisions
# that claim no simulated change.
PERF_SMOKE_ROWS = ("default", "scale_seq", "scale_par")
PERF_SMOKE_RATES = (("events_per_sec", "events/s"), ("rpcs_per_sec", "rpcs/s"))
PERF_SMOKE_IDENTITY = ("events", "rpcs", "trace_hash")
BUILD_JOBS = min(4, os.cpu_count() or 1)


def quartiles(values):
    """(q1, median, q3) of `values`, with statistics.quantiles(n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(a, b, better):
    """Compares paired runs `a[i]`, `b[i]` of one metric.

    `better` is "higher" or "lower". Returns the medians, the ratio B/A, both
    IQRs, the number of pairs B won and lost, and the verdict described in
    the module docstring.
    """
    if len(a) != len(b) or not a:
        raise ValueError("need the same non-zero number of runs on both sides")
    if better not in ("higher", "lower"):
        raise ValueError(f"unknown direction {better!r}")
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    if abs(b_med - a_med) <= a_q3 - a_q1:
        verdict = "noise"
    elif wins >= DECISIVE_SHARE * len(a):
        verdict = "better"
    elif losses >= DECISIVE_SHARE * len(a):
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {
        "median_a": a_med,
        "median_b": b_med,
        "ratio": b_med / a_med if a_med else float("inf"),
        "iqr_a": a_q3 - a_q1,
        "iqr_b": b_q3 - b_q1,
        "wins": wins,
        "losses": losses,
        "pairs": len(a),
        "verdict": verdict,
    }


def format_row(name, unit, s):
    return (f"  {name:<12} {s['median_a']:>12.6g} {s['median_b']:>12.6g} "
            f"{s['ratio']:>7.3f}x {s['iqr_a']:>10.4g} {s['iqr_b']:>10.4g} "
            f"{s['wins']:>3}/{s['pairs']:<3} {s['verdict']:<10} {unit}")


def header():
    return (f"  {'metric':<12} {'median A':>12} {'median B':>12} {'B/A':>8} "
            f"{'IQR A':>10} {'IQR B':>10} {'B wins':>7} {'result':<10} unit")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def add_worktree(rev, path):
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    if path.exists():
        remove_worktree(path)
    git("worktree", "add", "--detach", str(path), sha)
    return sha


def remove_worktree(path):
    subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=ROOT,
                   check=False, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    shutil.rmtree(path, ignore_errors=True)
    git("worktree", "prune")


def run_once(side, workload, seed, seconds, log=subprocess.DEVNULL):
    """One perfbench run of `side`; returns (result, hash line) or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(side["target"]))
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=side["tree"], env=env, stdout=subprocess.PIPE,
                              stderr=log, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    hashes = next((ln.strip() for ln in lines if ln.startswith("trace_hash")), "")
    return json.loads(lines[-1]), hashes


def perf_smoke_rows(dump):
    """{row: {field: value}} of one perf_smoke --json dump: the host rates and
    the identity fields of each compared row. Raises ValueError if the dump is
    not perf_smoke's or lacks a row or a field."""
    if dump.get("bench") != "perf_smoke":
        raise ValueError(f"not a perf_smoke dump: bench {dump.get('bench')!r}")
    by_config = {row.get("config"): row for row in dump.get("rows", [])}
    fields = [name for name, _ in PERF_SMOKE_RATES] + list(PERF_SMOKE_IDENTITY)
    rows = {}
    for name in PERF_SMOKE_ROWS:
        row = by_config.get(name)
        if row is None:
            raise ValueError(f"perf_smoke dump has no {name!r} row")
        missing = [f for f in fields if f not in row]
        if missing:
            raise ValueError(f"perf_smoke row {name!r} lacks {', '.join(missing)}")
        rows[name] = {f: row[f] for f in fields}
    return rows


def build_perf_smoke(side):
    """Configures and builds bench/perf_smoke of `side`; False on failure (the
    log goes to stderr)."""
    for cmd in (["cmake", "-S", str(side["tree"]), "-B", str(side["build"]),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(side["build"]), "--target", "perf_smoke",
                 "-j", str(BUILD_JOBS)]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def run_perf_smoke(side, dump):
    """One perf_smoke run of `side` writing `dump`; its rows, or None."""
    binary = side["build"] / "bench" / "perf_smoke"
    try:
        proc = subprocess.run([str(binary), f"--json={dump}"], cwd=side["tree"],
                              stdout=subprocess.DEVNULL, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            return None
        return perf_smoke_rows(json.loads(Path(dump).read_text(encoding="utf-8")))
    except (subprocess.TimeoutExpired, OSError, ValueError):
        return None


def main(argv):
    parser = argparse.ArgumentParser(prog="scripts/ab.py", allow_abbrev=False,
                                     description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--bench", choices=("perfbench", "perf_smoke"),
                        default="perfbench",
                        help="perfbench workloads (default) or bench/perf_smoke")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--rounds", type=int, default=10, help="paired rounds (default 10)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scratch", default=str(Path(tempfile.gettempdir()) / "flock-ab"),
                        help="directory for the worktrees and their builds")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            parser.error(f"unknown workload {w!r}")
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    scratch = Path(args.scratch).resolve()
    scratch.mkdir(parents=True, exist_ok=True)
    sides = {}
    try:
        for key, rev in (("A", args.rev_a), ("B", args.rev_b)):
            tree = scratch / key.lower()
            sha = add_worktree(rev, tree)
            sides[key] = {"rev": rev, "sha": sha, "tree": tree,
                          "target": scratch / f"{key.lower()}-target",
                          "build": scratch / f"{key.lower()}-build"}
        if args.bench == "perf_smoke":
            return compare_perf_smoke(args, sides, scratch)
        return compare(args, workloads, sides)
    finally:
        for side in sides.values():
            remove_worktree(side["tree"])
            shutil.rmtree(side["target"], ignore_errors=True)
            shutil.rmtree(side["build"], ignore_errors=True)


def compare_perf_smoke(args, sides, scratch):
    for key, side in sides.items():
        print(f"{key}: {side['rev']} ({side['sha'][:12]})", flush=True)
        if not build_perf_smoke(side):
            print(f"{key}: perf_smoke build failed", file=sys.stderr)
            return 1

    ok = True
    values = {row: {"A": {}, "B": {}} for row in PERF_SMOKE_ROWS}
    idents = {row: {"A": set(), "B": set()} for row in PERF_SMOKE_ROWS}
    for rnd in range(args.rounds):
        order = ("A", "B") if rnd % 2 == 0 else ("B", "A")
        for key in order:
            rows = run_perf_smoke(sides[key], scratch / f"{key.lower()}-perf_smoke.json")
            if rows is None:
                print(f"round {rnd} {key}: perf_smoke run failed", file=sys.stderr)
                ok = False
                continue
            for row, fields in rows.items():
                idents[row][key].add(tuple(fields[f] for f in PERF_SMOKE_IDENTITY))
                for name, _ in PERF_SMOKE_RATES:
                    values[row][key].setdefault(name, []).append(fields[name])
            shown = " ".join(f"{row}={rows[row]['events_per_sec']:.4g}"
                             for row in PERF_SMOKE_ROWS)
            print(f"round {rnd} {key}: events_per_sec {shown}", file=sys.stderr,
                  flush=True)

    print(f"\nA = {sides['A']['rev']}, B = {sides['B']['rev']}; {args.rounds} ABBA "
          f"rounds of bench/perf_smoke")
    for row in PERF_SMOKE_ROWS:
        a_ids, b_ids = idents[row]["A"], idents[row]["B"]
        same = a_ids == b_ids and len(a_ids) == 1
        print(f"\n{row}: {'/'.join(PERF_SMOKE_IDENTITY)} "
              f"{'identical' if same else 'DIFFER'} (A {sorted(a_ids)}, B {sorted(b_ids)})")
        print(header())
        for name, unit in PERF_SMOKE_RATES:
            a = values[row]["A"].get(name, [])
            b = values[row]["B"].get(name, [])
            if not a or len(a) != len(b):
                print(f"  {name:<12} incomplete ({len(a)} A runs, {len(b)} B runs)")
                ok = False
                continue
            print(format_row(name, unit, summarize(a, b, "higher")))
    return 0 if ok else 1


def compare(args, workloads, sides):
    spec = json.loads((sides["A"]["tree"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    for key, side in sides.items():
        print(f"{key}: {side['rev']} ({side['sha'][:12]})", flush=True)
        # The warm-up builds the benchmark; its log goes to stderr.
        if run_once(side, workloads[0], args.seed, 1, log=sys.stderr) is None:
            print(f"{key}: warm-up run failed", file=sys.stderr)
            return 1

    ok = True
    values = {w: {"A": {}, "B": {}} for w in workloads}
    hashes = {w: {"A": set(), "B": set()} for w in workloads}
    for rnd in range(args.rounds):
        order = ("A", "B") if rnd % 2 == 0 else ("B", "A")
        for w in workloads:
            for key in order:
                out = run_once(sides[key], w, args.seed, seconds)
                if out is None:
                    print(f"round {rnd} {w} {key}: run failed", file=sys.stderr)
                    ok = False
                    continue
                result, hash_line = out
                if not result["correct"] or result["failed"]:
                    print(f"round {rnd} {w} {key}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr)
                    ok = False
                hashes[w][key].add(hash_line)
                for name, m in result["metrics"].items():
                    values[w][key].setdefault(name, []).append(m["value"])
                shown = " ".join(f"{n}={result['metrics'][n]['value']:.4g}"
                                 for n in ("host_krps", "setup_s") if n in result["metrics"])
                print(f"round {rnd} {w} {key}: {shown}", file=sys.stderr, flush=True)

    print(f"\nA = {sides['A']['rev']}, B = {sides['B']['rev']}; {args.rounds} ABBA rounds, "
          f"seed {args.seed}, {seconds} s each")
    for w in workloads:
        same = hashes[w]["A"] == hashes[w]["B"] and len(hashes[w]["A"]) == 1
        print(f"\n{w}: hashes {'identical' if same else 'DIFFER'} "
              f"(A {sorted(hashes[w]['A'])}, B {sorted(hashes[w]['B'])})")
        print(header())
        for name, unit, better in metrics:
            a = values[w]["A"].get(name, [])
            b = values[w]["B"].get(name, [])
            if not a or len(a) != len(b):
                print(f"  {name:<12} incomplete ({len(a)} A runs, {len(b)} B runs)")
                ok = False
                continue
            print(format_row(name, unit, summarize(a, b, better)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
