#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--spans-out <path>] [--report-out <path>]

Run from the repository root. The first call builds the benchmark (CMake,
Release) from this directory and the repository's src/ tree into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only re-check the build.

The benchmark binary repeats the workload for --seconds of measured host time
and checks every output. This script forwards its human-readable report and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with --trace 0, or
its per-layer metrics with --trace 1 (from one extra traced repetition).
Nothing is written unless --spans-out / --report-out name a path.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fanin_rpc", "extent_mix", "conn_churn", "scale_out")
# One run must finish within 180 s after the build; the binary itself stops
# starting repetitions after 100 s of wall time.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


def _int_in(lo, hi):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value

    return parse


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the repo benchmark and print its metrics.",
        allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_int_in(0, 2**63 - 1))
    parser.add_argument("--seconds", required=True, type=_int_in(1, 600),
                        help="measured host seconds (summed over repetitions)")
    parser.add_argument("--trace", required=True, choices=("0", "1"),
                        help="1 = add a traced repetition and print per-layer metrics")
    parser.add_argument("--spans-out", metavar="PATH",
                        help="with --trace 1, write the sampled spans (JSON) here")
    parser.add_argument("--report-out", metavar="PATH",
                        help="write the binary's full JSON report here")
    args = parser.parse_args(argv)
    if args.spans_out and args.trace != "1":
        parser.error("--spans-out needs --trace 1")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (Path.cwd() / base / "perfbench").resolve()


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Compiler temporaries stay inside the build tree, not the system temp dir.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        _run_build(["cmake", "-S", str(HERE), "-B", str(bdir),
                    "-DCMAKE_BUILD_TYPE=Release", *generator], env)
    _run_build(["cmake", "--build", str(bdir), "--target", *targets, "-j", jobs], env)
    return bdir


def _run_build(cmd, env):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build step failed: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def load_benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def run_binary(bdir, args):
    cmd = [str(bdir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.spans_out:
        cmd += ["--spans-out", str(Path(args.spans_out).resolve())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"benchmark binary failed: {e}") from e
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        raise BenchError(f"benchmark binary exited with {proc.returncode}")
    try:
        report = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"benchmark binary printed no JSON report: {e}") from e
    return lines[:-1], report


def select_metrics(spec, report, trace):
    """The metrics the contract asks for, checked against their declared units."""
    key = "per_layer" if trace == "1" else "end_to_end"
    measured = report.get(key, {})
    out = {}
    for decl in spec[key]:
        name = decl["name"]
        m = measured.get(name)
        if m is None:
            raise BenchError(f"report lacks metric {name}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise BenchError(f"metric {name} has no finite value: {value!r}")
        if m.get("unit") != decl["unit"]:
            raise BenchError(f"metric {name} unit {m.get('unit')!r} != {decl['unit']!r}")
        if key == "end_to_end" and value <= 0:
            raise BenchError(f"end-to-end metric {name} is {value}, expected > 0")
        out[name] = {"value": value, "unit": decl["unit"]}
    return out


def main(argv):
    args = parse_args(argv)
    try:
        spec = load_benchmark_spec()
        bdir = build(["perfbench"])
        human, report = run_binary(bdir, args)
        metrics = select_metrics(spec, report, args.trace)
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=1)
                f.write("\n")
    except (BenchError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in human:
        print(line)
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
