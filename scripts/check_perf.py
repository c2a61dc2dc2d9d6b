#!/usr/bin/env python3
"""CI gate: one table of row predicates over bench JSON dumps.

Usage:
    check_perf.py [--baseline BENCH_perf_smoke.json] DUMP.json [DUMP.json ...]

Each dump is what a bench writes with --json=<path>: {"bench": NAME, "rows":
[...]}. The "bench" field says which gates apply. Rows are keyed by their
identifying fields (KEY_FIELDS, or the bench's own in BENCH_KEY_FIELDS,
joined with "/"): "default", "hotloop", "rpc/64/100", "2a/704",
"coalescing/8", "2t1q/368"; a row with none of them is "run". The baseline's
rows join its bench's rows under a "baseline/" prefix.

GATES has one line per gate: bench, gate name, a value computed from that
bench's rows, a comparison and a constant bound. A value of None means the
gate does not apply to this dump (another host-core tier); a ratio with a non-positive term is nan and fails every
comparison. Gates of benches with no dump given are skipped. The run fails if
any gate fails, if a gate names a row or field the dump lacks, or if a dump
cannot be read or names a bench with no gates.

Everything is simulated time, hence exact, except the perf_smoke host gates
(events/s and rpcs/s against the baseline, shard speedup), which depend on
the machine and the build.
"""

import argparse
import json
import math
import operator
import sys

KEY_FIELDS = ("config", "row", "tenant", "figure", "sweep", "path", "payload",
              "read_pct", "qps", "senders", "outstanding", "bound")
# Benches whose rows are named by fields other benches use differently.
BENCH_KEY_FIELDS = {"fig11_thread_sched": ("large_threads",),
                    "fig12_node_scaling": ("mode", "clients")}
OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge,
       ">": operator.gt}

TRACE = ("events", "rpcs", "trace_hash")
STORM = ("unbatched", "batched")
CTRL_REJECTS = ("rejected_malformed", "rejected_replay",
                "rejected_no_endpoint", "rejected_not_member")
PROFILES = ("solo", "hotloop", "oversized", "churn")
ATTACKS = ("hotloop", "oversized", "churn")
THROTTLED = ("hotloop", "oversized")  # the flood profiles must trip the throttle
LIVE = ("victim_live_conns", "victim_live_lanes", "attacker_live_conns",
        "attacker_live_lanes")
FIG2A_FLAT = ("2a/22", "2a/44", "2a/88", "2a/176", "2a/352", "2a/704")
FIG2B = tuple(f"2b/{s}" for s in (22, 44, 88, 176, 352, 704, 1408, 2816))
FIG10 = ("coalescing/1", "coalescing/4", "coalescing/8")
FIG11 = ("512", "768", "1024")
FIG12_CLIENTS = (23, 46, 92, 184, 368)


def ratio(a, b):
    return a / b if a > 0 and b > 0 else math.nan


def when(applies, value):
    return value if applies else None


def speedup(r, min_cores, max_cores):
    """scale_seq/scale_par wall-time ratio, if the host's effective cores
    (shards capped by host cpus) fall in [min_cores, max_cores)."""
    par = r["scale_par"]
    cores = min(par["shards"], par["host_cpus"])
    return when(min_cores <= cores < max_cores,
                ratio(r["scale_seq"]["wall_s"], par["wall_s"]))


def regression(r, metric):
    base = r["baseline/default"][metric]
    return (r["default"][metric] - base) / base


def unpaired_cells(r):
    cells = {k.split("/", 1)[1] for k in r if k.startswith(("rpc/", "onesided/"))}
    return sorted(c for c in cells if f"rpc/{c}" not in r or f"onesided/{c}" not in r)


def each(bench, keys, name, fn, op, bound):
    """One gate per row key: fn sees that row only."""
    return [(bench, f"{k}.{name}", lambda r, k=k: fn(r[k]), op, bound) for k in keys]


GATES = [
    # perf_smoke: host rates against the committed baseline.
    ("perf_smoke", "default.events_per_sec_vs_baseline", lambda r: regression(r, "events_per_sec"), ">=", -0.10),
    ("perf_smoke", "default.rpcs_per_sec_vs_baseline", lambda r: regression(r, "rpcs_per_sec"), ">=", -0.10),
    # perf_smoke: exact traces, against the baseline and sharded vs sequential.
    *[("perf_smoke", f"{c}.{f}_eq_baseline", lambda r, c=c, f=f: r[c][f] == r["baseline/" + c][f], "==", True) for c in ("default", "scale_seq") for f in TRACE],
    *[("perf_smoke", f"scale_par.{f}_eq_scale_seq", lambda r, f=f: r["scale_par"][f] == r["scale_seq"][f], "==", True) for f in TRACE],
    # perf_smoke: shard speedup, one tier per effective host cores (none below 2).
    ("perf_smoke", "shard_speedup_8plus_cores", lambda r: speedup(r, 8, math.inf), ">=", 4.0),
    ("perf_smoke", "shard_speedup_4to7_cores", lambda r: speedup(r, 4, 8), ">=", 2.0),
    ("perf_smoke", "shard_speedup_2to3_cores", lambda r: speedup(r, 2, 4), ">=", 1.2),
    # conn_storm (DESIGN.md §13): every session completes cleanly, runs
    # replay, and the batched row's p99 TTFR stays low. Each session builds
    # exactly one lane per side (lazy bring-up; an eager one would build
    # `lanes`). After the last Leave no server lane is live, sender slots were
    # reused rather than grown per session, and shell pools hold at most the
    # storm's concurrent footprint.
    *each("conn_storm", STORM, "sessions_not_done", lambda x: x["sessions"] - x["done"], "==", 0),
    *each("conn_storm", STORM, "calls_fail", lambda x: x["calls_fail"], "==", 0),
    *each("conn_storm", STORM, "ctrl_rejects", lambda x: sum(x[k] for k in CTRL_REJECTS), "==", 0),
    *each("conn_storm", STORM, "lane_failures", lambda x: x["client_lane_failures"] + x["unexpected_server_failures"], "==", 0),
    *each("conn_storm", STORM, "replay_window_over_nonce_window", lambda x: x["replay_window_entries"] - x["nonce_window"], "<=", 0),
    *each("conn_storm", STORM, "server_live_lanes", lambda x: x["server_live_lanes"], "==", 0),
    *each("conn_storm", STORM, "sender_slots_over_2x_clients", lambda x: x["sender_slots"] - 2 * x["clients"], "<=", 0),
    *each("conn_storm", STORM, "lane_pools_over_clients_x_lanes", lambda x: max(x["server_lane_pool"], x["client_lane_pool"]) - x["clients"] * x["lanes"], "<=", 0),
    *each("conn_storm", STORM, "qps_recycled", lambda x: x["qps_recycled"], ">", 0),
    *each("conn_storm", STORM, "fingerprint_eq_rerun", lambda x: x["fingerprint"] == x["fingerprint_rerun"], "==", True),
    *each("conn_storm", STORM, "qps_built_minus_2x_sessions", lambda x: x["qps_created"] + x["qps_recycled"] - 2 * x["sessions"], "==", 0),
    ("conn_storm", "batched.ttfr_p99_us", lambda r: ratio(r["batched"]["ttfr_p99_ns"], 1e3), "<=", 50.0),
    # onesided_crossover (DESIGN.md §14): both paths at every cell, one-sided wins small reads.
    ("onesided_crossover", "cells", lambda r: sum(k.startswith("rpc/") for k in r), ">", 0),
    ("onesided_crossover", "cells_missing_a_path", lambda r: len(unpaired_cells(r)), "==", 0),
    ("onesided_crossover", "gate.speedup_64b_100r", lambda r: r["gate"]["speedup_64b_100r"], ">=", 1.5),
    # tenant_isolation (DESIGN.md §15): the victim is whole, isolated, and the
    # registry's accounting drains; attackers progress, floods are throttled.
    *each("tenant_isolation", PROFILES, "victim_ok_short", lambda x: x["victim_threads"] * x["rpcs_per_thread"] - x["victim_ok"], "==", 0),
    *each("tenant_isolation", PROFILES, "victim_fail", lambda x: x["victim_fail"], "==", 0),
    *each("tenant_isolation", PROFILES, "unknown_rejects", lambda x: x["unknown_rejects"], "==", 0),
    *each("tenant_isolation", PROFILES, "live_conns_and_lanes", lambda x: sum(x[k] for k in LIVE), "==", 0),
    *each("tenant_isolation", PROFILES, "fingerprint_eq_rerun", lambda x: x["fingerprint"] == x["fingerprint_rerun"], "==", True),
    *[("tenant_isolation", f"{a}.victim_p99_over_solo", lambda r, a=a: ratio(r[a]["victim_p99_ns"], r["solo"]["victim_p99_ns"]), "<=", 2.0) for a in ATTACKS],
    *[("tenant_isolation", f"{a}.victim_rps_over_solo", lambda r, a=a: ratio(r[a]["victim_rps"], r["solo"]["victim_rps"]), ">=", 0.8) for a in ATTACKS],
    *each("tenant_isolation", ATTACKS, "attacker_ok", lambda x: x["attacker_ok"], ">", 0),
    *each("tenant_isolation", THROTTLED, "attacker_throttle_events", lambda x: x["attacker_throttle_events"], ">", 0),
    # extent_store (DESIGN.md §16): MB extents at bandwidth, metadata tail bounded.
    ("extent_store", "bimodal.extent_kb", lambda r: r["bimodal"]["extent_kb"], ">=", 1024),
    ("extent_store", "bimodal.extent_gbps", lambda r: r["bimodal"]["extent_gbps"], ">=", 4.0),
    ("extent_store", "bimodal.meta_p99_over_solo", lambda r: ratio(r["bimodal"]["meta_p99_ns"], r["solo"]["meta_p99_ns"]), "<=", 2.0),
    *each("extent_store", ("solo", "bimodal"), "failures", lambda x: x["failures"], "==", 0),
    # fault_recovery: a clean baseline, exactly one detected lane failure, and
    # full recovery with the lane back.
    ("fault_recovery", "baseline_fail_retries_lane_failures", lambda r: r["run"]["baseline_fail"] + r["run"]["baseline_retries"] + r["run"]["baseline_client_lane_failures"], "==", 0),
    ("fault_recovery", "client_lane_failures", lambda r: r["run"]["client_lane_failures"], "==", 1),
    ("fault_recovery", "recovery_reconnect", lambda r: r["run"]["recovery"], ">=", 0.99),
    ("fault_recovery", "lane_reconnects", lambda r: r["run"]["lane_reconnects"], ">=", 1),
    ("fault_recovery", "lanes_not_healthy", lambda r: r["run"]["lanes_quarantined"] + r["run"]["lanes_reconnecting"], "==", 0),
    ("fault_recovery", "recovery_time_ns", lambda r: r["run"]["recovery_time_ns"], ">=", 0),
    # Fig. 2(a): flat through 704 QPs, then the RNIC cache knee.
    ("fig2_qp_scaling", "2a.min_over_max_mops_to_704_qps", lambda r: ratio(min(r[k]["mops"] for k in FIG2A_FLAT), max(r[k]["mops"] for k in FIG2A_FLAT)), ">=", 0.98),
    ("fig2_qp_scaling", "2a.mops_1408_over_704_qps", lambda r: ratio(r["2a/1408"]["mops"], r["2a/704"]["mops"]), "<=", 0.5),
    # Fig. 2(b): busy time is counted only up to the window end, so no CPU reading exceeds 100%.
    ("fig2_qp_scaling", "2b.max_server_cpu", lambda r: max(r[k]["server_cpu"] for k in FIG2B), "<=", 1.0),
    # Fig. 10: coalescing wins at every outstanding depth.
    *each("fig10_coalescing", FIG10, "on_over_off_mops", lambda x: ratio(x["on_mops"], x["off_mops"]), ">=", 2.0),
    # Fig. 11: sender-side thread scheduling wins at every large-payload size.
    *each("fig11_thread_sched", FIG11, "sched_on_over_off_mops", lambda x: ratio(x["sched_on_mops"], x["sched_off_mops"]), ">", 1.0),
    # Fig. 12: two threads on one QP beat two threads on two QPs at every client count.
    *[("fig12_node_scaling", f"{c}.2t1q_over_2t2q_mops", lambda r, c=c: ratio(r[f"2t1q/{c}"]["mops"], r[f"2t2q/{c}"]["mops"]), ">", 1.0) for c in FIG12_CLIENTS],
]


def row_key(row, bench):
    fields = BENCH_KEY_FIELDS.get(bench, KEY_FIELDS)
    return "/".join(str(row[f]) for f in fields if f in row) or "run"


def load(path, prefix, dumps):
    """Adds the dump's rows, keyed, under dumps[bench]; returns an error or None."""
    try:
        with open(path) as f:
            dump = json.load(f)
        bench, rows = dump["bench"], dump["rows"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return f"{path}: unreadable dump ({e!r})"
    if bench not in {g[0] for g in GATES}:
        return f"{path}: no gates for bench {bench!r}"
    keyed = dumps.setdefault(bench, {})
    for row in rows:
        key = prefix + row_key(row, bench)
        if key in keyed:
            return f"{path}: duplicate {bench} row {key!r}"
        keyed[key] = row
    return None


def evaluate(dumps):
    """Prints one line per applicable gate; returns the failed gate names."""
    failed = []
    for bench, name, fn, op, bound in GATES:
        if bench not in dumps:
            continue
        try:
            value = fn(dumps[bench])
            ok = value is None or OPS[op](value, bound)
        except KeyError as e:
            value, ok = f"missing {e}", False
        except (ArithmeticError, TypeError) as e:
            value, ok = repr(e), False
        shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else value
        print(f"{'PASS' if ok else 'FAIL'}  {bench:<18} {name:<44} {shown!s:>14} {op} {bound}")
        if not ok:
            failed.append(f"{bench}.{name}")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed dump; its rows join as baseline/<key>")
    parser.add_argument("dumps", nargs="+", help="bench --json dumps to gate")
    args = parser.parse_args(argv)

    dumps = {}
    sources = [(p, "") for p in args.dumps]
    if args.baseline:
        sources.append((args.baseline, "baseline/"))
    errors = [e for e in (load(p, prefix, dumps) for p, prefix in sources) if e]
    for e in errors:
        print(f"FAIL  {e}")
    failed = errors + evaluate(dumps)
    skipped = sorted({g[0] for g in GATES} - dumps.keys())
    if skipped:
        print(f"no dump given, gates skipped: {', '.join(skipped)}")
    if failed:
        print(f"\nFAIL: {len(failed)} gate(s): {', '.join(failed)}", file=sys.stderr)
        return 1
    print("\nOK: every gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
