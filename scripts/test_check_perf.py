#!/usr/bin/env python3
"""Tests for the gate table in check_perf.py.

A set of small synthetic dumps passes every gate. For each table line, one
mutation pushes the values it reads just past its bound, and the run must
then fail with that gate's name. Missing dumps, rows and fields, and unknown
benches must fail too.

Run: python3 scripts/test_check_perf.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402

STORM_ROW = {"sessions": 10, "done": 10, "calls_fail": 0, "rejected_malformed": 0,
             "rejected_replay": 0, "rejected_no_endpoint": 0, "rejected_not_member": 0,
             "client_lane_failures": 0, "unexpected_server_failures": 0,
             "replay_window_entries": 5, "nonce_window": 8, "server_live_lanes": 0,
             "sender_slots": 2, "clients": 2, "lanes": 4, "server_lane_pool": 1,
             "client_lane_pool": 1, "qps_created": 17, "qps_recycled": 3,
             "fingerprint": "9", "fingerprint_rerun": "9"}
TENANT_ROW = {"victim_threads": 2, "rpcs_per_thread": 5, "victim_ok": 10, "victim_fail": 0,
              "unknown_rejects": 0, "victim_live_conns": 0, "victim_live_lanes": 0,
              "attacker_live_conns": 0, "attacker_live_lanes": 0, "fingerprint": "7",
              "fingerprint_rerun": "7", "victim_p99_ns": 1500, "victim_rps": 90.0,
              "attacker_ok": 5, "attacker_throttle_events": 1}
DEFAULT = {"config": "default", "events": 100, "rpcs": 10, "trace_hash": "111",
           "events_per_sec": 1000.0, "rpcs_per_sec": 100.0}
SCALE_SEQ = {"config": "scale_seq", "events": 200, "rpcs": 20, "trace_hash": "222",
             "wall_s": 1.0, "shards": 1, "host_cpus": 4}


def passing_dumps():
    """bench -> rows: every gate passes."""
    return {
        "baseline": [DEFAULT, SCALE_SEQ],
        "perf_smoke": [DEFAULT, SCALE_SEQ,
                       dict(SCALE_SEQ, config="scale_par", wall_s=0.4, shards=8)],
        "conn_storm": [dict(STORM_ROW, config="unbatched", ttfr_p99_ns=60000),
                       dict(STORM_ROW, config="batched", ttfr_p99_ns=20000)],
        "onesided_crossover": [
            {"path": "rpc", "payload": 64, "read_pct": 100, "mops": 1.0},
            {"path": "onesided", "payload": 64, "read_pct": 100, "mops": 3.0},
            {"path": "crossover_point", "read_pct": 100, "crossover_payload": 1024},
            {"path": "gate", "speedup_64b_100r": 3.0}],
        "tenant_isolation": [
            dict(TENANT_ROW, config="solo", victim_p99_ns=1000, victim_rps=100.0),
            dict(TENANT_ROW, config="hotloop"), dict(TENANT_ROW, config="oversized"),
            dict(TENANT_ROW, config="churn"), {"config": "open", "victim_p99_ns": 9000},
            {"row": "tenant", "tenant": 1, "rpcs": 10}],
        "extent_store": [
            {"config": "solo", "meta_p99_ns": 1000, "failures": 0},
            {"config": "bimodal", "extent_kb": 1024, "extent_gbps": 8.0,
             "meta_p99_ns": 1500, "failures": 0}],
        "fault_recovery": [
            {"recovery": 0.995, "baseline_fail": 0, "baseline_retries": 0,
             "baseline_client_lane_failures": 0, "client_lane_failures": 1,
             "lane_reconnects": 1, "lanes_quarantined": 0, "lanes_reconnecting": 0,
             "recovery_time_ns": 1000}],
        "fig2_qp_scaling": [
            *[{"figure": "2a", "qps": q, "mops": 35.7} for q in (22, 44, 88, 176, 352, 704)],
            {"figure": "2a", "qps": 1408, "mops": 11.6},
            *[{"figure": "2b", "senders": s, "mops": 9.5, "server_cpu": 1.0}
              for s in (22, 44, 88, 176, 352, 704, 1408, 2816)]],
        "fig10_coalescing": [
            *[{"sweep": "coalescing", "outstanding": o, "off_mops": 10.0, "on_mops": 25.0}
              for o in (1, 4, 8)],
            {"sweep": "bound", "bound": 1, "mops": 20.0}],
        "fig11_thread_sched": [
            {"large_threads": b, "sched_off_mops": 50.0, "sched_on_mops": 60.0}
            for b in (512, 768, 1024)],
        "fig12_node_scaling": [
            {"clients": c, "mode": m, "mops": v}
            for c in check_perf.FIG12_CLIENTS
            for m, v in (("1t1q", 30.0), ("2t1q", 55.0), ("2t2q", 50.0))],
    }


# Gate name -> edits [(bench, row key, field, value)] that push it just past
# its bound. field None deletes the row.
def per_row(bench, keys, name, field, value):
    return {f"{bench}.{k}.{name}": [(bench, k, field, value)] for k in keys}


MUTATIONS = {
    "perf_smoke.default.events_per_sec_vs_baseline": [("perf_smoke", "default", "events_per_sec", 899.0)],
    "perf_smoke.default.rpcs_per_sec_vs_baseline": [("perf_smoke", "default", "rpcs_per_sec", 89.9)],
    **{f"perf_smoke.{c}.{f}_eq_baseline": [("perf_smoke", f"baseline/{c}", f, v)]
       for c in ("default", "scale_seq") for f, v in (("events", 1), ("rpcs", 1), ("trace_hash", "1"))},
    **{f"perf_smoke.scale_par.{f}_eq_scale_seq": [("perf_smoke", "scale_par", f, v)]
       for f, v in (("events", 201), ("rpcs", 21), ("trace_hash", "223"))},
    "perf_smoke.shard_speedup_8plus_cores": [("perf_smoke", "scale_par", "host_cpus", 8),
                                             ("perf_smoke", "scale_par", "wall_s", 0.2501)],
    "perf_smoke.shard_speedup_4to7_cores": [("perf_smoke", "scale_par", "wall_s", 0.5001)],
    "perf_smoke.shard_speedup_2to3_cores": [("perf_smoke", "scale_par", "host_cpus", 2),
                                            ("perf_smoke", "scale_par", "wall_s", 0.834)],
    **per_row("conn_storm", check_perf.STORM, "sessions_not_done", "done", 9),
    **per_row("conn_storm", check_perf.STORM, "calls_fail", "calls_fail", 1),
    **per_row("conn_storm", check_perf.STORM, "ctrl_rejects", "rejected_replay", 1),
    **per_row("conn_storm", check_perf.STORM, "lane_failures", "unexpected_server_failures", 1),
    **per_row("conn_storm", check_perf.STORM, "replay_window_over_nonce_window", "replay_window_entries", 9),
    **per_row("conn_storm", check_perf.STORM, "server_live_lanes", "server_live_lanes", 1),
    **per_row("conn_storm", check_perf.STORM, "sender_slots_over_2x_clients", "sender_slots", 5),
    **per_row("conn_storm", check_perf.STORM, "lane_pools_over_clients_x_lanes", "client_lane_pool", 9),
    **per_row("conn_storm", check_perf.STORM, "qps_recycled", "qps_recycled", 0),
    **per_row("conn_storm", check_perf.STORM, "fingerprint_eq_rerun", "fingerprint_rerun", "10"),
    **per_row("conn_storm", check_perf.STORM, "qps_built_minus_2x_sessions", "qps_created", 18),
    "conn_storm.batched.ttfr_p99_us": [("conn_storm", "batched", "ttfr_p99_ns", 50001)],
    "onesided_crossover.cells": [("onesided_crossover", "rpc/64/100", None, None),
                                 ("onesided_crossover", "onesided/64/100", None, None)],
    "onesided_crossover.cells_missing_a_path": [("onesided_crossover", "onesided/64/100", None, None)],
    "onesided_crossover.gate.speedup_64b_100r": [("onesided_crossover", "gate", "speedup_64b_100r", 1.499)],
    **per_row("tenant_isolation", check_perf.PROFILES, "victim_ok_short", "victim_ok", 9),
    **per_row("tenant_isolation", check_perf.PROFILES, "victim_fail", "victim_fail", 1),
    **per_row("tenant_isolation", check_perf.PROFILES, "unknown_rejects", "unknown_rejects", 1),
    **per_row("tenant_isolation", check_perf.PROFILES, "live_conns_and_lanes", "attacker_live_lanes", 1),
    **per_row("tenant_isolation", check_perf.PROFILES, "fingerprint_eq_rerun", "fingerprint_rerun", "8"),
    **per_row("tenant_isolation", check_perf.ATTACKS, "victim_p99_over_solo", "victim_p99_ns", 2001),
    **per_row("tenant_isolation", check_perf.ATTACKS, "victim_rps_over_solo", "victim_rps", 79.9),
    **per_row("tenant_isolation", check_perf.ATTACKS, "attacker_ok", "attacker_ok", 0),
    **per_row("tenant_isolation", check_perf.THROTTLED, "attacker_throttle_events", "attacker_throttle_events", 0),
    "extent_store.bimodal.extent_kb": [("extent_store", "bimodal", "extent_kb", 1023)],
    "extent_store.bimodal.extent_gbps": [("extent_store", "bimodal", "extent_gbps", 3.99)],
    "extent_store.bimodal.meta_p99_over_solo": [("extent_store", "bimodal", "meta_p99_ns", 2001)],
    **per_row("extent_store", ("solo", "bimodal"), "failures", "failures", 1),
    "fault_recovery.baseline_fail_retries_lane_failures": [("fault_recovery", "run", "baseline_retries", 1)],
    "fault_recovery.client_lane_failures": [("fault_recovery", "run", "client_lane_failures", 2)],
    "fault_recovery.recovery_reconnect": [("fault_recovery", "run", "recovery", 0.989)],
    "fault_recovery.lane_reconnects": [("fault_recovery", "run", "lane_reconnects", 0)],
    "fault_recovery.lanes_not_healthy": [("fault_recovery", "run", "lanes_quarantined", 1)],
    "fault_recovery.recovery_time_ns": [("fault_recovery", "run", "recovery_time_ns", -1)],
    "fig2_qp_scaling.2a.min_over_max_mops_to_704_qps": [("fig2_qp_scaling", "2a/22", "mops", 34.9)],
    "fig2_qp_scaling.2a.mops_1408_over_704_qps": [("fig2_qp_scaling", "2a/1408", "mops", 17.86)],
    "fig2_qp_scaling.2b.max_server_cpu": [("fig2_qp_scaling", "2b/1408", "server_cpu", 1.0001)],
    **per_row("fig10_coalescing", check_perf.FIG10, "on_over_off_mops", "on_mops", 19.99),
    **per_row("fig11_thread_sched", check_perf.FIG11, "sched_on_over_off_mops", "sched_on_mops", 50.0),
    **{f"fig12_node_scaling.{c}.2t1q_over_2t2q_mops": [("fig12_node_scaling", f"2t1q/{c}", "mops", 50.0)]
       for c in check_perf.FIG12_CLIENTS},
}


def run_quietly(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return fn(*args), out.getvalue()


class GateTableTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.paths = {}
        for bench, rows in passing_dumps().items():
            self.paths[bench] = self.write(bench, {"bench": "perf_smoke" if bench == "baseline" else bench,
                                                   "rows": rows})

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, f"{name}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def argv(self, *skip):
        dumps = [p for b, p in self.paths.items() if b != "baseline" and b not in skip]
        return ["--baseline", self.paths["baseline"], *dumps]

    def keyed(self):
        dumps = {}
        for path, prefix in [(p, "baseline/" if b == "baseline" else "") for b, p in self.paths.items()]:
            self.assertIsNone(check_perf.load(path, prefix, dumps))
        return dumps

    def test_fixture_passes_every_gate(self):
        failed, _ = run_quietly(check_perf.evaluate, self.keyed())
        self.assertEqual(failed, [])
        rc, _ = run_quietly(check_perf.main, self.argv())
        self.assertEqual(rc, 0)

    def test_every_gate_has_a_mutation(self):
        names = [f"{g[0]}.{g[1]}" for g in check_perf.GATES]
        self.assertEqual(len(names), len(set(names)), "gate names must be unique")
        self.assertEqual(set(names), set(MUTATIONS))

    def test_each_gate_fails_just_past_its_bound(self):
        base = self.keyed()
        for gate, edits in MUTATIONS.items():
            with self.subTest(gate=gate):
                dumps = copy.deepcopy(base)
                for bench, key, field, value in edits:
                    if field is None:
                        del dumps[bench][key]
                    else:
                        dumps[bench][key][field] = value
                failed, _ = run_quietly(check_perf.evaluate, dumps)
                self.assertIn(gate, failed)

    def test_missing_dump_fails(self):
        rc, out = run_quietly(check_perf.main, self.argv() + [os.path.join(self.tmp.name, "nope.json")])
        self.assertEqual(rc, 1)
        self.assertIn("unreadable dump", out)

    def test_missing_baseline_fails(self):
        rc, out = run_quietly(check_perf.main, self.argv()[2:])
        self.assertEqual(rc, 1)
        self.assertIn("perf_smoke.default.trace_hash_eq_baseline", out)

    def test_missing_row_fails(self):
        rows = [r for r in passing_dumps()["tenant_isolation"] if r.get("config") != "churn"]
        self.paths["tenant_isolation"] = self.write("ti", {"bench": "tenant_isolation", "rows": rows})
        rc, out = run_quietly(check_perf.main, self.argv())
        self.assertEqual(rc, 1)
        self.assertIn("tenant_isolation.churn.victim_fail", out)

    def test_missing_field_fails(self):
        rows = passing_dumps()["conn_storm"]
        del rows[0]["nonce_window"]
        self.paths["conn_storm"] = self.write("cs", {"bench": "conn_storm", "rows": rows})
        rc, out = run_quietly(check_perf.main, self.argv())
        self.assertEqual(rc, 1)
        self.assertIn("missing 'nonce_window'", out)

    def test_unknown_bench_fails(self):
        self.paths["fig99"] = self.write("fig99", {"bench": "fig99", "rows": [{"mops": 1.0}]})
        rc, out = run_quietly(check_perf.main, self.argv())
        self.assertEqual(rc, 1)
        self.assertIn("no gates for bench 'fig99'", out)

    def test_dumps_not_given_skip_their_gates(self):
        rc, out = run_quietly(check_perf.main, [self.paths["conn_storm"]])
        self.assertEqual(rc, 0)
        self.assertNotIn("PASS  perf_smoke", out)
        self.assertIn("gates skipped: extent_store", out)


if __name__ == "__main__":
    unittest.main()
