#!/usr/bin/env python3
"""Tests for size_report.py on a canned source tree (no build).

Run: python3 scripts/test_size_report.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import size_report  # noqa: E402

CONFIG_H = """\
// A comment with a semicolon; and a brace { that must not count.
struct FlockConfig {
  // Maximum QPs; "fields" inside comments do not count.
  uint32_t max_active_qps = 256;
  bool coalescing = true;
  /* uint32_t commented_out = 1; */
  static constexpr int kNotAField = 3;
  Nanos rpc_timeout = 5 * kMillisecond;
  int Twice() const { return 2 * 1; }
};

struct Other {
  int not_config = 0;
};
"""

SIMULATOR_H = """\
class Simulator {
  void TouchNode(int node) {
  }
};
"""

LANE_CC = """\
void F() {
  env.sim().TouchNode(env.node);  // mutates another node
  // A comment naming TouchNode(node) is not a call.
  sim().TouchNode(1); sim().TouchNode(2);
}
void QuarantineLane(ClientLane& lane) { lane.state = ClientLaneState::kFailed; }
void MarkSenderDead(SenderState& sender) { sender.dead = true; }
"""

# Reads of the lifecycle state, and writes inside comments, are not writers.
RECEIVER_CC = """\
bool Live(const ServerLane* lane, const SenderState& s) {
  // lane->state = ServerLaneState::kActive; in a comment
  return lane->state == ServerLaneState::kActive && !s.dead;
}
"""

COMBINE_CC = """\
PendingSend* StageChunk() {
  // Only this builder calls send_pool.New( on the data path.
  PendingSend* ps = conn.client->send_pool.New();
  /* conn.client->send_pool.New(); in a block comment */
  return ps;
}
"""


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


class SizeReportTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name
        write(self.root, "src/flock/config.h", CONFIG_H)
        write(self.root, "src/flock/lane.cc", LANE_CC)
        write(self.root, "src/flock/combine.cc", COMBINE_CC)
        write(self.root, "src/flock/sched/receiver.cc", RECEIVER_CC)
        write(self.root, "src/sim/simulator.h", SIMULATOR_H)
        write(self.root, "src/common/notes.txt", "not C++\n" * 50)
        write(self.root, "bench/a.cc", "int a;\nint b;\n")
        write(self.root, "bench/CMakeLists.txt", "add_executable(a a.cc)\n")

    def tearDown(self):
        self.tmp.cleanup()

    def run_main(self, *args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = size_report.main(["--root", self.root, *args])
        return rc, out.getvalue()

    def test_counts_lines_of_cxx_files_only(self):
        lines = size_report.report(self.root)["lines"]
        flock = (CONFIG_H.count("\n") + LANE_CC.count("\n") +
                 COMBINE_CC.count("\n") + RECEIVER_CC.count("\n"))
        self.assertEqual(lines["src/flock"], flock)
        self.assertEqual(lines["src"], flock + SIMULATOR_H.count("\n"))
        self.assertEqual(lines["bench"], 2)
        self.assertEqual(lines["src/sim/simulator.h"], SIMULATOR_H.count("\n"))

    def test_config_fields_skip_comments_statics_and_methods(self):
        self.assertEqual(
            size_report.config_fields(
                os.path.join(self.root, "src/flock/config.h")),
            ["max_active_qps", "coalescing", "rpc_timeout"])

    def test_touchnode_sites_skip_comments_and_the_definition(self):
        self.assertEqual(size_report.touchnode_sites(self.root),
                         {os.path.join("src", "flock", "lane.cc"): 3})

    def test_max_config_fields_fails_only_when_exceeded(self):
        rc, out = self.run_main("--max-config-fields", "3")
        self.assertEqual(rc, 0)
        self.assertIn("FlockConfig fields", out)
        self.assertNotIn("FAIL", out)
        rc, out = self.run_main("--max-config-fields", "2")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL: FlockConfig has 3 fields", out)

    def test_send_paths_skip_comments(self):
        self.assertEqual(size_report.send_paths(self.root),
                         {os.path.join("src", "flock", "combine.cc"): 1})

    def test_max_send_paths_fails_only_when_exceeded(self):
        rc, out = self.run_main("--max-send-paths", "1")
        self.assertEqual(rc, 0)
        self.assertIn("send_pool.New( sites", out)
        self.assertNotIn("FAIL", out)
        write(self.root, "src/flock/watchdog.cc",
              "void Retry() { conn.client->send_pool.New(); }\n")
        rc, out = self.run_main("--max-send-paths", "1")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL: src/flock has 2 send_pool.New( call sites", out)

    def test_state_writers_skip_lane_cc_reads_and_comments(self):
        self.assertEqual(size_report.state_writers(self.root), {})

    def test_max_state_writers_fails_only_when_exceeded(self):
        rc, out = self.run_main("--max-state-writers", "0")
        self.assertEqual(rc, 0)
        self.assertIn("lane-state writers", out)
        self.assertNotIn("FAIL", out)
        write(self.root, "src/flock/sched/receiver.cc", RECEIVER_CC + """\
void Flip(ServerLane& lane, SenderState* s) {
  lane.state = ServerLaneState::kInactive;
  s->dead = false;
}
""")
        self.assertEqual(size_report.state_writers(self.root),
                         {os.path.join("src", "flock", "sched", "receiver.cc"): 2})
        rc, out = self.run_main("--max-state-writers", "1")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL: 2 lane/sender lifecycle-state assignments", out)
        rc, out = self.run_main("--max-state-writers", "2")
        self.assertEqual(rc, 0)

    def test_sender_death_writers_count_lane_cc_too(self):
        self.assertEqual(size_report.sender_death_writers(self.root),
                         {os.path.join("src", "flock", "lane.cc"): 1})

    def test_max_sender_death_writers_fails_only_when_exceeded(self):
        rc, out = self.run_main("--max-sender-death-writers", "1")
        self.assertEqual(rc, 0)
        self.assertIn("sender-death writers", out)
        self.assertNotIn("FAIL", out)
        # A revival inside lane.cc counts as much as one elsewhere; a lane's
        # `state` and a `dead ==` read do not count.
        write(self.root, "src/flock/lane.cc", LANE_CC + """\
void Revive(SenderState* s) { if (s->dead == true) { s->dead = false; } }
""")
        self.assertEqual(size_report.sender_death_writers(self.root),
                         {os.path.join("src", "flock", "lane.cc"): 2})
        rc, out = self.run_main("--max-sender-death-writers", "1")
        self.assertEqual(rc, 1)
        self.assertIn("FAIL: src/flock assigns a sender's dead in 2 places",
                      out)
        rc, out = self.run_main("--max-sender-death-writers", "2")
        self.assertEqual(rc, 0)

    def test_missing_config_struct_is_an_error(self):
        write(self.root, "src/flock/config.h", "struct NotIt {};\n")
        with self.assertRaises(ValueError):
            size_report.report(self.root)


if __name__ == "__main__":
    unittest.main()
