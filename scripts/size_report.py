#!/usr/bin/env python3
"""Design-size report: the numbers ROADMAP.md's "same behaviour from less"
aim is measured by.

  - lines of C++ (*.h and *.cc files) under src/, src/flock and bench/, and
    the lines of src/sim/simulator.h;
  - the number of FlockConfig fields (src/flock/config.h): every field is an
    independently settable knob the tests and benches must cover;
  - the Simulator::TouchNode call sites under src/ (each marks code that
    mutates another node's state from inside an event);
  - the send_pool.New( call sites under src/flock: each is a distinct path
    that stages a request for the wire (DESIGN.md §16 has one, the chunk
    builder);
  - the assignments to a lane's or a sender's lifecycle state (a `state` or
    `dead` member) under src/flock outside src/flock/lane.cc: every change
    of state is a named transition in lane.cc (DESIGN.md §10), which the
    other modules call;
  - the assignments to a sender's `dead` anywhere under src/flock, lane.cc
    included: a sender has one death, TearDownOneSender, and nothing
    revives it (DESIGN.md §10).

Usage: python3 scripts/size_report.py [--root DIR] [--max-config-fields N]
                                      [--max-send-paths N]
                                      [--max-state-writers N]
                                      [--max-sender-death-writers N]

With --max-config-fields, exits 1 if FlockConfig has more than N fields, so
CI fails when a change adds a knob. With --max-send-paths, exits 1 if there
are more than N send_pool.New( call sites, so CI fails when a change adds a
second way to stage a request. With --max-state-writers, exits 1 if more
than N lifecycle-state assignments sit outside lane.cc. With
--max-sender-death-writers, exits 1 if src/flock assigns a sender's `dead`
in more than N places, so CI fails when a second death or a revival path
appears.
"""

import argparse
import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINE_DIRS = ["src", "src/flock", "bench"]
SIMULATOR_H = "src/sim/simulator.h"
CONFIG_H = "src/flock/config.h"
LANE_CC = os.path.join("src", "flock", "lane.cc")


def cxx_files(root, rel):
    for dirpath, _, names in os.walk(os.path.join(root, rel)):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                yield os.path.join(dirpath, name)


def count_lines(path):
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def config_fields(path):
    """Names of the data members of `struct FlockConfig` (no methods, no
    static or using declarations)."""
    with open(path, encoding="utf-8") as f:
        text = strip_comments(f.read())
    start = re.search(r"\bstruct\s+FlockConfig\s*\{", text)
    if start is None:
        raise ValueError(f"{path}: no struct FlockConfig")
    depth = 1
    statement = ""
    fields = []
    for ch in text[start.end():]:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                break
            if depth == 1:
                statement = ""  # an in-class function body ended
        elif ch == ";" and depth == 1:
            decl = statement.split("=")[0].strip()
            statement = ""
            if decl and "(" not in decl and not re.match(
                    r"(static|using|friend)\b", decl):
                fields.append(re.findall(r"\w+", decl)[-1])
        elif depth == 1:
            statement += ch
    return fields


def call_sites(root, rel, pattern):
    """{relative path: count} of `pattern` matches in the C++ files under
    `rel`, comments excluded."""
    sites = {}
    for path in cxx_files(root, rel):
        with open(path, encoding="utf-8") as f:
            text = strip_comments(f.read())
        calls = len(re.findall(pattern, text))
        if calls:
            sites[os.path.relpath(path, root)] = calls
    return sites


def touchnode_sites(root):
    """{relative path: call count} for TouchNode calls under src/ (comments
    and the definition itself excluded)."""
    return call_sites(root, "src", r"(?<!void )\bTouchNode\(")


def send_paths(root):
    """{relative path: call count} for send_pool.New( calls under src/flock
    (comments excluded)."""
    return call_sites(root, "src/flock", r"\bsend_pool\.New\(")


def state_writers(root):
    """{relative path: count} of assignments to a `state` or `dead` member
    (`x.state = ...`, `x->dead = ...`; not `==`) in the C++ files under
    src/flock other than lane.cc, comments excluded."""
    sites = call_sites(root, "src/flock", r"(?:\.|->)\s*(?:state|dead)\s*=(?!=)")
    sites.pop(LANE_CC, None)
    return sites


def sender_death_writers(root):
    """{relative path: count} of assignments to a `dead` member in the C++
    files under src/flock, lane.cc included, comments excluded."""
    return call_sites(root, "src/flock", r"(?:\.|->)\s*dead\s*=(?!=)")


def report(root):
    lines = {rel: sum(count_lines(p) for p in cxx_files(root, rel))
             for rel in LINE_DIRS}
    lines[SIMULATOR_H] = count_lines(os.path.join(root, SIMULATOR_H))
    return {
        "lines": lines,
        "config_fields": config_fields(os.path.join(root, CONFIG_H)),
        "touchnode_sites": touchnode_sites(root),
        "send_paths": send_paths(root),
        "state_writers": state_writers(root),
        "sender_death_writers": sender_death_writers(root),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=REPO, help="repository root")
    parser.add_argument("--max-config-fields", type=int, default=None,
                        help="fail if FlockConfig has more fields than this")
    parser.add_argument("--max-send-paths", type=int, default=None,
                        help="fail if src/flock has more send_pool.New( call "
                             "sites than this")
    parser.add_argument("--max-state-writers", type=int, default=None,
                        help="fail if more lane/sender lifecycle-state "
                             "assignments than this sit outside lane.cc")
    parser.add_argument("--max-sender-death-writers", type=int, default=None,
                        help="fail if src/flock assigns a sender's `dead` in "
                             "more places than this")
    args = parser.parse_args(argv)

    r = report(args.root)
    for rel, n in r["lines"].items():
        print(f"lines {rel:<22} {n:>6}")
    fields = r["config_fields"]
    print(f"FlockConfig fields {len(fields):>13}  ({', '.join(fields)})")
    for label, key in (("TouchNode call sites", "touchnode_sites"),
                       ("send_pool.New( sites", "send_paths"),
                       ("lane-state writers", "state_writers"),
                       ("sender-death writers", "sender_death_writers")):
        sites = r[key]
        detail = ", ".join(f"{p} {n}" for p, n in sorted(sites.items()))
        print(f"{label:<20} {sum(sites.values()):>11}  ({detail})")

    rc = 0
    if args.max_config_fields is not None and len(fields) > args.max_config_fields:
        print(f"FAIL: FlockConfig has {len(fields)} fields, more than "
              f"--max-config-fields {args.max_config_fields}")
        rc = 1
    paths = sum(r["send_paths"].values())
    if args.max_send_paths is not None and paths > args.max_send_paths:
        print(f"FAIL: src/flock has {paths} send_pool.New( call sites, more "
              f"than --max-send-paths {args.max_send_paths}")
        rc = 1
    writers = sum(r["state_writers"].values())
    if args.max_state_writers is not None and writers > args.max_state_writers:
        print(f"FAIL: {writers} lane/sender lifecycle-state assignments "
              f"outside {LANE_CC}, more than --max-state-writers "
              f"{args.max_state_writers}")
        rc = 1
    deaths = sum(r["sender_death_writers"].values())
    if (args.max_sender_death_writers is not None and
            deaths > args.max_sender_death_writers):
        print(f"FAIL: src/flock assigns a sender's dead in {deaths} places, "
              f"more than --max-sender-death-writers "
              f"{args.max_sender_death_writers}")
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
