#!/usr/bin/env python3
"""Layering lint for the Flock runtime modules (DESIGN.md §11).

The mechanism modules under src/flock/ form a strict stack:

    rank 0  transport, thread      (ring-write builder + per-thread state)
    rank 1  lane                   (lane/conn/node state containers)
    rank 2  sched/receiver, sched/sender
    rank 3  combine
    rank 4  watchdog, dispatch
    rank 5  runtime                (orchestration + public facade)
    rank 6  flock, alock           (umbrella header; locks over the facade)

A module may include only strictly lower-ranked flock modules (plus its own
header and the rank-free foundation headers config/ring/wire). In particular
no mechanism module may include runtime.h — only runtime.cc and the umbrella
flock.h may. Foundation libraries (src/common, src/sim, src/fabric,
src/verbs, src/rnic, src/tenant, src/ctrl) must not include src/flock at all.

The runtime also never consults the simulator's fault injector: no file
under src/flock/ may call `fault()` (DESIGN.md §8). Failure detection has to
come from what the server can observe on the wire, so fault-free runs and
fault tests execute one program.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RANK = {
    "transport": 0,
    "thread": 0,
    "lane": 1,
    "sched/receiver": 2,
    "sched/sender": 2,
    "combine": 3,
    "watchdog": 4,
    "dispatch": 4,
    "runtime": 5,
    "flock": 6,
    # ALock builds on the public Connection memop API, so it sits above
    # runtime like the umbrella header does (flock.h does not include it:
    # one-sided locking is opt-in).
    "alock": 6,
}

# Rank-free: includable from any flock module (pure data/format headers with
# no mechanism dependencies of their own). segment.h qualifies: chunking
# arithmetic and the reassembly slab over config + wire only.
FOUNDATION = {"config", "ring", "wire", "segment"}

# Layers below flock: must not include src/flock at all.
LOWER_LAYER_DIRS = [
    "src/common",
    "src/sim",
    "src/fabric",
    "src/verbs",
    "src/rnic",
    "src/tenant",
    "src/ctrl",
]

INCLUDE_RE = re.compile(r'^\s*#include\s+"src/flock/([^"]+)"')
FAULT_ORACLE_RE = re.compile(r"\bfault\s*\(\s*\)")

# Self-check: the oracle rule must fire on the call it exists to forbid and
# stay quiet on ordinary fault-handling code.
assert FAULT_ORACLE_RE.search("if (env.cluster->fault().armed()) {")
assert not FAULT_ORACLE_RE.search("QuarantineLane(conn, lane);  // a fault")


def flock_module(rel):
    """src/flock-relative path -> module key, e.g. 'sched/receiver.h' ->
    'sched/receiver'. Returns None for non-module files."""
    stem = rel.rsplit(".", 1)[0]
    if stem in FOUNDATION:
        return "foundation"
    if stem in RANK:
        return stem
    return None


def iter_sources(root):
    for dirpath, _, names in os.walk(os.path.join(REPO, root)):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                yield os.path.join(dirpath, name)


def main():
    violations = []

    # Rule 1+2: ranked includes within src/flock.
    for path in iter_sources("src/flock"):
        rel = os.path.relpath(path, os.path.join(REPO, "src/flock"))
        module = flock_module(rel)
        if module is None:
            violations.append(f"{rel}: unknown module — add it to RANK in "
                              "scripts/check_layering.py")
            continue
        if module == "foundation":
            my_rank = -1  # foundation may only include other foundation
        else:
            my_rank = RANK[module]
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if FAULT_ORACLE_RE.search(line):
                    violations.append(
                        f"src/flock/{rel}:{lineno}: calls fault() — the "
                        "runtime must not consult the fault injector")
                m = INCLUDE_RE.match(line)
                if not m:
                    continue
                target = flock_module(m.group(1))
                if target is None:
                    violations.append(
                        f"src/flock/{rel}:{lineno}: includes unknown flock "
                        f"header {m.group(1)}")
                    continue
                if target == "foundation":
                    continue
                if target == module and rel.endswith(".cc"):
                    continue  # a .cc includes its own header
                if RANK[target] >= max(my_rank, 0):
                    violations.append(
                        f"src/flock/{rel}:{lineno}: upward include of "
                        f"{target}.h (rank {RANK[target]}) from rank "
                        f"{my_rank} module {module}")

    # Rule 3: foundation libraries never reach up into src/flock.
    for root in LOWER_LAYER_DIRS:
        if not os.path.isdir(os.path.join(REPO, root)):
            continue
        for path in iter_sources(root):
            rel = os.path.relpath(path, REPO)
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    if INCLUDE_RE.match(line):
                        violations.append(
                            f"{rel}:{lineno}: lower-layer file includes "
                            "src/flock")

    if violations:
        for v in violations:
            print(v)
        print(f"check_layering: {len(violations)} violation(s)")
        return 1
    print("check_layering: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
