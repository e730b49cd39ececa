#!/usr/bin/env python3
"""Repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
harness (perfbench/CMakeLists.txt, an optimized build of the checkout's
src/) into .bench_build/perfbench; later runs reuse it. The harness
generates every input from --seed, measures for --seconds, audits every
op's history for linearizability, and reports. This script prints two
lines on stdout:

  1. the full record: metrics, run details (audit, sample counts, what is
     not measured on this workload) and the host it ran on;
  2. last, the summary object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end table, with --trace 1 the
per-layer table (perfbench/README.md lists both). A traced run also
writes its spans to .bench_build/traces/<workload>-<seed>.json.

Exit status is 0 only when a result was printed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                # Leave nothing half-configured behind for the next run.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(BUILD), "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def source_digest():
    """Commit id when the checkout is a git repository, else a digest of
    the sources the benchmark builds (so like code gets a like id)."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler_id():
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        trace_file = TRACES / f"{args.workload}-{args.seed}.json"
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness exited with {proc.returncode}")
        return 1
    record = json.loads(lines[-1])

    record["host"] = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler_id() + " " + record["info"].get("compiler", ""),
        "build_type": record["info"].get("build_type", "unknown"),
        "commit": source_digest(),
    }
    if trace_file is not None:
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(record))
    summary = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
