#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload briefly (SECONDS each),
untraced and traced, through perfbench/run.py and checks that:

  * the last stdout line is the summary object with exactly the keys
    correct/attempted/failed/metrics;
  * an untraced run reports every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric;
  * the audit passed on every workload that is expected never to fail;
  * a traced run's span file parses and holds op and session.submit spans,
    and on the simulator the per-op counts repeated between the untraced
    and traced phases;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, run.py fails without printing a result.

Exit status 0 when every check passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sim-pipeline", "sim-bulk", "tcp-saturate", "tcp-sharded",
             "tcp-open", "tcp-leader-crash"]
# Expected to fail ops in some runs (perfbench/README.md, defect a).
MAY_FAIL = {"tcp-leader-crash"}
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}
# Measured seconds per run.
SECONDS = 2


def run(cwd, workload, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_metrics(got, expected, label, errors):
    for m in expected:
        entry = got.get(m["name"])
        if entry is None:
            errors.append(f"{label}: missing metric {m['name']}")
        elif entry.get("unit") != m["unit"]:
            errors.append(f"{label}: {m['name']} has unit {entry.get('unit')}, "
                          f"want {m['unit']}")
        elif not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {m['name']} is not a number")


def check_run(workload, trace, seconds, bench, errors):
    label = f"{workload} trace={trace}"
    proc = run(ROOT, workload, seconds, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
        return
    summary, record = json.loads(lines[-1]), json.loads(lines[-2])
    if set(summary) != SUMMARY_KEYS:
        errors.append(f"{label}: summary keys {sorted(summary)}")
    if not isinstance(summary.get("attempted"), int) or summary["attempted"] < 1:
        errors.append(f"{label}: attempted {summary.get('attempted')}")
    if workload not in MAY_FAIL and (not summary["correct"] or summary["failed"]):
        errors.append(f"{label}: correct={summary['correct']} "
                      f"failed={summary['failed']}")
    for key in ("nproc", "cpu_model", "compiler", "build_type", "commit"):
        if key not in record.get("host", {}):
            errors.append(f"{label}: host record lacks {key}")
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    check_metrics(summary["metrics"], expected, label, errors)
    if workload == "tcp-leader-crash" and not trace:
        check_metrics(summary["metrics"],
                      [{"name": "unavailable_ms", "unit": "ms"}], label, errors)
    if not trace:
        return
    if workload.startswith("sim") and record["info"].get("counts_repeat") is not True:
        errors.append(f"{label}: per-op counts differ between phases")
    try:
        spans = json.loads((ROOT / record["trace_file"]).read_text())["traceEvents"]
        names = {s["name"] for s in spans}
        for want in ("op", "session.submit"):
            if want not in names:
                errors.append(f"{label}: no {want} span in the trace file")
    except (KeyError, OSError, ValueError) as e:
        errors.append(f"{label}: trace file unreadable: {e}")


def check_bare_directory(errors):
    """run.py must fail, printing no result, without the repository."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, WORKLOADS[0], 1, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("bare directory: run.py printed a result or exited 0")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, SECONDS, bench, errors)
            print(f"selftest: {workload} trace={trace} done", file=sys.stderr)
    check_bare_directory(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
