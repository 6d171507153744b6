#!/usr/bin/env python3
"""Benchmark for deltacolor: time to a verified Delta-coloring.

Builds perfbench/ (the library from src/ plus the deltabench program) into
.bench_build/, then runs workloads, each in its own process, so that a
workload that aborts counts all its attempts as failed without taking the
others down with it.

  python3 perfbench/run.py --workload det-hard --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --seed 1            # every workload, both modes
  python3 perfbench/run.py --smoke             # tiny instances, checks only

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics (and writes a Chrome
trace-event file under .bench_build/work/). See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["det-hard", "rand-mixed", "trial-wide"]
# One workload process must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds deltabench; returns its path or exits 2."""
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", cmake_dir, "-j", jobs,
              "--target", "deltabench"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"run.py: cannot run {cmd[0]}: {e}")
            sys.exit(2)
        if done.returncode != 0:
            log(f"run.py: build failed: {' '.join(cmd)}")
            sys.exit(2)
    return os.path.join(cmake_dir, "deltabench")


def git_commit():
    """HEAD's commit read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """Runs one workload process; returns its result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD, "work"), "--commit", git_commit()]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        out, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        code = "timeout"
    lines = out.splitlines()
    result = None
    if code == 0 and lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        print(line, flush=True)
    if result is None:
        attempted = 1
        for line in lines:
            if line.startswith("progress attempted="):
                attempted = max(attempted, int(line.split("=")[1]))
        log(f"run.py: {workload} ended with {code}; "
            f"counting its {attempted} attempts as failed")
        result = {"correct": False, "attempted": attempted,
                  "failed": attempted, "metrics": {}}
    return result


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; "
                         "default: both")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instances, 1 s per run; fails if a metric "
                         "of BENCHMARK.json is missing or a coloring fails")
    args = ap.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    seconds = 1 if args.smoke else args.seconds

    results = {}
    for w in workloads:
        for t in traces:
            r = run_workload(binary, w, args.seed, seconds, t, args.smoke)
            results[(w, t)] = r
            if len(workloads) * len(traces) > 1:
                print(f"result {w} trace={t} {json.dumps(r)}", flush=True)

    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    if args.smoke:
        for (w, t), r in results.items():
            missing = [m for m in expected_metrics(t) if m not in r["metrics"]]
            if missing:
                log(f"smoke: {w} trace={t} lacks metrics {missing}")
                ok = False
        log("smoke: " + ("ok" if ok else "FAILED"))

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": ok,
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": v
                             for (w, t), r in results.items()
                             for name, v in r["metrics"].items()}}
    print(json.dumps(final), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
