#!/usr/bin/env python3
"""Live commit-latency benchmark: add -> f+1 epoch-proofs (see NOTES.md).

    python3 commitbench/run.py --workload hashchain --seed 1 --seconds 10 --trace 0
    python3 commitbench/run.py --report [--seed 1] [--seconds 10]
    python3 commitbench/run.py --self-check

Run from the repository root. The first call configures and builds the
commitbench CMake package (the repository's src/ plus the harness) into
.bench_build/commitbench; later calls only rebuild what changed. A single
run prints commit_bench's result object as the last line of stdout.
--report runs every workload untraced and traced, prints every metric by
name with its unit, the tracing overhead and the stage-sum check, and exits
non-zero if any run fails its correctness gate.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build", "commitbench")
WORKLOADS = ["hashchain", "vanilla", "compresschain-reads"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "node_host.hpp")):
        log("commitbench: the Setchain sources (src/) are missing")
        sys.exit(2)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("commitbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD, "commit_bench")


def run_once(binary, workload, seed, seconds, trace):
    """One commit_bench run: (its result line, the parsed object)."""
    data = os.path.join(BUILD, "data")
    shutil.rmtree(data, ignore_errors=True)  # left behind only by a killed run
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-root", data, "--trace-dir", BUILD]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("commitbench: run exceeded %d s" % RUN_TIMEOUT_S)
        sys.exit(2)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        log("commitbench: %s run failed (exit %d)" % (workload, r.returncode))
        sys.exit(r.returncode or 2)
    return lines[-1], json.loads(lines[-1])


def report(binary, seed, seconds):
    for w in WORKLOADS:
        _, plain = run_once(binary, w, seed, seconds, 0)
        _, traced = run_once(binary, w, seed, seconds, 1)
        print("== %s (seed %d, %d s): attempted %d, failed %d, fail_frac %.6f" % (
            w, seed, seconds, plain["attempted"], plain["failed"],
            plain["failed"] / plain["attempted"]))
        for run in (plain, traced):
            for name, m in run["metrics"].items():
                print("  %-34s %14.6f %s" % (name, m["value"], m["unit"]))
        e2e, tm = plain["metrics"], traced["metrics"]
        for base, key in (("commit_p50_ms", "trace.commit_p50_ms"),
                          ("cpu_ms_per_kelem", "trace.cpu_ms_per_kelem")):
            delta = tm[key]["value"] - e2e[base]["value"]
            print("  tracing overhead %-17s %+14.6f %s (%+.1f%%)" % (
                base, delta, e2e[base]["unit"], 100.0 * delta / e2e[base]["value"]))
        ratio = tm["stage.sum_over_commit"]["value"]
        print("  stage sum / commit_p50 (traced)    %14.6f %s" % (
            ratio, "within 10%" if abs(ratio - 1.0) <= 0.10 else "OUTSIDE 10%"))
        sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (args.report or args.self_check or args.workload):
        ap.error("one of --workload, --report, --self-check is required")

    binary = build()
    if args.self_check:
        sys.exit(subprocess.run(["ctest", "--test-dir", BUILD, "--output-on-failure"],
                                stdout=sys.stderr, stderr=sys.stderr).returncode)
    if args.report:
        report(binary, args.seed, args.seconds)
        return
    line, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    print(line, flush=True)


if __name__ == "__main__":
    main()
