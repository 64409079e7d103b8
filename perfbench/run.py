#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_1t --seed 1 --seconds 10 --trace 0

Builds perfbench/qcbench.cpp against ../include into .bench_build (Release),
runs it, prints a machine fingerprint and the run's details, and ends with one
JSON line holding exactly "correct", "attempted", "failed" and "metrics".
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The full record, fingerprint included, is also written to
.bench_build/results/.  Exits non-zero without a result line if the engine
sources are missing or the build or run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "qcbench")
WORKLOADS = ("ingest_1t", "ingest_mt", "mixed", "query_idle")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "include", "qc", "core", "quancurrent.hpp")):
        fail("engine headers (include/qc) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def source_id():
    """git SHA when available, else a hash of the engine and benchmark sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("include", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-ns", type=int, default=0,
                    help="busy-wait per update(span) call; sensitivity check only")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    build()
    built = time.monotonic() - started
    # A run normally ends well within 180 s; the first run of a checkout may
    # also spend up to ~15 minutes building.
    budget = 170 - built if built < 60 else 880 - built
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--inject-ns", str(args.inject_ns)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(budget, 30))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if done.returncode != 0:
        fail(f"qcbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("qcbench printed no result")
    record = json.loads(lines[-1])

    missing = expected_metrics(args.trace) - set(record["metrics"])
    if missing:
        fail(f"qcbench did not report {sorted(missing)}")
    info = record.pop("info")
    info["source"] = source_id()
    info["build_seconds"] = round(built, 3)
    fingerprint = {key: info[key] for key in
                   ("cpu", "nproc", "compiler", "flags", "source", "seed", "workload", "trace")}
    print("fingerprint: " + json.dumps(fingerprint))
    print("details: " + json.dumps({k: v for k, v in info.items() if k not in fingerprint}))
    for name, metric in sorted(record["metrics"].items()):
        print(f"  {name:36s} {metric['value']:>16.6f} {metric['unit']}")

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    out = os.path.join(BUILD, "results",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(dict(record, info=info), f, indent=1)

    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
