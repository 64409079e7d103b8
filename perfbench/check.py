#!/usr/bin/env python3
"""Steadiness and sensitivity checks for the benchmark.

Run from the repository root.

  python3 perfbench/check.py steady [--workloads W ...] [--seeds 101-110]
      Runs every workload once per seed (untraced) and, per end-to-end metric,
      prints the median and the spread: (Q3 - Q1) / median, with Q1 and Q3 from
      statistics.quantiles(values, n=4).  A spread must stay within the metric's
      bound (setup_s excepted); the target is a third of it.  --save FILE keeps
      the values, and --compare FILE checks that no median got worse than the
      saved one by more than its bound.

  python3 perfbench/check.py sensitivity [--seeds 1-10] [--slowdown 0.10]
      Calibrates on ingest_1t, then runs it once per seed with and once
      without a busy-wait in qcbench after every Updater::update(span) call,
      sized to --slowdown of the measured time per call, alternating which
      runs first.  Reports whether the median update_mops dropped by more
      than its bound, and whether the drop passes the paired rule: at least
      9 in 10 pairs slower and a median gap wider than the baseline's
      quartile spread.  The busy-wait lives in qcbench only, never in engine
      code.

Exits 1 if a check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPAN_ITEMS = 1024  # items per update(span) call in qcbench.cpp


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, inject_ns=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if inject_ns:
        cmd += ["--inject-ns", str(inject_ns)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"check: {workload} seed {seed} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"check: {workload} seed {seed} reported failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, new, old):
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def steady(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    saved = {}
    if args.compare:
        with open(args.compare) as f:
            saved = json.load(f)
    ok = True
    values = {}
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run(workload, seed, seconds))
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.4g}" for k, v in sorted(runs[-1].items())), flush=True)
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            s = spread(vals)
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            if name != "setup_s" and s > bound:
                ok = False
            line = (f"  {workload:10s} {name:14s} median {statistics.median(vals):12.5g}"
                    f"  spread {s:6.3f}  bound {bound:.3f}  {verdict}")
            if workload in saved:
                old = statistics.median(saved[workload][name])
                w = worse_by(metric, statistics.median(vals), old)
                line += f"  vs saved {w:+.3f}"
                if w > bound:
                    ok = False
                    line += " WORSE"
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return ok


def sensitivity(args):
    spec = load_spec()
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "update_mops")
    seconds = args.seconds or spec["run_seconds"]
    seeds = seed_list(args.seeds)
    calib = statistics.median(run("ingest_1t", s, seconds)["update_mops"] for s in seeds[:3])
    # One call moves SPAN_ITEMS items at 1e3 / calib ns per item.
    inject_ns = int(args.slowdown * SPAN_ITEMS * 1e3 / calib)
    base, slow = [], []
    for i, seed in enumerate(seeds):  # pairs, alternating which side runs first
        for side in ((base, 0), (slow, inject_ns))[:: 1 if i % 2 == 0 else -1]:
            side[0].append(run("ingest_1t", seed, seconds, side[1])["update_mops"])
        print(f"seed {seed}: base {base[-1]:.3f} slowed {slow[-1]:.3f}", flush=True)
    base_med, slow_med = statistics.median(base), statistics.median(slow)
    drop = 1 - slow_med / base_med
    wins = sum(b > s for b, s in zip(base, slow))
    q1, _, q3 = statistics.quantiles(base, n=4)
    by_bound = drop > bound
    by_pairs = wins >= 0.9 * len(seeds) and base_med - slow_med > q3 - q1
    print(f"ingest_1t update_mops with {inject_ns} ns busy-wait per call "
          f"({args.slowdown:.0%} of a call): median {base_med:.3f} -> {slow_med:.3f}, "
          f"drop {drop:.3f}; beyond the bound {bound:.3f}: {'yes' if by_bound else 'no'}; "
          f"paired rule ({wins}/{len(seeds)} pairs slower, gap vs base IQR {q3 - q1:.3f}): "
          f"{'flagged' if by_pairs else 'not flagged'}")
    return by_bound or by_pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady")
    st.add_argument("--workloads", nargs="*")
    st.add_argument("--seeds", default="101-110")
    st.add_argument("--seconds", type=int, default=0)
    st.add_argument("--save")
    st.add_argument("--compare")
    se = sub.add_parser("sensitivity")
    se.add_argument("--seeds", default="1-10")
    se.add_argument("--seconds", type=int, default=0)
    se.add_argument("--slowdown", type=float, default=0.10)
    args = ap.parse_args()
    ok = steady(args) if args.cmd == "steady" else sensitivity(args)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
