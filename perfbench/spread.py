#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json on each workload, --runs times per
set, and prints for every end-to-end metric and set its median over the
runs and the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the
metric's bound. Run i of every set uses seed first-seed + i (or
first-seed throughout with --same-seed, which leaves out input
variation). With --sets 2 the runs of the two sets alternate, so that a
drift of the host falls on both alike, and each later set's median is
compared with the first set's in the metric's worse direction. Before
each run a fixed pure-CPU loop is timed; its spread over the set shows
how far the host itself drifted meanwhile.

    python3 perfbench/spread.py [--runs 10] [--sets 1] [--first-seed 1]
                                [--same-seed] [workload ...]

Run it from the root of the repository. The exit status is 1 when a
run fails, when a spread other than setup_s's exceeds a third of its
bound, or when a later set's median is worse than the first set's by
more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def host_probe_ms():
    """Median of five timings of a fixed pure-Python integer loop."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def spread(values):
    """(median, interquartile range as a share of the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, ((q3 - q1) / med if med else 0.0)


def run_once(bench, name, seed, seconds):
    cmd = bench["command"] + [
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.time()
    run = subprocess.run(cmd, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"{name} seed {seed}: exit {run.returncode}\n{run.stderr}")
        return None, time.time() - t0
    return json.loads(lines[-1]), time.time() - t0


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = [{m: [] for m in metrics} for _ in range(args.sets)]
        probes = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            for k in range(args.sets):
                probes[k].append(host_probe_ms())
                result, secs = run_once(bench, name, seed, args.seconds)
                if result is None:
                    ok = False
                    continue
                ok &= result["correct"]
                for m in metrics:
                    values[k][m].append(result["metrics"][m]["value"])
                print(f"{name} set {k + 1} seed {seed}: {secs:.1f} s "
                      f"host_probe_ms={probes[k][-1]:.3f} "
                      + " ".join(f"{m}={values[k][m][-1]:.6g}" for m in metrics),
                      flush=True)
        first = {}
        for k, per_set in enumerate(values):
            if len(probes[k]) >= 2:
                med, host = spread(probes[k])
                print(f"  {name:<14} set {k + 1} {'host probe':<18} median {med:<12.6g}"
                      f" spread {host:6.2%}  (the host's own drift)")
            for m, vs in per_set.items():
                if len(vs) < 2:
                    continue
                med, sp = spread(vs)
                bound = metrics[m]["bound"]
                steady = sp <= bound / 3
                if m != "setup_s":
                    ok &= steady
                line = (f"  {name:<14} set {k + 1} {m:<18} median {med:<12.6g}"
                        f" spread {sp:6.2%}  bound {bound:.0%}"
                        f"  {'ok' if steady else 'NOISY'}")
                if k == 0:
                    first[m] = med
                elif first.get(m):
                    change = (med - first[m]) / first[m]
                    worse = -change if metrics[m]["better"] == "higher" else change
                    agree = worse <= bound
                    ok &= agree
                    line += f"  worse than set 1 by {worse:+.2%}" + ("" if agree else "  OUT")
                print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
