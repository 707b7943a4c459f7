#!/usr/bin/env python3
"""Steadiness check: runs one workload under several seeds and reports,
per metric, the median and the quartile spread as a share of the median.

    python3 perfbench/steady.py --workload analyst --seeds 1-10 [--trace 0|1]
        [--save first.json] [--against first.json]

Every end-to-end spread, `setup_s` included, must stay below a third of
the metric's bound in BENCHMARK.json. With `--against`, each median must
also be no worse than the saved set's median by more than the bound (the
comparison of two sets of runs of the same code). In a traced run the
exact counts (`parallel.morsels.*`, `partial.frame_bytes.*`,
`stream.delta_rows`, `convert.*`) must be identical across seeds. Exits 1
when any check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_PREFIXES = ("parallel.morsels.", "partial.frame_bytes.", "stream.delta_rows",
                  "convert.archives", "convert.bytes_in")


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    if out.returncode != 0:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"run failed: seed {seed}")
    steal = next((line.split(":")[1].strip() for line in out.stdout.splitlines()
                  if line.startswith("host cpu steal")), "?")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall, steal


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int)
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    p.add_argument("--save", help="write this set's medians to a JSON file")
    p.add_argument("--against", help="compare medians with a file --save wrote")
    args, extra = p.parse_known_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    results = []
    for seed in seeds_of(args.seeds):
        result, wall, steal = run_once(args.workload, seed, seconds, args.trace, extra)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s steal={steal}", flush=True)

    ok = all(r["correct"] for r in results)
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        medians[name] = med
        if len(values) >= 2:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
        else:
            spread = 0.0
        verdict = ""
        if name.startswith(EXACT_PREFIXES):
            same = len(set(values)) == 1
            verdict = "exact ok" if same else "EXACT COUNT DIFFERS"
            ok = ok and same
        elif name in bounds:
            steady = spread < bounds[name] / 3
            verdict = f"bound {bounds[name]:.2f} " + ("ok" if steady else "TOO WIDE")
            ok = ok and steady
            if name in earlier and earlier[name]:
                change = med / earlier[name] - 1
                worse = change if lower_is_better[name] else -change
                agrees = worse <= bounds[name]
                verdict += f", {change:+.1%} vs saved " + ("ok" if agrees else "WORSE")
                ok = ok and agrees
        print(f"{name:40s} median {med:14.6g} {unit:6s} spread {spread:7.2%}  {verdict}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in values))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
