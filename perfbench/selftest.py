#!/usr/bin/env python3
"""Self-test of the benchmark on the `tiny` preset (about a minute).

    python3 perfbench/selftest.py

Checks that every run prints each metric BENCHMARK.json names, with its
unit (end-to-end metrics untraced, per-layer metrics traced); that the
checker rejects a corrupted reply; and that a traced run writes its spans
when it ends. Every failure is printed and the test goes on; it exits 1
when there was any.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--preset", "tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-2000:]}")
        return None, None
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def fail(msg):
    print(f"FAIL {msg}", flush=True)
    FAILURES.append(msg)


def expect_metrics(stdout, result, declared, label):
    got = result["metrics"]
    if set(got) != set(declared):
        fail(f"{label}: metrics {sorted(set(got) ^ set(declared))} differ from BENCHMARK.json")
    for name, unit in declared.items():
        if name not in got:
            continue
        if got[name]["unit"] != unit:
            fail(f"{label}: {name} has unit {got[name]['unit']}, expected {unit}")
        if f"metric {name} " not in stdout:
            fail(f"{label}: {name} not printed by name")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    # `dashboard` and `live_ingest` are not gated by BENCHMARK.json (see
    # README.md) but stay runnable, so they are tested too.
    names = ["dashboard", "live_ingest"] + [w["name"] for w in bench["workloads"]]
    for w in dict.fromkeys(names):
        before = len(FAILURES)
        stdout, result = run(w, 0)
        if result is not None:
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                checks = [line for line in stdout.splitlines() if line.startswith("check")]
                fail(f"{w}: untraced run not correct: failed={result['failed']}\n  "
                     + "\n  ".join(checks))
            expect_metrics(stdout, result, end_to_end, f"{w} untraced")

        spans = os.path.join(ROOT, ".bench_build", "work", w, "trace", "serve_trace.json")
        stdout, result = run(w, 1)
        if result is not None:
            if not result["correct"]:
                fail(f"{w}: traced run not correct: failed={result['failed']}")
            expect_metrics(stdout, result, per_layer, f"{w} traced")
            events = []
            if os.path.exists(spans):
                with open(spans) as f:
                    events = json.load(f).get("traceEvents", [])
            if not events:
                fail(f"{w}: traced run wrote no spans to {spans}")
        if len(FAILURES) == before:
            print(f"ok {w}: {len(end_to_end)} end-to-end and {len(per_layer)} "
                  f"per-layer metrics, {len(events)} spans", flush=True)

    _, result = run("dashboard", 0, "--corrupt-one")
    if result is not None:
        if result["correct"] or result["failed"] < 1:
            fail(f"checker accepted a corrupted reply: {result}")
        else:
            print("ok checker rejects a corrupted reply")
    print(f"FAIL ({len(FAILURES)} failures)" if FAILURES else "PASS")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
