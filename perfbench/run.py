#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 20 --trace 0

The first run configures and builds `gdelt_perfbench` (Release) under
`.bench_build/perfbench`, and generates and converts the dataset under
`.bench_build/data`; later runs reuse both. Every other argument is passed
to the benchmark binary, whose last output line is the JSON result.

The binary's query threads are capped at two (OMP_NUM_THREADS; the
engine's thread pools size themselves to it) while the process may run on
every CPU (see README.md, "Measurement choices").
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gdelt_perfbench")
THREADS = 2


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "gdelt_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log("build failed (full log: .bench_build/build.log)")
                sys.exit(1)


def commit_id():
    """A digest of the sources the benchmark builds, after the git commit
    when there is one. The dataset and the stored references are stamped
    with it, so any change to the sources, committed or not, renews them."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    source = "src-" + digest.hexdigest()[:12]
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip() + "+" + source
    except (OSError, subprocess.SubprocessError):
        pass
    return source


def main(argv):
    build()
    data = os.path.join(ROOT, ".bench_build", "data")
    work = os.path.join(ROOT, ".bench_build", "work")
    cmd = [BINARY, "--data-dir", data, "--work-dir", work,
           "--commit", commit_id()] + argv
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    return subprocess.call(cmd, env=env)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
