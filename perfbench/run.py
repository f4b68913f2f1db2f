#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload paper-loops|frontier|server-mixed \
        --seed N --seconds S --trace 0|1

Run it from the repository root (it changes there itself). It builds
into .bench_build/ with dune, runs perfbench/main.exe, and passes its
standard output through: a human-readable report, then as the last line
one JSON object with correct, attempted, failed and metrics. The exit
code is the benchmark's: 0 when every answer was checked correct.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["paper-loops", "frontier", "server-mixed"]
BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/main.exe", "./bin/server_main.exe"]
# The whole run must end within 180 s; the build and set-up come first.
RUN_TIMEOUT_S = 170


def build(dune):
    """Build the benchmark and the server; dune's output goes to stderr."""
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", *TARGETS]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def run(argv):
    """Run main.exe in its own process group so that a timeout also
    stops the server it may have started."""
    proc = subprocess.Popen(argv, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    dune = shutil.which("dune")
    if dune is None:
        print("dune is not on PATH", file=sys.stderr)
        return 2
    code = build(dune)
    if code != 0:
        print("build failed", file=sys.stderr)
        return code
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    server = os.path.join(BUILD_DIR, "default", "bin", "server_main.exe")
    sys.stdout.flush()
    code = run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--server", server])
    try:
        os.rmdir(".bench_tmp")
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
