#!/usr/bin/env python3
"""Build and run the end-to-end profiler benchmark.

    python3 bench_e2e/run.py --workload calls --seed 1 --seconds 20 --trace 0

Builds the driver from ../src into .bench_build/ at the repository root
(the first run compiles everything; later runs only check the build), then
runs one workload.  The driver's last stdout line is the JSON result; its
exit code is passed through.  Build output goes to stderr.  Arguments
after the four standard ones (--short, --break ORACLE) go to the driver.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
DRIVER_TIMEOUT_S = 175


def build(env):
    """Configures and builds the driver; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        # Concurrent runs in one checkout build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", *generator, "-S", str(HERE), "-B",
                         str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", str(CMAKE_DIR), "--target",
                            "bench_e2e", "-j", jobs],
                           stdout=sys.stderr, env=env) != 0:
            return None
    driver = CMAKE_DIR / "bench_e2e"
    return driver if driver.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    # Compilers and the driver keep their scratch files in the checkout.
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)

    driver = build(env)
    if driver is None:
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    command = [str(driver), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace, "--workdir", str(BUILD / "work"), *extra]
    proc = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("bench_e2e: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
