#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 e2ebench/run.py --workload sweep_short --seed 1 --seconds 10 --trace 0

The first call configures the repository's own CMake project with the
benchmark injected (e2ebench/e2ebench.cmake) into .bench_build/e2ebench
(Release) and builds only the e2ebench binary and the libraries it links;
later calls rebuild incrementally. The binary's stdout is passed through:
its last line is the JSON result. Build output goes to stderr. Exits
non-zero when the build fails or the correctness gate does not pass.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("sweep_short", "explore_long", "cold_start_wide", "pretrain")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_INCLUDE=" +
                     os.path.join(HERE, "e2ebench.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2

    bench_root = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    # The library's default width is the hardware thread count; an
    # inherited override would silently change what is measured.
    env.pop("METADSE_THREADS", None)
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(bench_root, "work"),
           "--trace-dir", os.path.join(bench_root, "traces"),
           "--commit", commit()]
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
