#!/usr/bin/env python3
"""Checks that tools/bench_report.py --fail-on-regress refuses timings that
carry no host block (context.num_cpus), in the run and in the --diff report.

Usage: test_bench_report.py BENCH_REPORT_PY FIXTURE_DIR
"""

import os
import subprocess
import sys
import tempfile


def run(script, *args):
    proc = subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    script, fixtures = sys.argv[1], sys.argv[2]
    with_host = os.path.join(fixtures, "bench_with_host.json")
    no_host = os.path.join(fixtures, "bench_no_host.json")
    failures = []

    def expect(ok, what, out):
        if not ok:
            failures.append(f"{what}\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        host_report = os.path.join(tmp, "host_report.json")
        bare_report = os.path.join(tmp, "bare_report.json")

        rc, out = run(script, with_host, "-o", host_report,
                      "--fail-on-regress")
        expect(rc == 0, "a run with a host block must pass", out)

        rc, out = run(script, no_host, "-o", os.path.join(tmp, "x.json"),
                      "--fail-on-regress")
        expect(rc != 0 and "no host block" in out,
               "a run without a host block must fail the gate", out)

        rc, out = run(script, no_host, "-o", bare_report)
        expect(rc == 0, "without --fail-on-regress a missing host only "
               "reports", out)

        rc, out = run(script, with_host, "-o", os.path.join(tmp, "y.json"),
                      "--diff", bare_report, "--fail-on-regress")
        expect(rc != 0 and "no host block" in out and bare_report in out,
               "a --diff report without a host block must fail the gate", out)

        rc, out = run(script, with_host, "-o", os.path.join(tmp, "z.json"),
                      "--diff", host_report, "--fail-on-regress")
        expect(rc == 0, "run and --diff report with host blocks must pass",
               out)

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
