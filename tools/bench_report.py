#!/usr/bin/env python3
"""Turn bench_micro_engine JSON output into BENCH_engine.json.

Usage:
    bench_report.py AFTER.json [--before BEFORE.json] [--diff BENCH_engine.json]
                    [-o BENCH_engine.json]

AFTER.json is the output of

    bench_micro_engine \
        --benchmark_filter='PredictOne|PredictBatch|ExplorerBatchedEval|Maml' \
        --benchmark_min_time=0.5 --benchmark_format=json

BEFORE.json, when given, is a google-benchmark JSON from the pre-fast-path
baseline. The report pairs each fast-path benchmark with its baseline
counterpart and records the speedup:

  - BM_TransformerPredictOneNoGrad   vs baseline BM_TransformerPredictOne
  - BM_TransformerPredictBatchNoGrad/N vs baseline BM_TransformerPredictBatch/N
  - within-run grad vs no-grad ratios as a build-independent cross-check
  - the training fast path (BM_MamlInnerStep, BM_MamlAdaptClone,
    BM_MamlEpochThreadsSweep) vs the same benchmark in the baseline run

--diff compares AFTER.json against a previously committed BENCH_engine.json
and prints a per-benchmark regression table. By default it is warn-only:
shared runners are far too noisy to gate on, so a slowdown prints a WARN
line and the exit code stays 0. Pass --fail-on-regress to turn any WARN
into a nonzero exit — for quiet dedicated machines where a >15% slowdown
is signal, not noise. A gate also needs to know what it compares: with
--fail-on-regress the exit is nonzero as well when AFTER.json, or the --diff
report, carries no host block (context.num_cpus), because a timing without
its host cannot be judged against another.

The headline figures are the single-point no-grad prediction speedup and the
K-shot adapt_clone speedup over the seed; the CI smoke job only checks that
the report can be produced.
"""

import argparse
import json
import sys

# fast-path benchmark -> its grad-mode baseline counterpart
PAIRS = {
    "BM_TransformerPredictOneNoGrad": "BM_TransformerPredictOne",
    "BM_TransformerPredictBatchNoGrad/1": "BM_TransformerPredictBatch/1",
    "BM_TransformerPredictBatchNoGrad/16": "BM_TransformerPredictBatch/16",
    "BM_TransformerPredictBatchNoGrad/128": "BM_TransformerPredictBatch/128",
}

# Training fast-path benchmarks: the kernels changed underneath them, so the
# comparison is same-name against the baseline run (before the pooled tapes,
# fused kernels, and register-panel backward).
TRAIN_BENCHES = [
    "BM_MamlInnerStep/1", "BM_MamlInnerStep/2", "BM_MamlInnerStep/8",
    "BM_MamlAdaptClone/1", "BM_MamlAdaptClone/2", "BM_MamlAdaptClone/8",
    "BM_MamlEpochThreadsSweep/1", "BM_MamlEpochThreadsSweep/2",
    "BM_MamlEpochThreadsSweep/4", "BM_MamlEpochThreadsSweep/8",
]

HEADLINE = "BM_TransformerPredictOneNoGrad"
HEADLINE_TRAIN = "BM_MamlAdaptClone/1"

# Reduced-precision serving tier: each quantized batch predict vs the planned
# fp32 path at the same batch, within the same run (DESIGN.md §15).
QUANT_PAIRS = {
    "BM_TransformerPredictBatchQuantInt8/1": "BM_TransformerPredictBatchNoGrad/1",
    "BM_TransformerPredictBatchQuantInt8/16": "BM_TransformerPredictBatchNoGrad/16",
    "BM_TransformerPredictBatchQuantInt8/128": "BM_TransformerPredictBatchNoGrad/128",
    "BM_TransformerPredictBatchQuantBf16/1": "BM_TransformerPredictBatchNoGrad/1",
    "BM_TransformerPredictBatchQuantBf16/16": "BM_TransformerPredictBatchNoGrad/16",
    "BM_TransformerPredictBatchQuantBf16/128": "BM_TransformerPredictBatchNoGrad/128",
}
HEADLINE_QUANT = "BM_TransformerPredictBatchQuantInt8/128"

# Thread-scaling pairs: each benchmark at 8 worker threads vs its serial
# path, within the same run. On the paper's shapes the per-step work is a few
# hundred microseconds, so on narrow machines (CI runners pinned to one or
# two cores) the dispatch overhead inverts the scaling — /8 comes out slower
# than /1. The report records the ratio either way so the inversion is
# visible instead of silently folded into an aggregate; the first pair stays
# the headline. A wide arm with more threads than the host has CPUs measures
# oversubscription, not scaling: its verdict is "unmeasured" and it raises
# no inversion WARN.
THREAD_SCALING = (
    ("BM_MamlInnerStep/1", "BM_MamlInnerStep/8"),
    ("BM_MamlAdaptClone/1", "BM_MamlAdaptClone/8"),
)

# --diff warns when a benchmark slows down by more than this factor.
DIFF_WARN_RATIO = 1.15


def load_times(path):
    """name -> real_time in ns (iteration aggregates only)."""
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        times[b["name"]] = float(b["real_time"])
    return times, doc.get("context", {})


def host_cpus(context):
    """num_cpus of a host block: a google-benchmark context, or a report's
    context.after (what this script writes). None when there is no block."""
    if not isinstance(context, dict):
        return None
    if context.get("num_cpus"):
        return context["num_cpus"]
    after = context.get("after")
    if isinstance(after, dict) and after.get("num_cpus"):
        return after["num_cpus"]
    return None


def unmeasured(name, num_cpus):
    """Verdict for a /N thread arm wider than the host, else None."""
    threads = int(name.rsplit("/", 1)[1])
    if num_cpus and threads > num_cpus:
        return f"unmeasured (host has {num_cpus} cpus)"
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("after", help="bench_micro_engine JSON for the current tree")
    ap.add_argument("--before", help="baseline JSON (seed grad-mode forward)")
    ap.add_argument("--diff", metavar="REPORT",
                    help="committed BENCH_engine.json to diff against "
                         "(warn-only regression table)")
    ap.add_argument("--fail-on-regress", action="store_true",
                    help="exit nonzero when the run or the --diff report has "
                         "no host block, or (with --diff) when any benchmark "
                         f"is more than {DIFF_WARN_RATIO}x slower than the "
                         "committed report")
    ap.add_argument("-o", "--output", default="BENCH_engine.json")
    args = ap.parse_args(argv)

    after, context = load_times(args.after)
    if not after:
        sys.exit(f"{args.after}: no iteration benchmarks found")
    committed = None
    committed_cpus = None
    if args.diff:
        # Load before writing --output: the two paths are usually the same
        # file (the committed report being regenerated).
        with open(args.diff) as f:
            committed_doc = json.load(f)
        committed = committed_doc.get("benchmarks_ns", {})
        committed_cpus = host_cpus(committed_doc.get("context"))
    before, before_context = ({}, {})
    if args.before:
        before, before_context = load_times(args.before)

    report = {
        "context": {
            "after": context,
            "before": before_context or None,
        },
        "benchmarks_ns": {name: round(t, 1) for name, t in sorted(after.items())},
        "speedups_vs_before": {},
        "grad_over_nograd_within_run": {},
    }

    for fast, base in PAIRS.items():
        if fast in after and base in before:
            report["speedups_vs_before"][fast] = round(before[base] / after[fast], 2)
        if fast in after and base in after:
            report["grad_over_nograd_within_run"][fast] = round(
                after[base] / after[fast], 2)
    for name in TRAIN_BENCHES:
        if name in after and name in before:
            report["speedups_vs_before"][name] = round(before[name] / after[name], 2)

    if HEADLINE in report["speedups_vs_before"]:
        report["headline"] = {
            "benchmark": HEADLINE,
            "baseline": PAIRS[HEADLINE],
            "before_ns": round(before[PAIRS[HEADLINE]], 1),
            "after_ns": round(after[HEADLINE], 1),
            "speedup": report["speedups_vs_before"][HEADLINE],
        }
    report["quant_speedup_within_run"] = {}
    for quant, fp32 in QUANT_PAIRS.items():
        if quant in after and fp32 in after:
            report["quant_speedup_within_run"][quant] = round(
                after[fp32] / after[quant], 2)
    if HEADLINE_QUANT in report["quant_speedup_within_run"]:
        fp32 = QUANT_PAIRS[HEADLINE_QUANT]
        report["headline_quant"] = {
            "benchmark": HEADLINE_QUANT,
            "baseline": fp32,
            "fp32_ns": round(after[fp32], 1),
            "quant_ns": round(after[HEADLINE_QUANT], 1),
            "speedup": report["quant_speedup_within_run"][HEADLINE_QUANT],
        }

    num_cpus = context.get("num_cpus")
    report["thread_scaling"] = []
    for serial, wide in THREAD_SCALING:
        if serial not in after or wide not in after:
            continue
        ratio = after[wide] / after[serial]
        skipped = unmeasured(wide, num_cpus)
        entry = {
            "benchmark": f"{wide} vs {serial}",
            "serial_ns": round(after[serial], 1),
            "threaded_ns": round(after[wide], 1),
            "threaded_over_serial": round(ratio, 2),
            "inverted": None if skipped else ratio > 1.0,
            "verdict": skipped or ("inverted — threads hurt" if ratio > 1.0
                                   else "threads help"),
        }
        report["thread_scaling"].append(entry)
        if "headline_thread_scaling" not in report:
            report["headline_thread_scaling"] = entry
    if HEADLINE_TRAIN in report["speedups_vs_before"]:
        report["headline_training"] = {
            "benchmark": HEADLINE_TRAIN,
            "baseline": HEADLINE_TRAIN,
            "before_ns": round(before[HEADLINE_TRAIN], 1),
            "after_ns": round(after[HEADLINE_TRAIN], 1),
            "speedup": report["speedups_vs_before"][HEADLINE_TRAIN],
        }

    with open(args.output, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    for key in ("headline", "headline_training"):
        head = report.get(key)
        if head:
            print(f"{head['benchmark']}: {head['before_ns'] / 1e3:.1f}us -> "
                  f"{head['after_ns'] / 1e3:.1f}us ({head['speedup']}x)")
    quant = report.get("headline_quant")
    if quant:
        print(f"{quant['benchmark']}: fp32 {quant['fp32_ns'] / 1e3:.1f}us -> "
              f"{quant['quant_ns'] / 1e3:.1f}us ({quant['speedup']}x)")
    for scaling in report["thread_scaling"]:
        print(f"{scaling['benchmark']}: {scaling['serial_ns'] / 1e3:.1f}us -> "
              f"{scaling['threaded_ns'] / 1e3:.1f}us "
              f"(x{scaling['threaded_over_serial']}, {scaling['verdict']})")
    # Any /8 arm slower than its /1 sibling is a scaling inversion worth a
    # visible WARN, whether or not the pair is a tracked headline, provided
    # the host has the cores to run it.
    for name in sorted(after):
        if not name.endswith("/8") or unmeasured(name, num_cpus):
            continue
        sibling = name[:-2] + "/1"
        if sibling in after and after[name] > after[sibling]:
            print(f"WARN thread-scaling inversion: {name} "
                  f"({after[name] / 1e3:.1f}us) exceeds {sibling} "
                  f"({after[sibling] / 1e3:.1f}us)")
    if "headline" not in report and "headline_training" not in report:
        print(f"wrote {args.output} ({len(after)} benchmarks, no baseline)")

    regressions = []
    if committed is not None:
        regressions = diff_report(after, committed, args.diff)
    if args.fail_on_regress:
        missing_host = []
        if not host_cpus(context):
            missing_host.append(args.after)
        if args.diff and not committed_cpus:
            missing_host.append(args.diff)
        if missing_host:
            sys.exit(f"--fail-on-regress: no host block (context.num_cpus) "
                     f"in {', '.join(missing_host)}")
        if regressions:
            sys.exit(f"--fail-on-regress: {len(regressions)} benchmark(s) "
                     f"slower than {DIFF_WARN_RATIO}x the committed report: "
                     f"{', '.join(regressions)}")


def diff_report(after, committed, committed_path):
    """Regression table vs a committed report; returns the regressed names."""
    shared = sorted(set(after) & set(committed))
    if not shared:
        print(f"diff: no benchmarks in common with {committed_path}")
        return []
    regressions = []
    width = max(len(n) for n in shared)
    print(f"\ndiff vs {committed_path} (ratio = now/committed):")
    for name in shared:
        ratio = after[name] / committed[name]
        flag = ""
        if ratio > DIFF_WARN_RATIO:
            flag = "  WARN slower"
            regressions.append(name)
        print(f"  {name:<{width}}  {committed[name] / 1e3:10.1f}us ->"
              f" {after[name] / 1e3:10.1f}us  x{ratio:5.2f}{flag}")
    missing = sorted(set(committed) - set(after))
    if missing:
        print(f"  (not in this run: {', '.join(missing)})")
    return regressions


if __name__ == "__main__":
    main()
