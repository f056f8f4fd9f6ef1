#!/usr/bin/env python3
"""Compare two sets of servebench result files, metric by metric.

    python3 servebench/compare.py BASE.json [BASE.json ...] -- HEAD.json [HEAD.json ...]

Each side's value of a metric is its median over the side's files.  A metric
is "worse" when the head median is worse than the base median by more than
the metric's bound in BENCHMARK.json, "better" when it is better by more than
the bound, and "same" otherwise.  When the host fingerprints of the files
differ (CPU, core count, kernel ISA, compiler, build type, tracing), the
numbers are not comparable: a notice is printed instead of a verdict.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
HOST_KEYS = ("cpu_model", "nproc", "kernel_isa", "compiler", "build_type", "obs_tracing")


def fingerprint_diff(records):
    """Host-fingerprint fields that differ across `records` (the commit is
    what a comparison is for, so it is not one of them)."""
    return sorted(k for k in HOST_KEYS
                  if len({json.dumps(r["fingerprint"].get(k)) for r in records}) > 1)


def verdicts(base, head, bounds):
    """[(workload, metric, base median, head median, verdict)] over the
    metrics both sides report."""
    out = []
    for name, (better, bound) in sorted(bounds.items()):
        b = [r["result"]["metrics"][name]["value"] for r in base
             if name in r["result"]["metrics"]]
        h = [r["result"]["metrics"][name]["value"] for r in head
             if name in r["result"]["metrics"]]
        if not b or not h:
            continue
        mb, mh = statistics.median(b), statistics.median(h)
        change = (mh - mb) / mb if mb else 0.0
        worse = change > bound if better == "lower" else change < -bound
        improved = change < -bound if better == "lower" else change > bound
        out.append((base[0]["workload"], name, mb, mh,
                    "worse" if worse else "better" if improved else "same"))
    return out


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    paths_base, paths_head = argv[:cut], argv[cut + 1:]
    if not paths_base or not paths_head:
        print(__doc__, file=sys.stderr)
        return 2
    load = lambda p: json.load(open(p))
    base, head = [load(p) for p in paths_base], [load(p) for p in paths_head]
    if len({r["workload"] for r in base + head}) != 1:
        print("servebench compare: the files mix workloads", file=sys.stderr)
        return 2
    diff = fingerprint_diff(base + head)
    if diff:
        print("NOTICE: host fingerprints differ in %s; no verdict." % ", ".join(diff))
        return 0
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rows = verdicts(base, head, bounds)
    for wl, name, mb, mh, v in rows:
        print("%-18s %-22s base %12.6g  head %12.6g  %+7.2f%%  %s"
              % (wl, name, mb, mh, 100.0 * (mh - mb) / mb if mb else 0.0, v))
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
