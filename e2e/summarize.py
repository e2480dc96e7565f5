#!/usr/bin/env python3
"""Summarises the result files `run.sh --sets=N` writes.

For every workload and end-to-end metric: the median over the sets and
the run-to-run spread, as a share of the median, next to the metric's
bound in BENCHMARK.json.  With 4 or more sets the spread is the distance
between the quartiles statistics.quantiles(values, n=4) gives; with fewer,
quartiles mean nothing, so it is the distance between min and max.
Writes summary.json beside the inputs.

    python3 e2e/summarize.py build-e2e/results BENCHMARK.json
"""
import json
import os
import platform
import re
import statistics
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread_of(values):
    """(low, high, spread): quartiles with 4+ values, else min and max."""
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low, high = min(values), max(values)
    med = statistics.median(values)
    return low, high, (high - low) / med if med else float("inf")


def main(results, benchmark):
    with open(benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets, traced = {}, {}
    for name in sorted(os.listdir(results)):
        match = re.fullmatch(r"(set(\d+)|traced)-(.+)\.json", name)
        if not match:
            continue
        with open(os.path.join(results, name)) as f:
            result = json.load(f)
        workload = match.group(3)
        if match.group(1) == "traced":
            traced[workload] = result
        else:
            sets.setdefault(workload, {})[int(match.group(2))] = result

    summary = {
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count()},
        "end_to_end": {},
        "per_layer": {w: {k: v["value"] for k, v in r["metrics"].items()}
                      for w, r in sorted(traced.items())},
    }
    columns = "q1 / q3" if min(map(len, sets.values()), default=0) >= 4 \
        else "min / max"
    print(f"{'workload':14} {'metric':12} {'median':>12} "
          f"{columns:>25} {'spread':>7} {'bound':>6}")
    worst, worst_at = 0.0, ""
    for workload, by_set in sets.items():
        runs = [by_set[i] for i in sorted(by_set)]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for metric, desc in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            low, high, spread = spread_of(values)
            entry["metrics"][metric] = {
                "unit": desc["unit"], "values": values, "median": med,
                "spread": spread}
            if spread / desc["bound"] > worst:
                worst, worst_at = spread / desc["bound"], \
                    f"{workload} {metric}"
            print(f"{workload:14} {metric:12} {med:12.6g} {low:12.6g} "
                  f"{high:12.6g} {100 * spread:6.2f}% {desc['bound']:6.2f}")
        summary["end_to_end"][workload] = entry
    print(f"largest spread / bound: {worst:.2f} ({worst_at})")
    with open(os.path.join(results, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
