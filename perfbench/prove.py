#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread and write its records.

Run from the repository root:

    python3 perfbench/prove.py --runs 10 [--traced]

For every workload in BENCHMARK.json it runs perfbench/run.py with
--trace 0 for run_seconds on seeds 1..runs and reports, for every
end-to-end metric, the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, beside the metric's bound. It reports the same for the figures
the runs print but BENCHMARK.json does not gate (NOT_GATED). With
--traced it also makes one --trace 1 run per workload on seed 1 and on
seed 2 (the second seed reported beside the default). BENCHMARK.json
is first rewritten through the benchmark binary's -spec flag; the
report goes to perfbench/results.json: host facts, workload and metric
definitions with the layer -> end-to-end map, every run's values and
the spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
# Figures every untraced run prints but BENCHMARK.json does not gate:
# latencies and the fsync rate, whose spread on the measuring host
# exceeds any allowed bound, the unmatched-ack count, and the
# benchmark's own live heap. Their spreads are recorded beside the
# gated ones.
NOT_GATED = ["loadgen.ack_p50_ms", "loadgen.ack_p99_ms", "loadgen.deliver_p50_ms", "loadgen.deliver_p99_ms",
             "plog.fsyncs_per_alert", "core.acks_unmatched", "bench.live_mb"]
BINARY = os.path.join(ROOT, ".bench_build", "perfbench")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.exit("prove.py: %s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    header = dict(field.split("=", 1) for field in lines[0].split())
    host = {k: header[k] for k in ("filesystem", "nproc", "gomaxprocs", "go")}
    extra = {}
    for line in lines:
        fields = line.split()
        if fields[0] == "extra":
            extra[fields[1]] = float(fields[2])
    return json.loads(lines[-1]), host, extra


def spread(values):
    """IQR over median (None when the median is 0), and the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return ((q3 - q1) / med if med else None), med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=os.path.join("perfbench", "results.json"))
    args = ap.parse_args()

    subprocess.run(RUN + ["--help"], capture_output=True)  # builds the benchmark binary
    desc = json.loads(subprocess.run([BINARY, "-describe"], capture_output=True, text=True, check=True).stdout)
    subprocess.run([BINARY, "-spec", "BENCHMARK.json"], check=True)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": seconds, "seeds": list(range(1, args.runs + 1)), "definitions": desc, "workloads": {}}
    ok = True
    for name in names:
        runs, host = [], {}
        for seed in range(1, args.runs + 1):
            res, host, extra = run_once(name, seed, seconds, 0)
            if not res["correct"]:
                ok = False
                print("%s seed %d: outputs incorrect" % (name, seed))
            runs.append({"seed": seed, "attempted": res["attempted"], "failed": res["failed"],
                         "correct": res["correct"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                         "not_gated": {k: extra[k] for k in NOT_GATED}})
            print("%s seed %d: %s" % (name, seed, " ".join("%s=%.4g" % kv for kv in sorted(runs[-1]["metrics"].items()))), flush=True)
        entry = {"host": host, "runs": runs, "spread": {}, "not_gated_spread": {}}
        print("\n%s (%d runs, %d s)" % (name, args.runs, seconds))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]] for r in runs]
            sp, med = spread(vals)
            entry["spread"][m["name"]] = {"median": med, "iqr_over_median": sp, "bound": bounds[m["name"]]}
            flag = "" if sp < bounds[m["name"]] / 3 else ("  above bound/3" if sp < bounds[m["name"]] else "  ABOVE BOUND")
            print("  %-18s median %12.5f %-3s spread %6.3f bound %.2f%s" % (m["name"], med, m["unit"], sp, bounds[m["name"]], flag))
        for k in NOT_GATED:
            sp, med = spread([r["not_gated"][k] for r in runs])
            entry["not_gated_spread"][k] = {"median": med, "iqr_over_median": sp}
            print("  %-30s median %12.5f spread %s (not gated)" % (k, med, "n/a" if sp is None else "%6.3f" % sp))
        if args.traced:
            entry["traced"] = {}
            for seed in (1, 2):
                res, _, _ = run_once(name, seed, seconds, 1)
                entry["traced"]["seed%d" % seed] = {k: v["value"] for k, v in res["metrics"].items()}
        report["workloads"][name] = entry
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
