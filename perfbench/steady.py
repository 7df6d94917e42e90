#!/usr/bin/env python3
"""Steadiness check: runs the benchmark once per seed on each workload and
reports, per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

Run from the repository root, e.g.

    python3 perfbench/steady.py --workloads inject --seeds 1-10

Prints one JSON object per workload on standard output; run logs go to
standard error.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            print(wl, seed, json.dumps(res), file=sys.stderr, flush=True)
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: outputs incorrect")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                             "bound": bounds.get(name), "values": vs}
        print(json.dumps({"workload": wl, "seeds": args.seeds, "metrics": summary}), flush=True)


if __name__ == "__main__":
    main()
