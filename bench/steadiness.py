#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of the runs'
values as a share of their median, next to its bound in BENCHMARK.json.

    python3 bench/steadiness.py [--seeds 1-10] [--workload NAME ...]

Runs go one at a time, each in its own process, for the run length that
BENCHMARK.json sets.  The raw result lines are appended to
bench/out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", "steadiness.jsonl")

    for name in workloads:
        results = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "result": result}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, correct %s, failed share %s"
              % (name, len(results), all(r["correct"] for r in results),
                 " ".join("%.4f" % s for s in sorted(shares))))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print("  %-12s median %10.4f  q1 %10.4f  q3 %10.4f  spread %.3f  bound %.2f  %s"
                  % (metric["name"], med, q1, q3, spread, metric["bound"], flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
