"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads census fourier] [--first-seed 1]

Runs every workload ten times untraced, for BENCHMARK.json's
``run_seconds`` and each time with the next seed, and prints per metric the
median, the quartiles from ``statistics.quantiles(values, n=4)`` and their
distance as a share of the median, next to the bound BENCHMARK.json sets,
and how many distinct output digests the seeds gave (one for the
seed-independent fourier workload).
Every result goes to ``.perfbench_work/spread.jsonl`` as it arrives.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".perfbench_work", "spread.jsonl")
RUNS = 10


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    os.makedirs(os.path.dirname(LOG), exist_ok=True)

    failures = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        digests = set()
        for seed in range(args.first_seed, args.first_seed + RUNS):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            output = next(json.loads(line[len("# output "):]) for line in lines
                          if line.startswith("# output "))
            digests.add(output["digest"])
            with open(LOG, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "output": output,
                                     **result}) + "\n")
            failures += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"{workload:10s} {metric['name']:12s} median {median:12.6g} "
                  f"IQR/median {(q3 - q1) / median:7.4f}  bound {metric['bound']}", flush=True)
        print(f"{workload:10s} {len(digests)} distinct output digests over {RUNS} seeds")
    print(f"failed runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
