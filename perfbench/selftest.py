"""Self-test of the benchmark at seconds-long smoke sizes.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --smoke`` untraced and traced, and
checks that the result line carries exactly the metrics BENCHMARK.json
names, with their units; that every run passed its output check; that the
per-layer self times add up to the traced wall time; and that both runs of
one seed wrote the same output digest. Last, it checks that the benchmark
refuses to run, without a result line, in a directory that holds only the
benchmark and no symfock source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
#: Largest share of the traced wall time the layer self times may miss.
SELF_TIME_TOL = 0.02


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    output = next(json.loads(line[len("# output "):]) for line in lines
                  if line.startswith("# output "))
    return json.loads(lines[-1]), output


def check_result(result: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
    return problems


def check_no_source() -> list[str]:
    """The benchmark alone, without the program, must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without source: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_output = run(workload, 0)
        traced, traced_output = run(workload, 1)
        problems += check_result(plain, spec["end_to_end"], f"{workload} trace 0")
        problems += check_result(traced, spec["per_layer"], f"{workload} trace 1")
        metrics = traced["metrics"]
        self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        wall = metrics["trace.wall_s"]["value"]
        if abs(self_total - wall) > SELF_TIME_TOL * wall:
            problems.append(f"{workload}: layer self times {self_total:.4f} s "
                            f"vs traced wall {wall:.4f} s")
        if plain_output["digest"] != traced_output["digest"]:
            problems.append(f"{workload}: digests differ between runs of one seed")
        print(f"{workload}: self times {self_total:.4f} s of traced wall {wall:.4f} s, "
              f"overhead {metrics['trace.overhead_frac']['value']:.2f}")
    problems += check_no_source()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
