"""symfock benchmark: one seeded workload, run end to end, checked, measured.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs to be installed. The
workload runs in a child process (``worker.py``) through
``symfock.cli.main``, repeatedly, for about ``--seconds``. With
``--trace 0`` the last line of standard output reports the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a separate traced run
and the isolated layer timings. Every run's outputs are checked, and a run
that fails counts in ``failed``. See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import SIZES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench_work")
#: Timed set-up launches per run, after one untimed launch that fills the
#: byte-code cache.
SETUP_LAUNCHES = 11
#: Reference-kernel time (``layers.reference_kernel``) that set-up times are
#: scaled to: its typical time on the two-core Xeon VM the bounds were set on.
REF_NOMINAL_S = 0.0035
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """Host record printed with every result."""
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = size
    except OSError:
        pass
    return env


def _worker(args, workdir: str, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, *extra]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args, workdir: str, deadline: float) -> float:
    """Median time from launching a fresh interpreter to a configured
    workload, scaled to ``REF_NOMINAL_S`` by the reference-kernel time the
    same interpreter measured right after."""
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        started = time.monotonic()
        probe = _worker(args, workdir, deadline, "--probe")
        if launch:
            times.append((probe["ready"] - started) / probe["ref"] * REF_NOMINAL_S)
    return statistics.median(times)


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics = {}
        if not args.trace:
            setup = setup_seconds(args, workdir, deadline)
            result = _worker(args, workdir, deadline)
            # a ratio of sums: each run's reference time is a snapshot of a
            # host whose speed drifts within seconds, and summing over the
            # runs averages the snapshots before they divide anything
            runs = result["runs"]
            wall_ref = sum(run["wall"] for run in runs) / sum(run["ref"] for run in runs)
            metrics = {
                "wall_ref": (wall_ref, "ref"),
                "probs_per_ref": (result["probs"] / wall_ref, "1/ref"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
            }
        else:
            result = _worker(args, workdir, deadline)
            traced = result["traced_walls"]
            metrics.update(result["layers"])
            metrics.update(result["isolated"])
            wall = statistics.median(result["plain_walls"])
            metrics["run.wall_s"] = (wall, "s")
            metrics["run.probs_per_s"] = (result["probs"] / wall, "1/s")
            metrics["trace.wall_s"] = (statistics.fmean(traced), "s")
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(result["plain_walls"]) - 1.0,
                "fraction")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    runs = result["runs"]
    failed = sum(1 for run in runs if run["problems"])
    digests = [run["digest"] for run in runs if not run["problems"]]
    if len(set(digests)) > 1:
        # equal seeds must give equal bytes: every run unlike the first fails
        failed += sum(1 for d in digests if d != digests[0])
    for run in runs:
        for problem in run["problems"]:
            print(f"# failed: {problem}")
    print("# env " + json.dumps(environment()))
    print("# output " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "digest": runs[0]["digest"], "notes": runs[0]["notes"],
                                    "walls_s": [run["wall"] for run in runs],
                                    "refs_s": [run.get("ref") for run in runs]}))
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the self-test")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "symfock", "cli.py")):
        print(f"error: no symfock source under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
