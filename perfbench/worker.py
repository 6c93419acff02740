"""Child process of the benchmark: runs one workload in process through
``symfock.cli.main`` and prints its measurements as one JSON line.

With ``--probe`` it notes the monotonic clock once ``symfock.cli`` is
imported and the workload is configured, times the reference kernel, and
prints both, so that the parent can time a fresh interpreter's set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import symfock.cli  # noqa: E402

import workloads  # noqa: E402

#: Fewest untraced runs, however long each takes.
MIN_RUNS = 3
#: The reference timing after a run lasts this share of the run's wall
#: time: host speed drifts within seconds, so a long run needs a long
#: timing to be compared with.
REF_SHARE = 0.2


def run_once(work: workloads.Workload) -> dict:
    """One workload run: its CLI calls timed back to back, then checked.

    ``symfock.cli.main`` is looked up on each call, so a run made while the
    tracer is installed goes through its wrappers.
    """
    shutil.rmtree(work.outdir, ignore_errors=True)
    os.makedirs(work.outdir)
    wall = 0.0
    problems = []
    for argv in work.calls:
        err = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = symfock.cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - started
        if code != 0:
            problems.append(f"{argv[0]} exited with {code}: {err.getvalue().strip()[-300:]}")
    notes, digest = {}, None
    if not problems:
        try:
            found, notes = workloads.check(work)
            problems.extend(found)
            digest = workloads.digest(work)
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"output check could not read the outputs: {exc!r}")
    return {"wall": wall, "problems": problems, "notes": notes, "digest": digest}


def run_loop(work, seconds: float) -> list[dict]:
    """Untraced runs, each between two timings of the reference kernel made
    in this thread while no run is going; a run's ``ref`` is the mean of the
    two. The kernel never runs alongside the workload, so a library change
    that uses the second core or releases the interpreter lock cannot
    change what the kernel measures."""
    from layers import reference_seconds

    runs = []
    before = reference_seconds()
    started = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - started < seconds:
        run = run_once(work)
        after = reference_seconds(REF_SHARE * run["wall"])
        run["ref"] = (before + after) / 2
        runs.append(run)
        before = after
    return runs


def run_traced(work, seconds: float, spans_path: str):
    """Alternate untraced and traced runs, so that drift in host speed hits
    both alike and their ratio gives the tracing overhead. The spans of the
    first traced run go to ``spans_path``."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, counts = [], [], None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(run_once(work))
        with tracer:
            traced.append(run_once(work))
        if counts is None:
            counts = tracer.counts.copy()  # one run's counts; meta.json sizes vary
            tracer.write(spans_path)
    return plain, traced, tracer.layer_metrics(len(traced), counts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    work = workloads.build(args.workload, args.seed, args.smoke, args.workdir)
    if args.probe:
        ready = time.monotonic()
        from layers import reference_seconds

        print(json.dumps({"ready": ready, "ref": reference_seconds()}))
        return 0

    result = {"probs": work.probs}
    if args.trace:
        import layers

        result["isolated"] = layers.measure(args.seed)
        spans = os.path.join(ROOT, ".perfbench_work", f"spans.{args.workload}.tsv")
        plain, traced, result["layers"] = run_traced(work, args.seconds, spans)
        result["plain_walls"] = [run["wall"] for run in plain]
        result["traced_walls"] = [run["wall"] for run in traced]
        runs = plain + traced
    else:
        runs = run_loop(work, args.seconds)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["runs"] = runs
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
