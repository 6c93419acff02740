"""The three benchmark workloads: inputs made from a seed, the CLI calls that
run them, the probability count each run evaluates, and the output checks.

Stdlib only, so that the set-up probe measures the import of ``symfock.cli``
and not of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

WORKED_PERMUTATION = "(1 2 3)(4 5 6)(7 8)"
WORKED_INPUT = [1, 1, 1, 0, 0, 0, 1, 1]
#: Class-III target of the worked example: law-suppressed, classically reachable,
#: no mode occupied twice.
ROBUSTNESS_TARGET = [1, 1, 0, 1, 1, 0, 1, 0]
ROBUSTNESS_GRID = [1e-3, 2e-3, 5e-3, 1e-2]
CENSUS_SEED_BASE = 20180817

#: Full sizes and the seconds-long smoke sizes of the self-test.
SIZES = {
    "census": {"full": {"bases": 6}, "smoke": {"bases": 1}},
    "fourier": {"full": {"modes": 12, "order": 6}, "smoke": {"modes": 8, "order": 2}},
    "robustness": {"full": {"samples": 300}, "smoke": {"samples": 40}},
}

SUPPRESSED_MAX = 1e-20
NORM_TOL = 1e-10


@dataclass
class Workload:
    """One generated workload: CLI argument lists plus what to check."""

    name: str
    calls: list[list[str]]
    probs: int
    outdir: str


def _write_config(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, f"{name}.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    return path


def _experiment(config: str, out: str) -> list[str]:
    return ["experiment", "--config", config, "--out", out, "--threads", "1"]


def build(name: str, seed: int, smoke: bool, workdir: str) -> Workload:
    """Write the workload's configs under ``workdir`` and return its CLI calls.

    Outputs go to ``workdir/out``; the caller empties it between runs.
    """
    size = SIZES[name]["smoke" if smoke else "full"]
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    if name == "census":
        n, particles = len(WORKED_INPUT), sum(WORKED_INPUT)
        config = _write_config(workdir, "census", {
            "kind": "mean-probabilities",
            "permutation": WORKED_PERMUTATION,
            "input_state": WORKED_INPUT,
            "types": ["boson", "fermion", "dist"],
            "seed": CENSUS_SEED_BASE + seed,
            "bases": size["bases"],
        })
        boson_outputs = math.comb(n + particles - 1, particles)
        fermion_outputs = math.comb(n, particles)
        probs = size["bases"] * 2 * (boson_outputs + fermion_outputs)
        calls = [_experiment(config, os.path.join(outdir, "census"))]
    elif name == "fourier":
        n, m = size["modes"], size["order"]
        state = [1, 0] * (n // 2)
        particles = sum(state)
        config = _write_config(workdir, "fourier", {
            "kind": "fourier-comparison",
            "modes": n,
            "order": m,
            "input_state": state,
        })
        probs = 2 * math.comb(n + particles - 1, particles) + 2 * math.comb(n, particles)
        calls = [_experiment(config, os.path.join(outdir, "fourier"))]
    elif name == "robustness":
        common = {
            "permutation": WORKED_PERMUTATION,
            "rotation_seed": 7,
            "input_state": WORKED_INPUT,
            "target_output": ROBUSTNESS_TARGET,
            "particle": "boson",
            "grid": ROBUSTNESS_GRID,
            "samples": size["samples"],
            "seed": seed,
        }
        unitary = _write_config(workdir, "unitary", {
            "kind": "unitary-robustness", "delta_distribution": "ring", **common,
        })
        dist = _write_config(workdir, "dist", {"kind": "distinguishability-robustness", **common})
        probs = len(ROBUSTNESS_GRID) * size["samples"] * 2
        calls = [
            _experiment(unitary, os.path.join(outdir, "unitary")),
            _experiment(dist, os.path.join(outdir, "dist")),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, calls, probs, outdir)


# --- output checks -----------------------------------------------------------

def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(";")
    return [dict(zip(header, line.split(";"))) for line in lines[1:] if line]


def _read_meta(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_table(problems: list, rows: list[dict], law: str, prob: str, label: str) -> None:
    total = math.fsum(float(row[prob]) for row in rows)
    if abs(total - 1.0) > NORM_TOL:
        problems.append(f"{label}: sum of {prob} is {total!r}, not 1 within {NORM_TOL}")
    worst = max((float(row[prob]) for row in rows if row[law] == "true"), default=0.0)
    if worst > SUPPRESSED_MAX:
        problems.append(f"{label}: law-suppressed {prob} reaches {worst!r}")


def check(work: Workload) -> tuple[list[str], dict]:
    """Check one run's files. Returns the problems found and notes to record."""
    problems: list[str] = []
    notes: dict = {}
    out = work.outdir
    if work.name == "census":
        meta = _read_meta(os.path.join(out, "census.meta.json"))
        for kind, value in meta["max_suppressed"].items():
            if value > SUPPRESSED_MAX:
                problems.append(f"census: max suppressed {kind} probability {value!r}")
        boson = _read_csv(os.path.join(out, "census.boson.csv"))
        fermion = _read_csv(os.path.join(out, "census.fermion.csv"))
        _check_table(problems, boson, "boson_suppressed", "p_boson", "census boson")
        _check_table(problems, fermion, "fermion_suppressed", "p_fermion", "census fermion")
        notes["max_suppressed"] = meta["max_suppressed"]
    elif work.name == "fourier":
        meta = _read_meta(os.path.join(out, "fourier.meta.json"))
        boson = _read_csv(os.path.join(out, "fourier.boson.csv"))
        fermion = _read_csv(os.path.join(out, "fourier.fermion.csv"))
        # Law => zero is gated; zero => law is not: at n = 12 some boson zeros
        # have no law verdict.
        _check_table(problems, boson, "boson_suppressed", "p_boson", "fourier boson")
        _check_table(problems, fermion, "fermion_suppressed", "p_fermion", "fourier fermion")
        counts = meta["counts"]
        if counts["fermion_new_law"] <= counts["fermion_old_law"]:
            problems.append(f"fourier: multiset law not stronger than parity law: {counts}")
        if not meta["witnesses"]:
            problems.append("fourier: no strictness witnesses")
        notes["counts"] = counts
    else:
        unitary = _read_meta(os.path.join(out, "unitary.meta.json"))
        dist = _read_meta(os.path.join(out, "dist.meta.json"))
        ratio_u = unitary["prefactor"] / unitary["predicted_prefactor"]
        ratio_d = dist["prefactor"] / dist["predicted_prefactor"]
        if abs(unitary["exponent"] - 2.0) > 0.1:
            problems.append(f"robustness: unitary exponent {unitary['exponent']!r}, expected 2")
        if abs(ratio_u - 1.0) > 0.2:
            problems.append(f"robustness: unitary prefactor ratio {ratio_u!r} outside 20%")
        if abs(dist["exponent"] - 1.0) > 0.1:
            problems.append(f"robustness: distinguishability exponent {dist['exponent']!r}, expected 1")
        # Recorded, not gated: the independent ensemble repairs every sample.
        notes.update(unitary_exponent=unitary["exponent"], unitary_prefactor_ratio=ratio_u,
                     dist_exponent=dist["exponent"], dist_prefactor_ratio=ratio_d,
                     psd_repairs=dist["psd_repairs"])
    return problems, notes


def digest(work: Workload) -> str:
    """SHA-256 over every output file, with ``timing_seconds`` left out of
    the metadata; equal seeds must give equal digests."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(work.outdir)):
        path = os.path.join(work.outdir, name)
        if name.endswith(".meta.json"):
            meta = _read_meta(path)
            meta.pop("timing_seconds", None)
            data = json.dumps(meta, sort_keys=True).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
