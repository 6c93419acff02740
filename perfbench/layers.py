"""Isolated per-call timings of single layer functions on seeded inputs,
and the reference kernel that end-to-end times are expressed in.

Each timing warms the call up, batches enough calls that one timed round
lasts about 10 ms, and reports the median round divided by the batch size.
The permanent is timed at the sizes named in the metric, so that a later
change can set ``RYSER_MAX`` from them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from symfock.experiments import sample_distinguishability
from symfock.fock import ParticleType, enumerate_outputs
from symfock.linalg import determinant, permanent_ryser
from symfock.permutations import Permutation
from symfock.scattering import prob_boson, prob_partial, scattering_matrix
from symfock.suppression import boson_suppressed, fermion_suppressed
from symfock.unitaries import UnitarySpec, build_unitary

from workloads import ROBUSTNESS_TARGET, WORKED_INPUT, WORKED_PERMUTATION

_REF_ROW = np.linspace(0.5, 1.5, 5) + 0.25j
_REF_SYM = np.add.outer(np.arange(8.0), np.arange(8.0)) % 5 + np.eye(8)


def reference_kernel() -> complex:
    """Fixed work of the kind the library's hot loops do, about 3.5 ms:
    Python integer arithmetic, element-wise updates of a tiny complex
    array, and eigendecompositions of an 8 x 8 symmetric matrix, as the
    PSD repair makes them.

    It never changes with the library, so host speed is its only variable.
    The mix was chosen by timing candidate parts alongside the smoke-sized
    workloads on the shared host: these three tracked the workloads' slowdowns
    best, and scattered reads from a 4 MB table tracked them worst.
    """
    acc = 0
    for i in range(12_000):
        acc += i * i % 7
    row = _REF_ROW.copy()
    total = 0j
    for _ in range(500):
        row += _REF_ROW
        row -= _REF_ROW
        total += row.prod()
    for _ in range(50):
        total += np.linalg.eigh(_REF_SYM)[0][0]
    return total + acc


#: Fewest seconds of back-to-back reference-kernel calls behind one
#: reference time.
REF_MIN_S = 0.1


def reference_seconds(seconds: float = REF_MIN_S) -> float:
    """Seconds per call of the reference kernel on this host right now.

    Calls the kernel back to back in the calling thread for about
    ``seconds`` (at least ``REF_MIN_S``) and returns the mean wall time per
    call without the lowest and highest tenth. It is meant to run while
    nothing else of the benchmark does, so the workload never shares the
    host with it.
    """
    seconds = max(seconds, REF_MIN_S)
    samples = []
    started = time.perf_counter()
    while len(samples) < 10 or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - begin)
    samples.sort()
    k = len(samples) // 10
    return statistics.fmean(samples[k:len(samples) - k])


#: Permanent sizes timed on their own.
PERMANENT_SIZES = (5, 6, 12, 16)
REPEATED_OUTPUT = (2, 2, 1, 0, 0, 0, 0, 0)


#: Seconds of timed rounds behind one isolated timing, and its fewest rounds.
PER_CALL_BUDGET_S = 0.15
PER_CALL_MIN_ROUNDS = 3


def per_call(fn) -> float:
    """Median seconds per call of ``fn()``."""
    fn()
    started = time.perf_counter()
    fn()
    once = max(time.perf_counter() - started, 1e-7)
    batch = max(1, int(0.01 / once))
    rounds = max(PER_CALL_MIN_ROUNDS, min(30, int(PER_CALL_BUDGET_S / (once * batch))))
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - started) / batch)
    return statistics.median(samples)


def _complex_matrix(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def measure(seed: int) -> dict:
    """Every isolated timing as ``{metric: (value, unit)}``."""
    rng = np.random.default_rng(seed)
    metrics = {"host.ref_ms": (per_call(reference_kernel) * 1e3, "ms")}
    for n in PERMANENT_SIZES:
        m = _complex_matrix(rng, n)
        seconds = per_call(lambda: permanent_ryser(m))
        if n <= 8:
            metrics[f"linalg.perm_n{n}_us"] = (seconds * 1e6, "us")
        else:
            metrics[f"linalg.perm_n{n}_ms"] = (seconds * 1e3, "ms")
    m6 = _complex_matrix(rng, 6)
    metrics["linalg.det_n6_us"] = (per_call(lambda: determinant(m6)) * 1e6, "us")

    outputs = 0

    def enumerate_all():
        nonlocal outputs
        outputs = sum(1 for _ in enumerate_outputs(12, 6, ParticleType.BOSON))

    seconds = per_call(enumerate_all)
    metrics["fock.enumerate_us_per_output"] = (seconds / outputs * 1e6, "us")

    perm = Permutation.parse(WORKED_PERMUTATION)
    spec = UnitarySpec(perm, rotation_seed=seed)
    metrics["unitaries.build_unitary_us"] = (per_call(lambda: build_unitary(spec)) * 1e6, "us")
    built = build_unitary(spec)
    u, values = built.matrix, built.eigenvalues
    r, target = tuple(WORKED_INPUT), tuple(ROBUSTNESS_TARGET)
    metrics["scattering.scattering_matrix_us"] = (
        per_call(lambda: scattering_matrix(u, r, REPEATED_OUTPUT)) * 1e6, "us")
    metrics["scattering.prob_boson_rep_us"] = (
        per_call(lambda: prob_boson(u, r, REPEATED_OUTPUT)) * 1e6, "us")
    metrics["scattering.prob_boson_norep_us"] = (
        per_call(lambda: prob_boson(u, r, target)) * 1e6, "us")
    gram, _ = sample_distinguishability(len(r), 5e-3, rng)
    metrics["scattering.prob_partial_n5_ms"] = (
        per_call(lambda: prob_partial(u, r, target, gram, ParticleType.BOSON)) * 1e3, "ms")
    metrics["suppression.boson_law_us"] = (
        per_call(lambda: boson_suppressed(values, REPEATED_OUTPUT)) * 1e6, "us")
    metrics["suppression.fermion_law_us"] = (
        per_call(lambda: fermion_suppressed(perm, r, values, target)) * 1e6, "us")
    return metrics
