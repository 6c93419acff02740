"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
on success; failures surface through pytest itself)."""

import json
import time

import numpy as np
import pytest

from symfock.cli import main
from symfock.experiments import (
    run_distinguishability_robustness,
    run_fourier_comparison,
    run_mean_probabilities,
    run_unitary_robustness,
)
from symfock.fock import ParticleType, enumerate_outputs
from symfock.linalg import permanent_ryser
from symfock.permutations import Permutation, RootOfUnity, eigenstructure
from symfock.scattering import (
    prob_boson,
    prob_distinguishable,
    prob_fermion,
    prob_partial,
)
from symfock.suppression import boson_suppressed, initial_distribution
from symfock.unitaries import (
    UnitarySpec,
    build_unitary,
    fourier_symmetry,
    fourier_unitary,
)

from oracles import final_distribution, haar_random_unitary, permanent_naive

ROOT = RootOfUnity
WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)
# diagonal ordered 1,1,1, w,w, w^2,w^2, -1 as in the worked illustration
WORKED_ORDER = (1, 4, 7, 2, 5, 3, 6, 8)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_two_mode_dip():
    started = time.perf_counter()
    built = build_unitary(UnitarySpec(Permutation.parse("(1 2)")))
    p_coincidence = prob_boson(built.matrix, (1, 1), (1, 1))
    p_20 = prob_boson(built.matrix, (1, 1), (2, 0))
    p_02 = prob_boson(built.matrix, (1, 1), (0, 2))
    elapsed = time.perf_counter() - started
    assert p_coincidence <= 1e-20
    assert p_20 == pytest.approx(0.5, abs=1e-12)
    assert p_02 == pytest.approx(0.5, abs=1e-12)
    assert elapsed < 1.0
    report(1, f"dip={p_coincidence:.2e}, bunched={p_20:.15f}/{p_02:.15f}, {elapsed:.3f}s")


def test_criterion_02_worked_example_exact_fractions():
    values = eigenstructure(WORKED_PERM).eigenvalues
    expected_multiset = sorted(
        [ROOT(1, 3), ROOT(2, 3), ROOT(0, 1)] * 2 + [ROOT(1, 2), ROOT(0, 1)]
    )
    assert sorted(values) == expected_multiset

    ordered = build_unitary(UnitarySpec(WORKED_PERM, column_order=WORKED_ORDER))
    final = final_distribution(ordered.eigenvalues, (0, 2, 0, 1, 1, 1, 0, 0))
    assert final == tuple(sorted([ROOT(0, 1), ROOT(0, 1), ROOT(1, 3), ROOT(1, 3), ROOT(2, 3)]))

    initial = initial_distribution(WORKED_PERM, WORKED_INPUT)
    assert initial == tuple(
        sorted([ROOT(1, 3), ROOT(2, 3), ROOT(0, 1), ROOT(1, 2), ROOT(0, 1)])
    )
    report(2, "eigenvalue multiset, final and initial distributions match exactly")


def test_criterion_03_event_counts():
    bosonic = sum(1 for _ in enumerate_outputs(8, 5, ParticleType.BOSON))
    fermionic = sum(1 for _ in enumerate_outputs(8, 5, ParticleType.FERMION))
    assert bosonic == 792
    assert fermionic == 56
    report(3, f"{bosonic} bosonic and {fermionic} fermionic configurations")


def test_criterion_04_law_soundness_at_scale():
    started = time.perf_counter()
    result = run_mean_probabilities(WORKED_PERM, WORKED_INPUT, num_bases=100, seed=20180817)
    max_suppressed = result.metadata["max_suppressed"]
    elapsed = time.perf_counter() - started

    # soundness: worst suppressed probability over every basis and output
    assert max_suppressed["boson"] <= 1e-20
    assert max_suppressed["fermion"] <= 1e-20

    # completeness for many-particle suppression: every event that vanished
    # while staying classically reachable carries a law verdict
    for kind, law in [(ParticleType.BOSON, "boson_suppressed"),
                      (ParticleType.FERMION, "fermion_suppressed")]:
        table = result.tables[kind]
        vanished = (table.p <= 1e-20) & (table.p_dist > 1e-10)
        assert table.laws.columns[law][vanished].all(), table.outputs[vanished]
    counts = {
        kind.value: sum(1 for event in table.classes if event.value in ("II", "III"))
        for kind, table in result.tables.items()
    }
    assert elapsed < 300.0
    report(4, f"100 bases, max suppressed "
              f"B={max_suppressed['boson']:.2e} "
              f"F={max_suppressed['fermion']:.2e}, "
              f"law-predicted counts {counts}, {elapsed:.1f}s")


def test_criterion_05_normalization():
    cases = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (5, 4), (6, 3), (6, 4)]
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    for n, particles in cases:
        for _ in range(5):  # 10 cases x 5 draws = 50 unitaries
            u = haar_random_unitary(n, rng)
            r_boson = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
            r_fermion = (1,) * particles + (0,) * (n - particles)
            sums = [
                sum(prob_boson(u, r_boson, s)
                    for s in enumerate_outputs(n, particles, ParticleType.BOSON)),
                sum(prob_distinguishable(u, r_boson, s)
                    for s in enumerate_outputs(n, particles, ParticleType.BOSON)),
                sum(prob_fermion(u, r_fermion, s)
                    for s in enumerate_outputs(n, particles, ParticleType.FERMION)),
            ]
            worst = max(worst, *(abs(total - 1.0) for total in sums))
            checked += 1
    assert worst <= 1e-10
    report(5, f"{checked} random unitaries, worst |sum P - 1| = {worst:.2e}")


def test_criterion_06_fourier_bosons_match_permanent_zeros():
    tested = 0
    for m, r in [(2, (1, 0, 0, 1, 0, 0)), (2, (2, 0, 0, 2, 0, 0)), (3, (1, 0, 1, 0, 1, 0))]:
        comparison = run_fourier_comparison(6, m, r)
        table = comparison.tables[ParticleType.BOSON]
        suppressed = table.laws.columns["boson_suppressed"]
        assert suppressed.tolist() == (table.p <= 1e-20).tolist(), (m, r)
        tested += len(table)
    report(6, f"n=6, m in {{2,3}}: verdicts match permanent zeros on {tested} outputs")


def test_criterion_07_fourier_fermion_strict_extension():
    comparison = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0))
    counts = comparison.metadata["counts"]
    assert counts["fermion_new_law"] > counts["fermion_old_law"]
    assert comparison.metadata["witnesses"]
    table = comparison.tables[ParticleType.FERMION]
    assert (table.p[table.laws.columns["fermion_suppressed"]] <= 1e-20).all()
    witness = comparison.metadata["witnesses"][0]
    report(7, f"n=8 m=2: multiset law {counts['fermion_new_law']} > parity law "
              f"{counts['fermion_old_law']}, witness {list(witness)} verified at det level")


def test_criterion_08_unitary_disorder_scaling():
    started = time.perf_counter()
    grid = (1e-3, 2e-3, 5e-3, 1e-2)

    built = build_unitary(UnitarySpec(Permutation.parse("(1 2)")))
    fit_hom = run_unitary_robustness(
        built.matrix, built.eigenvalues, (1, 1), (1, 1),
        grid, samples=10_000, seed=88,
    ).metadata
    assert fit_hom["exponent"] == pytest.approx(2.0, abs=0.1)
    assert fit_hom["prefactor"] == pytest.approx(fit_hom["predicted_prefactor"], rel=0.2)

    eight = build_unitary(UnitarySpec(WORKED_PERM, rotation_seed=7))
    target = (1, 1, 0, 1, 1, 0, 1, 0)
    assert boson_suppressed(eight.eigenvalues, target)
    assert prob_distinguishable(eight.matrix, WORKED_INPUT, target) > 1e-10  # class III
    fit_eight = run_unitary_robustness(
        eight.matrix, eight.eigenvalues, WORKED_INPUT, target,
        grid, samples=10_000, seed=99,
    ).metadata
    elapsed = time.perf_counter() - started
    assert fit_eight["exponent"] == pytest.approx(2.0, abs=0.1)
    assert fit_eight["prefactor"] == pytest.approx(fit_eight["predicted_prefactor"], rel=0.2)
    assert elapsed < 300.0
    report(8, f"exponents {fit_hom['exponent']:.3f}/{fit_eight['exponent']:.3f}, "
              f"prefactor ratios {fit_hom['prefactor'] / fit_hom['predicted_prefactor']:.3f}/"
              f"{fit_eight['prefactor'] / fit_eight['predicted_prefactor']:.3f}, {elapsed:.1f}s")


def test_criterion_09_distinguishability_scaling():
    grid = (1e-3, 2e-3, 5e-3, 1e-2)

    built = build_unitary(UnitarySpec(Permutation.parse("(1 2)")))
    fit_hom = run_distinguishability_robustness(
        built.matrix, built.eigenvalues, (1, 1), (1, 1),
        grid, samples=4000, seed=17,
    ).metadata
    assert fit_hom["exponent"] == pytest.approx(1.0, abs=0.1)
    assert fit_hom["prefactor"] == pytest.approx(fit_hom["predicted_prefactor"], rel=0.2)

    perm4, values4 = fourier_symmetry(4, 2)
    fit_four = run_distinguishability_robustness(
        fourier_unitary(4), values4, (1, 0, 1, 0), (1, 1, 0, 0),
        grid, samples=4000, seed=18, permutation=perm4,
    ).metadata
    assert fit_four["exponent"] == pytest.approx(1.0, abs=0.1)
    assert fit_four["prefactor"] == pytest.approx(fit_four["predicted_prefactor"], rel=0.2)
    report(9, f"exponents {fit_hom['exponent']:.3f}/{fit_four['exponent']:.3f}, "
              f"prefactor ratios {fit_hom['prefactor'] / fit_hom['predicted_prefactor']:.3f}/"
              f"{fit_four['prefactor'] / fit_four['predicted_prefactor']:.3f}")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        fast = permanent_ryser(m)
        slow = permanent_naive(m)
        assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-300)
        checked += 1

    limit_checks = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        particles = int(rng.integers(2, min(n, 3) + 1))
        u = haar_random_unitary(n, rng)
        r = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
        s = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
        ones = np.ones((n, n), dtype=complex)
        eye = np.eye(n, dtype=complex)
        assert prob_partial(u, r, s, ones, ParticleType.BOSON) == pytest.approx(
            prob_boson(u, r, s), abs=1e-10
        )
        assert prob_partial(u, r, s, eye, ParticleType.BOSON) == pytest.approx(
            prob_distinguishable(u, r, s), abs=1e-10
        )
        if all(x <= 1 for x in r) and all(x <= 1 for x in s):
            assert prob_partial(u, r, s, ones, ParticleType.FERMION) == pytest.approx(
                prob_fermion(u, r, s), abs=1e-10
            )
            assert prob_partial(u, r, s, eye, ParticleType.FERMION) == pytest.approx(
                prob_distinguishable(u, r, s), abs=1e-10
            )
        limit_checks += 1
    report(10, f"{checked} permanents matched, {limit_checks} limit instances matched")


FIT_RERUN = {
    "permutation": "(1 2 3)(4 5 6)(7 8)", "rotation_seed": 7,
    "input_state": list(WORKED_INPUT), "target_output": [1, 1, 0, 1, 1, 0, 1, 0],
    "particle": "boson", "grid": [0.001, 0.002, 0.005, 0.01], "samples": 40,
}
#: One config per experiment kind, and the files each run writes.
RERUN_CONFIGS = {
    "census": ({
        "kind": "mean-probabilities",
        "permutation": "(1 2 3)(4 5 6)(7 8)",
        "input_state": [1, 1, 1, 0, 0, 0, 1, 1],
        "bases": 5,
        "seed": 42,
        "types": ["boson", "fermion", "dist"],
    }, (".boson.csv", ".fermion.csv", ".dist.csv")),
    "fourier": ({
        "kind": "fourier-comparison", "modes": 8, "order": 2,
        "input_state": [1, 0, 1, 0, 1, 0, 1, 0],
    }, (".boson.csv", ".fermion.csv")),
    "unitary": ({"kind": "unitary-robustness"} | FIT_RERUN, (".csv",)),
    "distinguishability": ({"kind": "distinguishability-robustness"} | FIT_RERUN, (".csv",)),
}


def test_criterion_11_byte_identical_reruns(tmp_path):
    """Every experiment kind, run twice, writes the same CSV bytes and the
    same meta.json once its one volatile field, ``timing_seconds``, is gone."""
    compared = []
    for name, (payload, suffixes) in RERUN_CONFIGS.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(payload))
        for label in ("first", "second"):
            code = main([
                "experiment", "--config", str(config),
                "--out", str(tmp_path / f"{name}-{label}"),
            ])
            assert code == 0
        for suffix in suffixes:
            first = (tmp_path / f"{name}-first{suffix}").read_bytes()
            second = (tmp_path / f"{name}-second{suffix}").read_bytes()
            assert first == second, name + suffix
            compared.append(name + suffix)
        metas = []
        for label in ("first", "second"):
            meta = json.loads((tmp_path / f"{name}-{label}.meta.json").read_text())
            assert isinstance(meta.pop("timing_seconds"), float)
            metas.append(json.dumps(meta, indent=2))
        assert metas[0] == metas[1], name
        compared.append(f"{name}.meta.json")
    report(11, f"byte-identical reruns for {compared}")
