from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from symfock import experiments, fock
from symfock.experiments import (
    GRAM_ENSEMBLES,
    derive_seed,
    run_distinguishability_robustness,
    run_fourier_comparison,
    run_mean_probabilities,
    run_unitary_robustness,
    sample_distinguishability,
)
from symfock.fock import ParticleType, require_invariant
from symfock.permutations import Permutation
from symfock.scattering import validate_distinguishability
from symfock.serialize import write_verdict_csvs
from symfock.suppression import EventClass
from symfock.unitaries import UnitarySpec, build_unitary, fourier_symmetry, fourier_unitary

from oracles import assert_same_table, perturb_unitary, reference_census

HOM_PERM = Permutation.parse("(1 2)")
WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)


def small_census(**overrides):
    kwargs = dict(
        permutation=WORKED_PERM,
        input_state=WORKED_INPUT,
        num_bases=4,
        seed=7,
    )
    kwargs.update(overrides)
    return kwargs


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, 3) == derive_seed(5, 3)

    def test_distinct_tasks_decorrelate(self):
        seeds = {derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100


class TestRequireInvariant:
    def test_accepts(self):
        require_invariant(WORKED_PERM, WORKED_INPUT)

    def test_names_offending_cycle(self):
        with pytest.raises(ValueError, match=r"\(4, 5, 6\)"):
            require_invariant(WORKED_PERM, (1, 1, 1, 1, 0, 0, 1, 1))


class TestMeanProbabilities:
    def test_hom_single_basis(self):
        result = run_mean_probabilities(HOM_PERM, (1, 1), num_bases=1, seed=0)
        table = result.tables[ParticleType.BOSON]
        assert table.outputs.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert table.laws.columns["boson_suppressed"][1]
        assert table.p[1] <= 1e-20
        assert table.classes[1] is EventClass.CLASS_III
        assert table.p[0] == pytest.approx(0.5, abs=1e-12)

    def test_table_shapes_and_sums(self):
        result = run_mean_probabilities(**small_census())
        bos = result.tables[ParticleType.BOSON]
        fer = result.tables[ParticleType.FERMION]
        assert len(bos) == 792
        assert len(fer) == 56
        allowed_b = sum(bos.p)
        allowed_f = sum(fer.p)
        assert allowed_b == pytest.approx(1.0, abs=1e-9)
        assert allowed_f == pytest.approx(1.0, abs=1e-9)
        dist_f = sum(fer.p_dist)
        assert dist_f == pytest.approx(1.0, abs=1e-9)  # renormalised reference

    def test_suppressed_rows_are_exact_zeros(self):
        result = run_mean_probabilities(**small_census())
        assert result.metadata["max_suppressed"]["boson"] <= 1e-20
        assert result.metadata["max_suppressed"]["fermion"] <= 1e-20

    def test_deterministic_given_seed(self):
        a = run_mean_probabilities(**small_census())
        b = run_mean_probabilities(**small_census())
        assert a.tables.keys() == b.tables.keys()
        for kind in a.tables:
            assert_same_table(a.tables[kind], b.tables[kind])

    def test_seed_changes_allowed_heights_not_verdicts(self):
        a = run_mean_probabilities(**small_census(seed=1))
        b = run_mean_probabilities(**small_census(seed=2))
        table_a = a.tables[ParticleType.BOSON]
        table_b = b.tables[ParticleType.BOSON]
        assert (table_a.laws.columns["boson_suppressed"].tolist()
                == table_b.laws.columns["boson_suppressed"].tolist())
        assert (abs(table_a.p - table_b.p) > 1e-6).any()

    def test_distinguishable_only(self):
        cfg = small_census(types=(ParticleType.DISTINGUISHABLE,))
        result = run_mean_probabilities(**cfg)
        assert set(result.tables) == {ParticleType.DISTINGUISHABLE}
        total = sum(result.tables[ParticleType.DISTINGUISHABLE].p_dist)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_fermion_only_census_builds_no_boson_lattice(self, monkeypatch, tmp_path):
        every = run_mean_probabilities(**small_census())
        built = []
        generations = fock._generations
        monkeypatch.setattr(fock, "_generations",
                            lambda *args: built.append(args) or generations(*args))
        fock.lattice.cache_clear()
        try:
            fermions = run_mean_probabilities(**small_census(types=(ParticleType.FERMION,)))
        finally:
            fock.lattice.cache_clear()
        assert built == [(8, 5, True)]
        for name, result in (("fermions", fermions), ("every", every)):
            write_verdict_csvs({tmp_path / name: result.tables[ParticleType.FERMION]})
        assert (tmp_path / "fermions").read_bytes() == (tmp_path / "every").read_bytes()

    def test_computes_only_what_its_tables_use(self, monkeypatch, tmp_path):
        calls = Counter()
        probabilities = experiments.probabilities

        def counted(u, r, outputs, kind):
            calls[kind, len(u)] += 1
            return probabilities(u, r, outputs, kind)

        monkeypatch.setattr(experiments, "probabilities", counted)
        monkeypatch.setattr(experiments, "CHUNK", 3)  # 4 bases: sub-stacks of 3 and 1
        dist_only = run_mean_probabilities(**small_census(types=(ParticleType.DISTINGUISHABLE,)))
        assert calls == {(ParticleType.DISTINGUISHABLE, 3): 1, (ParticleType.DISTINGUISHABLE, 1): 1}
        calls.clear()
        every = run_mean_probabilities(**small_census())
        assert calls == {(kind, b): 2 if kind is ParticleType.DISTINGUISHABLE else 1
                         for kind in ParticleType for b in (3, 1)}
        for name, result in (("dist_only", dist_only), ("every", every)):
            write_verdict_csvs({tmp_path / name: result.tables[ParticleType.DISTINGUISHABLE]})
        assert (tmp_path / "dist_only").read_bytes() == (tmp_path / "every").read_bytes()

    @pytest.mark.parametrize("chunk", [2, 3])
    @pytest.mark.parametrize("types", [
        combo for size in (1, 2, 3) for combo in combinations(ParticleType, size)
    ], ids=lambda types: "+".join(kind.value for kind in types))
    def test_stacked_census_equals_per_basis_reference(self, monkeypatch, chunk, types):
        monkeypatch.setattr(experiments, "CHUNK", chunk)  # bases cross sub-stack boundaries
        for num_bases in range(1, 8):
            cfg = small_census(num_bases=num_bases, types=types)
            result = run_mean_probabilities(**cfg)
            tables, max_suppressed = reference_census(**cfg)
            assert result.tables.keys() == tables.keys() == set(types)
            assert list(result.tables) == list(types)
            for kind, table in tables.items():
                assert_same_table(result.tables[kind], table)
            assert ({k: v.hex() for k, v in result.metadata["max_suppressed"].items()}
                    == {k.value: v.hex() for k, v in max_suppressed.items()})

    def test_rejects_non_invariant_input(self):
        with pytest.raises(ValueError, match="invariant"):
            run_mean_probabilities(WORKED_PERM, (1, 1, 1, 1, 0, 0, 1, 1))

    def test_rejects_bunched_fermionic_input(self):
        with pytest.raises(ValueError, match="fermionic"):
            run_mean_probabilities(
                WORKED_PERM, (2, 2, 2, 0, 0, 0, 2, 2),
                types=(ParticleType.FERMION,),
            )


class TestFourierComparison:
    def test_hom_limit(self):
        comparison = run_fourier_comparison(2, 2, (1, 1))
        table = comparison.tables[ParticleType.BOSON]
        assert table.outputs.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert table.laws.columns["boson_suppressed"][1]
        assert table.p[1] <= 1e-20

    def test_n6_m3_verdicts_match_permanent_zeros(self):
        comparison = run_fourier_comparison(6, 3, (1, 0, 1, 0, 1, 0))
        table = comparison.tables[ParticleType.BOSON]
        assert table.laws.columns["boson_suppressed"].tolist() == (table.p <= 1e-20).tolist()

    def test_n6_m3_fermion_laws_coincide(self):
        comparison = run_fourier_comparison(6, 3, (1, 0, 1, 0, 1, 0))
        counts = comparison.metadata["counts"]
        assert counts["fermion_new_law"] == counts["fermion_old_law"]
        assert not comparison.metadata["witnesses"]

    def test_n8_m2_strict_extension(self):
        comparison = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0))
        counts = comparison.metadata["counts"]
        assert counts["fermion_new_law"] > counts["fermion_old_law"]
        assert counts["fermion_new_not_old"] == len(comparison.metadata["witnesses"]) > 0
        table = comparison.tables[ParticleType.FERMION]
        assert (table.p[table.laws.columns["fermion_suppressed"]] <= 1e-20).all()

    def test_bunched_input_skips_fermions(self):
        comparison = run_fourier_comparison(6, 3, (2, 0, 2, 0, 2, 0))
        assert ParticleType.FERMION not in comparison.tables
        assert comparison.metadata["transpositions"] is None

    def test_rejects_non_invariant(self):
        with pytest.raises(ValueError, match="invariant"):
            run_fourier_comparison(6, 3, (1, 1, 0, 0, 0, 1))


class TestUnitaryRobustness:
    GRID = (1e-3, 2e-3, 5e-3, 1e-2)

    def test_hom_quadratic_scaling(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        fit = run_unitary_robustness(
            built.matrix, built.eigenvalues, (1, 1), (1, 1),
            self.GRID, samples=2000, seed=5,
        )
        meta = fit.metadata
        assert meta["exponent"] == pytest.approx(2.0, abs=0.1)
        assert meta["prefactor"] == pytest.approx(meta["predicted_prefactor"], rel=0.2)
        assert meta["predicted_prefactor"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_noise_leaves_suppression_perfect(self):
        from symfock.experiments import PerturbationModel
        from symfock.scattering import prob_boson
        built = build_unitary(UnitarySpec(HOM_PERM))
        model = PerturbationModel(0.0)
        noisy = perturb_unitary(built.matrix, model, np.random.default_rng(1))
        assert prob_boson(noisy, (1, 1), (1, 1)) <= 1e-20

    def test_deterministic(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        fits = [
            run_unitary_robustness(
                built.matrix, built.eigenvalues, (1, 1), (1, 1),
                self.GRID, samples=200, seed=9,
            )
            for _ in range(2)
        ]
        assert fits[0].measured == fits[1].measured

    def test_rejects_unsuppressed_target(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        with pytest.raises(ValueError, match="not law-suppressed"):
            run_unitary_robustness(
                built.matrix, built.eigenvalues, (1, 1), (2, 0),
                self.GRID,
            )

    def test_rejects_short_grid(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        with pytest.raises(ValueError, match="four grid points"):
            run_unitary_robustness(
                built.matrix, built.eigenvalues, (1, 1), (1, 1),
                (1e-3, 1e-2),
            )

    def test_rejects_unsorted_grid(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        with pytest.raises(ValueError, match="ascending"):
            run_unitary_robustness(
                built.matrix, built.eigenvalues, (1, 1), (1, 1),
                (1e-2, 1e-3, 5e-3, 2e-3),
            )

    def test_rejects_zero_samples(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        for fit in (run_unitary_robustness, run_distinguishability_robustness):
            with pytest.raises(ValueError, match="at least one sample"):
                fit(built.matrix, built.eigenvalues, (1, 1), (1, 1),
                    self.GRID, samples=0)

    def test_fermionic_target(self):
        perm, values = fourier_symmetry(4, 2)
        u = fourier_unitary(4)
        fit = run_unitary_robustness(
            u, values, (1, 0, 1, 0), (1, 0, 1, 0),
            self.GRID, ParticleType.FERMION, samples=1500, seed=2, permutation=perm,
        )
        assert fit.metadata["exponent"] == pytest.approx(2.0, abs=0.15)


class TestDistinguishabilityRobustness:
    GRID = (1e-3, 2e-3, 5e-3, 1e-2)

    def test_hom_linear_scaling(self):
        built = build_unitary(UnitarySpec(HOM_PERM))
        fit = run_distinguishability_robustness(
            built.matrix, built.eigenvalues, (1, 1), (1, 1),
            self.GRID, samples=800, seed=3,
        )
        meta = fit.metadata
        assert meta["exponent"] == pytest.approx(1.0, abs=0.1)
        assert meta["prefactor"] == pytest.approx(meta["predicted_prefactor"], rel=0.2)
        assert meta["predicted_prefactor"] == pytest.approx(1.0, abs=1e-9)

    def test_n4_fourier_event(self):
        perm, values = fourier_symmetry(4, 2)
        fit = run_distinguishability_robustness(
            fourier_unitary(4), values, (1, 0, 1, 0), (1, 1, 0, 0),
            self.GRID, samples=800, seed=4, permutation=perm,
        )
        meta = fit.metadata
        assert meta["exponent"] == pytest.approx(1.0, abs=0.1)
        assert meta["prefactor"] == pytest.approx(meta["predicted_prefactor"], rel=0.2)

    @pytest.mark.parametrize("ensemble", GRAM_ENSEMBLES)
    @pytest.mark.parametrize("mean_eps", [0.5000000000000001, 0.8, 1e300])
    def test_mean_deficit_above_half_rejected(self, ensemble, mean_eps):
        """Deficits are uniform on [0, 2 mean_eps]: above 0.5 some would exceed 1."""
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=r"^mean distinguishability deficit .* is above 0\.5"):
            sample_distinguishability(3, mean_eps, rng, ensemble, count=2)

    @pytest.mark.parametrize("ensemble", GRAM_ENSEMBLES)
    def test_mean_deficit_of_half_draws_valid_matrices(self, ensemble):
        grams, _ = sample_distinguishability(4, 0.5, np.random.default_rng(2), ensemble, count=300)
        for gram in grams:
            validate_distinguishability(gram)

    @pytest.mark.parametrize("ensemble", GRAM_ENSEMBLES)
    @pytest.mark.parametrize("grid", [(0.1, 0.2, 0.4, 0.8), (1e300, 2e300, 3e300, 4e300)])
    def test_grid_above_half_rejected_before_any_sample(self, ensemble, grid, monkeypatch):
        monkeypatch.setattr(experiments, "sample_distinguishability",
                            lambda *args, **kwargs: pytest.fail("sampled"))
        built = build_unitary(UnitarySpec(HOM_PERM))
        with pytest.raises(ValueError, match=r"is above 0\.5"):
            run_distinguishability_robustness(built.matrix, built.eigenvalues, (1, 1), (1, 1),
                                              grid, samples=10, ensemble=ensemble)

    @pytest.mark.parametrize("ensemble", ["independent", "gram"])
    def test_sampled_matrices_are_valid(self, ensemble):
        rng = np.random.default_rng(6)
        for mean_eps in [1e-3, 1e-2, 0.1]:
            gram, _ = sample_distinguishability(5, mean_eps, rng, ensemble)
            validate_distinguishability(gram)

    def test_gram_ensemble_never_repairs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            _, repaired = sample_distinguishability(4, 1e-2, rng, "gram")
            assert not repaired

    def test_repairs_recorded_in_metadata(self):
        perm, values = fourier_symmetry(4, 2)
        fit = run_distinguishability_robustness(
            fourier_unitary(4), values, (1, 0, 1, 0), (1, 1, 0, 0),
            self.GRID, samples=100, seed=5, permutation=perm,
        )
        assert fit.metadata["psd_repairs"] >= 0
        assert fit.metadata["ensemble"] == "independent"

    def test_unknown_ensemble_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="ensemble"):
            sample_distinguishability(3, 1e-3, rng, "legendre")

    @pytest.mark.parametrize("ensemble, mean_eps, eta_scale", [
        *((ensemble, mean_eps, 1.0) for ensemble in GRAM_ENSEMBLES
          for mean_eps in (-1e-3, np.inf, np.nan, 1e308)),
        *(("independent", 1e-3, eta_scale) for eta_scale in (-1.0, np.inf, np.nan)),
    ])
    def test_bad_noise_ranges_rejected(self, ensemble, mean_eps, eta_scale):
        # the ranges rng.uniform refused; the gram ensemble has no eta
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="^mean_eps and eta_scale must be finite and non-negative$"):
            sample_distinguishability(3, mean_eps, rng, ensemble, eta_scale, count=2)
        if mean_eps == 1e-3:
            sample_distinguishability(3, mean_eps, rng, "gram", eta_scale, count=2)


class TestGracefulDegradation:
    def test_first_order_residual_grows_with_noise(self, capsys):
        # documentation only: the quadratic model drifts as the noise leaves
        # the perturbative regime; nothing is asserted past the small end
        built = build_unitary(UnitarySpec(HOM_PERM))
        grid = (1e-3, 1e-2, 1e-1, 3e-1)
        fit = run_unitary_robustness(
            built.matrix, built.eigenvalues, (1, 1), (1, 1),
            grid, samples=1500, seed=14,
        )
        predicted = fit.metadata["predicted_prefactor"]
        ratios = [m / (predicted * g**2) for g, m in zip(grid, fit.measured)]
        print("first-order ratio per grid point:",
              " ".join(f"{g:g}:{r:.3f}" for g, r in zip(grid, ratios)))
        assert ratios[0] == pytest.approx(1.0, rel=0.2)
