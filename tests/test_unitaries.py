from dataclasses import replace

import numpy as np
import pytest

from symfock import unitaries
from symfock.experiments import derive_seed
from symfock.fock import ParticleType, enumerate_outputs
from symfock.linalg import is_unitary
from symfock.permutations import Permutation, RootOfUnity, symmetry_residual
from symfock.scattering import prob_boson, prob_distinguishable, prob_fermion
from symfock.suppression import boson_suppressed
from symfock.unitaries import (
    SymmetryError,
    UnitarySpec,
    build_unitaries,
    build_unitary,
    eigenvalue_sorted_order,
    fourier_symmetry,
    fourier_unitary,
)

from oracles import reference_unitary

BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestBuildUnitary:
    def test_swap_gives_beam_splitter(self):
        built = build_unitary(UnitarySpec(Permutation.parse("(1 2)")))
        assert np.allclose(built.matrix, BEAM_SPLITTER)
        assert built.eigenvalues == (RootOfUnity(0, 1), RootOfUnity(1, 2))

    def test_rotated_eigenbasis_keeps_both_invariants(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        for seed in [0, 1, 99]:
            built = build_unitary(UnitarySpec(p, rotation_seed=seed))
            assert is_unitary(built.matrix, 1e-12)
            theta = np.ones(8)
            assert symmetry_residual(p, built.matrix, theta, built.eigenvalues) <= 1e-12

    def test_identity_permutation_predicts_nothing(self):
        built = build_unitary(UnitarySpec(Permutation.identity(3), rotation_seed=5))
        assert all(v == RootOfUnity(0, 1) for v in built.eigenvalues)
        assert is_unitary(built.matrix, 1e-12)
        for s in enumerate_outputs(3, 2, ParticleType.BOSON):
            assert not boson_suppressed(built.eigenvalues, s)

    def test_phases_applied(self):
        theta = (0.3, -1.2)
        sigma = (0.0, 2.2)
        built = build_unitary(UnitarySpec(Permutation.parse("(1 2)"), theta, sigma))
        expected = np.exp(1j * np.array(theta))[:, None] * BEAM_SPLITTER * np.exp(
            1j * np.array(sigma)
        )[None, :]
        assert np.allclose(built.matrix, expected)
        assert symmetry_residual(
            built.spec.permutation, built.matrix, np.exp(1j * np.array(theta)), built.eigenvalues
        ) <= 1e-12

    def test_column_order_reorders_eigenvalues_in_lockstep(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        # group equal eigenvalues the way the worked example lists them
        order = (1, 4, 7, 2, 5, 3, 6, 8)
        built = build_unitary(UnitarySpec(p, column_order=order))
        assert [str(v) for v in built.eigenvalues] == [
            "0/1", "0/1", "0/1", "1/3", "1/3", "2/3", "2/3", "1/2",
        ]
        canonical = build_unitary(UnitarySpec(p))
        assert np.allclose(built.matrix, canonical.matrix[:, [c - 1 for c in order]])

    def test_eigenvalue_sorted_order_helper(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        built = build_unitary(UnitarySpec(p, column_order=eigenvalue_sorted_order(
            build_unitary(UnitarySpec(p)).eigenvalues)))
        assert list(built.eigenvalues) == sorted(built.eigenvalues)

    def test_bad_column_order_rejected(self):
        with pytest.raises(ValueError, match="column_order"):
            build_unitary(UnitarySpec(Permutation.parse("(1 2)"), column_order=(1, 1)))

    def test_bad_phase_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            build_unitary(UnitarySpec(Permutation.parse("(1 2)"), theta_phases=(0.0,)))

    def test_rotation_seed_reproducible(self):
        p = Permutation.parse("(1 2 3 4)")
        a = build_unitary(UnitarySpec(p, rotation_seed=11)).matrix
        b = build_unitary(UnitarySpec(p, rotation_seed=11)).matrix
        assert a.tobytes() == b.tobytes()

    def test_verdicts_independent_of_rotation_seed(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        reference = None
        for seed in range(100):
            built = build_unitary(UnitarySpec(p, rotation_seed=seed))
            verdicts = tuple(
                boson_suppressed(built.eigenvalues, s)
                for s in enumerate_outputs(8, 2, ParticleType.BOSON)
            )
            if reference is None:
                reference = verdicts
            assert verdicts == reference

    def test_local_phases_do_not_move_probabilities(self):
        p = Permutation.parse("(1 2 3)(4 5)")
        rng = np.random.default_rng(3)
        base = build_unitary(UnitarySpec(p, rotation_seed=8))
        r = (1, 1, 1, 0, 0)
        s_b = (0, 1, 1, 1, 0)
        s_f = (1, 0, 1, 1, 0)
        for _ in range(5):
            theta = tuple(rng.uniform(0, 2 * np.pi, 5))
            sigma = tuple(rng.uniform(0, 2 * np.pi, 5))
            dressed = build_unitary(UnitarySpec(p, theta, sigma, rotation_seed=8))
            assert prob_boson(dressed.matrix, r, s_b) == pytest.approx(
                prob_boson(base.matrix, r, s_b), abs=1e-10
            )
            assert prob_fermion(dressed.matrix, r, s_f) == pytest.approx(
                prob_fermion(base.matrix, r, s_f), abs=1e-10
            )
            assert prob_distinguishable(dressed.matrix, r, s_b) == pytest.approx(
                prob_distinguishable(base.matrix, r, s_b), abs=1e-10
            )


class TestFourierUnitary:
    def test_two_modes_is_beam_splitter(self):
        assert np.allclose(fourier_unitary(2), BEAM_SPLITTER)

    def test_entry_closed_form(self):
        u = fourier_unitary(4)
        assert u[1, 1] == pytest.approx(0.5j)  # exp(i*pi/2)/2

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8])
    def test_unitary(self, n):
        assert is_unitary(fourier_unitary(n), 1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            fourier_unitary(0)


class TestFourierSymmetry:
    def test_n6_m3(self):
        perm, values = fourier_symmetry(6, 3)
        assert perm.one_line() == (3, 4, 5, 6, 1, 2)  # shift by n/m = 2
        assert [str(v) for v in values] == ["0/1", "1/3", "2/3", "0/1", "1/3", "2/3"]

    def test_n2_m2_is_hom(self):
        perm, values = fourier_symmetry(2, 2)
        assert perm.one_line() == (2, 1)
        assert values == (RootOfUnity(0, 1), RootOfUnity(1, 2))

    def test_n6_m2_alternates(self):
        perm, values = fourier_symmetry(6, 2)
        assert perm.one_line() == (4, 5, 6, 1, 2, 3)
        assert [str(v) for v in values] == ["0/1", "1/2"] * 3

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 9, 12])
    def test_entrywise_relation_for_every_divisor(self, n):
        u = fourier_unitary(n)
        for m in range(2, n + 1):
            if n % m:
                continue
            perm, values = fourier_symmetry(n, m)
            lam = np.array([v.to_complex() for v in values])
            assert np.max(np.abs(u[list(perm.image), :] - u * lam[None, :])) <= 1e-12
            assert perm.order() == m

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            fourier_symmetry(6, 4)

    def test_trivial_order_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fourier_symmetry(6, 1)


WORKED = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
STACK_SPECS = {
    "worked": UnitarySpec(WORKED),
    "identity": UnitarySpec(Permutation.identity(5)),
    "six-cycle": UnitarySpec(Permutation.parse("(1 2 3 4 5 6)")),
    "phases": UnitarySpec(WORKED, theta_phases=tuple(np.linspace(0.3, 2.9, 8)),
                          sigma_phases=tuple(np.linspace(-1.0, 4.0, 8))),
    "column-order": UnitarySpec(WORKED, column_order=(1, 4, 7, 2, 5, 3, 6, 8)),
}


class TestBuildUnitaries:
    """The stacked builder against the one-basis oracle, bit for bit."""

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7, 100])
    def test_every_member_is_the_lone_build(self, name, count):
        spec = STACK_SPECS[name]
        seeds = [derive_seed(11, index) for index in range(count)]
        built = build_unitaries(spec, seeds)
        assert built.matrices.shape == (count, spec.permutation.n, spec.permutation.n)
        for seed, matrix in zip(seeds, built.matrices):
            lone = reference_unitary(replace(spec, rotation_seed=seed))
            assert matrix.tobytes() == lone.matrix.tobytes()
            assert built.eigenvalues == lone.eigenvalues
        worst = max(float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))) for m in built.matrices)
        assert built.unitarity_residual == pytest.approx(worst, abs=1e-15)
        assert 0 <= built.symmetry_residual <= 1e-12

    @pytest.mark.parametrize("name", sorted(STACK_SPECS))
    @pytest.mark.parametrize("seed", [None, 0, 7, 2**64 - 1])
    def test_build_unitary_is_the_one_seed_case(self, name, seed):
        spec = replace(STACK_SPECS[name], rotation_seed=seed)
        built, lone = build_unitary(spec), reference_unitary(spec)
        assert built.matrix.tobytes() == lone.matrix.tobytes()
        assert built.eigenvalues == lone.eigenvalues and built.spec == spec

    def test_no_seeds_gives_the_unrotated_member(self):
        built = build_unitaries(STACK_SPECS["worked"], None)
        assert built.matrices.shape == (1, 8, 8)
        assert built.matrices[0].tobytes() == reference_unitary(STACK_SPECS["worked"]).matrix.tobytes()

    def test_a_broken_member_fails_the_unitarity_check(self, monkeypatch):
        """A QR that spoils the block of one member in the middle of the
        stack is caught: the check runs over every member."""
        real_qr = np.linalg.qr

        def spoiled_qr(z):
            q, r = real_qr(z)
            if q.ndim == 3:
                q = q.copy()
                q[3] *= 1.01
            return q, r

        monkeypatch.setattr(np.linalg, "qr", spoiled_qr)
        with pytest.raises(SymmetryError, match="constructed matrix failed the unitarity check"):
            build_unitaries(STACK_SPECS["worked"], list(range(6)))

    def test_a_broken_member_fails_the_mode_exchange_check(self, monkeypatch):
        """Swapping two columns of different eigenvalues in one member keeps
        it unitary but breaks P U = Z U D for that member alone."""
        real_rotate = unitaries._rotate

        def rotate_then_swap(basis, values, seeds):
            real_rotate(basis, values, seeds)
            basis[4][:, [0, 1]] = basis[4][:, [1, 0]]  # eigenvalues 1 and exp(2 pi i / 3)

        monkeypatch.setattr(unitaries, "_rotate", rotate_then_swap)
        with pytest.raises(SymmetryError, match="mode-exchange residual .* exceeds 1e-12"):
            build_unitaries(STACK_SPECS["worked"], list(range(6)))

    def test_messages_are_those_of_the_lone_build(self):
        with pytest.raises(ValueError, match=r"column_order is not a permutation of 1\.\.2"):
            build_unitaries(UnitarySpec(Permutation.parse("(1 2)"), column_order=(2, 2)), [1, 2])
        with pytest.raises(ValueError, match="theta phase list must have length 2"):
            build_unitaries(UnitarySpec(Permutation.parse("(1 2)"), theta_phases=(0.0,)), [1])
        with pytest.raises(ValueError, match="need at least one rotation seed"):
            build_unitaries(UnitarySpec(Permutation.parse("(1 2)")), [])
