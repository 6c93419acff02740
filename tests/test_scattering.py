from itertools import product
from math import prod

import numpy as np
import pytest

from symfock.experiments import PerturbationModel
from symfock.fock import ParticleType, enumerate_outputs, occupation_to_assignment
from symfock.scattering import (
    PARTIAL_MAX,
    _check_outputs,
    prob_boson,
    prob_distinguishable,
    prob_fermion,
    prob_partial,
    probabilities,
    scattering_matrix,
    validate_distinguishability,
)

from oracles import (
    haar_random_unitary,
    is_unitary,
    permanent_naive,
    perturb_unitary,
)

BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def classical_routing_prob(u, occupation_in, occupation_out):
    """Independent oracle for distinguishable particles: enumerate every way
    the labelled particles can land on modes with the target occupation."""
    n = u.shape[0]
    starts = [m - 1 for m in occupation_to_assignment(occupation_in)]
    total = 0.0
    for landing in product(range(n), repeat=len(starts)):
        counts = [0] * n
        for mode in landing:
            counts[mode] += 1
        if tuple(counts) == tuple(occupation_out):
            total += prod(abs(u[j, k]) ** 2 for j, k in zip(starts, landing))
    return total


class TestScatteringMatrix:
    def test_full_occupancy_returns_u(self):
        rng = np.random.default_rng(0)
        u = haar_random_unitary(3, rng)
        assert np.array_equal(scattering_matrix(u, (1, 1, 1), (1, 1, 1)), u)

    def test_repeated_row_for_bunched_input(self):
        u = np.arange(4, dtype=complex).reshape(2, 2)
        m = scattering_matrix(u, (2, 0), (1, 1))
        assert np.array_equal(m, np.array([[0, 1], [0, 1]], dtype=complex))

    def test_worked_example_duplicated_column(self):
        rng = np.random.default_rng(1)
        u = haar_random_unitary(8, rng)
        m = scattering_matrix(u, (1, 1, 1, 0, 0, 0, 1, 1), (0, 2, 0, 1, 1, 1, 0, 0))
        assert m.shape == (5, 5)
        rows = [0, 1, 2, 6, 7]
        assert np.array_equal(m[:, 0], u[rows, 1])
        assert np.array_equal(m[:, 1], u[rows, 1])
        assert np.array_equal(m[:, 2], u[rows, 3])

    def test_particle_number_mismatch(self):
        with pytest.raises(ValueError, match="particle numbers"):
            scattering_matrix(np.eye(2), (1, 1), (1, 0))


class TestHongOuMandel:
    def test_coincidence_dip(self):
        assert prob_boson(BEAM_SPLITTER, (1, 1), (1, 1)) <= 1e-20

    def test_bunched_outputs_split_evenly(self):
        # forced by the dip, normalisation and the 1<->2 mirror symmetry
        p20 = prob_boson(BEAM_SPLITTER, (1, 1), (2, 0))
        p02 = prob_boson(BEAM_SPLITTER, (1, 1), (0, 2))
        assert p20 == pytest.approx(0.5, abs=1e-12)
        assert p02 == pytest.approx(0.5, abs=1e-12)
        assert p20 + p02 + prob_boson(BEAM_SPLITTER, (1, 1), (1, 1)) == pytest.approx(1.0)

    def test_fermions_antibunch(self):
        assert prob_fermion(BEAM_SPLITTER, (1, 1), (1, 1)) == pytest.approx(1.0)

    def test_fermion_double_occupation_rejected(self):
        with pytest.raises(ValueError, match="fermionic"):
            prob_fermion(BEAM_SPLITTER, (1, 1), (2, 0))

    def test_distinguishable_table_matches_classical_enumeration(self):
        for s in [(1, 1), (2, 0), (0, 2)]:
            expected = classical_routing_prob(BEAM_SPLITTER, (1, 1), s)
            assert prob_distinguishable(BEAM_SPLITTER, (1, 1), s) == pytest.approx(expected)
        assert prob_distinguishable(BEAM_SPLITTER, (1, 1), (1, 1)) == pytest.approx(0.5)
        assert prob_distinguishable(BEAM_SPLITTER, (1, 1), (2, 0)) == pytest.approx(0.25)


class TestIdentityRouting:
    def test_identity_routes_bosons(self):
        u = np.eye(4, dtype=complex)
        assert prob_boson(u, (2, 1, 0, 0), (2, 1, 0, 0)) == pytest.approx(1.0)
        assert prob_boson(u, (2, 1, 0, 0), (1, 2, 0, 0)) == 0.0

    def test_identity_routes_fermions_and_distinguishable(self):
        u = np.eye(3, dtype=complex)
        assert prob_fermion(u, (1, 0, 1), (1, 0, 1)) == pytest.approx(1.0)
        assert prob_distinguishable(u, (1, 0, 1), (1, 0, 1)) == pytest.approx(1.0)

    def test_permutation_matrix_is_an_indicator(self):
        u = np.zeros((3, 3), dtype=complex)
        u[0, 2] = u[1, 0] = u[2, 1] = 1.0
        assert prob_boson(u, (1, 1, 0), (1, 0, 1)) == pytest.approx(1.0)
        assert prob_boson(u, (1, 1, 0), (1, 1, 0)) == 0.0

    def test_full_fermionic_occupancy_is_certain(self):
        rng = np.random.default_rng(4)
        u = haar_random_unitary(4, rng)
        assert prob_fermion(u, (1, 1, 1, 1), (1, 1, 1, 1)) == pytest.approx(1.0)


class TestNormalization:
    @pytest.mark.parametrize("n,particles", [(2, 2), (3, 2), (4, 3), (5, 3), (6, 4)])
    def test_sums_to_one_each_type(self, n, particles):
        rng = np.random.default_rng(n * 10 + particles)
        u = haar_random_unitary(n, rng)
        for kind, fn in [
            (ParticleType.BOSON, prob_boson),
            (ParticleType.DISTINGUISHABLE, prob_distinguishable),
        ]:
            rng_r = np.random.default_rng(particles)
            r = tuple(int(x) for x in rng_r.multinomial(particles, [1 / n] * n))
            total = sum(fn(u, r, s) for s in enumerate_outputs(n, particles, kind))
            assert total == pytest.approx(1.0, abs=1e-10)
        r = (1,) * particles + (0,) * (n - particles)
        total = sum(
            prob_fermion(u, r, s) for s in enumerate_outputs(n, particles, ParticleType.FERMION)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_boson_matches_naive_permanent_route(self):
        rng = np.random.default_rng(77)
        u = haar_random_unitary(4, rng)
        r, s = (2, 1, 0, 0), (1, 0, 1, 1)
        m = scattering_matrix(u, r, s)
        expected = abs(permanent_naive(m)) ** 2 / (2 * 1)
        assert prob_boson(u, r, s) == pytest.approx(expected, rel=1e-12)


class TestPhaseAndRelabelingInvariance:
    def test_local_phases_change_nothing(self):
        rng = np.random.default_rng(21)
        u = haar_random_unitary(4, rng)
        phases_in = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        phases_out = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        v = phases_in[:, None] * u * phases_out[None, :]
        r, s = (1, 2, 0, 0), (0, 1, 1, 1)
        for fn in (prob_boson, prob_distinguishable):
            assert fn(v, r, s) == pytest.approx(fn(u, r, s), abs=1e-10)
        rf, sf = (1, 1, 0, 0), (0, 1, 0, 1)
        assert prob_fermion(v, rf, sf) == pytest.approx(prob_fermion(u, rf, sf), abs=1e-10)

    def test_simultaneous_mode_relabeling(self):
        rng = np.random.default_rng(22)
        u = haar_random_unitary(4, rng)
        order_in = [2, 0, 3, 1]
        order_out = [1, 3, 0, 2]
        v = u[np.ix_(order_in, order_out)]
        r, s = (1, 0, 2, 0), (1, 1, 0, 1)
        r_new = tuple(r[j] for j in order_in)
        s_new = tuple(s[k] for k in order_out)
        for fn in (prob_boson, prob_distinguishable):
            assert fn(v, r_new, s_new) == pytest.approx(fn(u, r, s), abs=1e-12)


class TestPartialDistinguishability:
    def test_all_ones_limit_recovers_bosons(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            u = haar_random_unitary(4, rng)
            ones = np.ones((4, 4), dtype=complex)
            for r, s in [((1, 1, 0, 0), (0, 1, 1, 0)), ((2, 0, 1, 0), (1, 1, 1, 0))]:
                assert prob_partial(u, r, s, ones, ParticleType.BOSON) == pytest.approx(
                    prob_boson(u, r, s), abs=1e-10
                )

    def test_all_ones_limit_recovers_fermions(self):
        rng = np.random.default_rng(31)
        u = haar_random_unitary(4, rng)
        ones = np.ones((4, 4), dtype=complex)
        r, s = (1, 1, 0, 0), (0, 1, 0, 1)
        assert prob_partial(u, r, s, ones, ParticleType.FERMION) == pytest.approx(
            prob_fermion(u, r, s), abs=1e-10
        )

    def test_identity_limit_recovers_distinguishable(self):
        rng = np.random.default_rng(32)
        u = haar_random_unitary(4, rng)
        eye = np.eye(4, dtype=complex)
        for r, s, kind in [
            ((1, 1, 0, 0), (0, 1, 1, 0), ParticleType.FERMION),
            ((1, 0, 1, 1), (1, 1, 1, 0), ParticleType.BOSON),
            ((2, 0, 1, 0), (1, 1, 1, 0), ParticleType.BOSON),  # bunched bosonic input
        ]:
            assert prob_partial(u, r, s, eye, kind) == pytest.approx(
                prob_distinguishable(u, r, s), abs=1e-10
            )

    def test_hom_closed_form_in_overlap(self):
        # two-particle coincidence: P = (1 - |S12|^2)/2, so P(eps) = eps - eps^2/2
        for eps in [0.0, 1e-4, 1e-3, 0.05, 0.3, 1.0]:
            gram = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]], dtype=complex)
            p = prob_partial(BEAM_SPLITTER, (1, 1), (1, 1), gram, ParticleType.BOSON)
            assert p == pytest.approx(eps - eps**2 / 2, abs=1e-12)

    def test_hom_interpolates_monotonically(self):
        values = []
        for eps in np.linspace(0.0, 1.0, 11):
            gram = np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]], dtype=complex)
            values.append(prob_partial(BEAM_SPLITTER, (1, 1), (1, 1), gram, ParticleType.BOSON))
        assert values[0] <= 1e-20
        assert values[-1] == pytest.approx(0.5)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_fermionic_multiple_occupation_rejected(self):
        with pytest.raises(ValueError, match="fermionic"):
            prob_partial(BEAM_SPLITTER, (2, 0), (1, 1), np.eye(2), ParticleType.FERMION)

    def test_distinguishable_kind_rejected(self):
        with pytest.raises(ValueError, match="bosons or fermions"):
            prob_partial(BEAM_SPLITTER, (1, 1), (1, 1), np.eye(2), ParticleType.DISTINGUISHABLE)

    def test_particle_cap(self):
        n = PARTIAL_MAX + 1
        u = np.eye(n, dtype=complex)
        r = (1,) * n
        with pytest.raises(ValueError, match=f"N <= {PARTIAL_MAX}"):
            prob_partial(u, r, r, np.ones((n, n)), ParticleType.BOSON)

    def test_invalid_gram_rejected(self):
        bad = np.array([[1.0, 0.5], [0.3, 1.0]], dtype=complex)  # not Hermitian
        with pytest.raises(ValueError, match="Hermitian"):
            prob_partial(BEAM_SPLITTER, (1, 1), (1, 1), bad, ParticleType.BOSON)


class TestDistinguishabilityValidation:
    def test_accepts_valid(self):
        gram = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        validate_distinguishability(gram)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate_distinguishability(np.array([[0.9, 0.0], [0.0, 1.0]]))

    def test_rejects_oversized_entry(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite|<= 1"):
            validate_distinguishability(bad)

    def test_rejects_non_psd(self):
        bad = np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex
        )
        with pytest.raises(ValueError, match="positive semidefinite"):
            validate_distinguishability(bad)


class TestPerturbUnitary:
    def test_zero_amplitude_is_identity_map(self):
        rng = np.random.default_rng(50)
        u = haar_random_unitary(3, rng)
        model = PerturbationModel(0.0)
        assert np.array_equal(perturb_unitary(u, model, np.random.default_rng(1)), u)

    @pytest.mark.parametrize("distribution", ["ring", "gaussian", "disk"])
    def test_sample_mean_modulus(self, distribution):
        model = PerturbationModel(1e-3, distribution=distribution)
        rng = np.random.default_rng(51)
        draws = model.sample((100, 100), rng)
        assert np.mean(np.abs(draws)) == pytest.approx(1e-3, rel=0.05)
        assert abs(np.mean(draws)) < 1e-4  # zero mean ensemble

    def test_entrywise_relative_deviation(self):
        rng = np.random.default_rng(52)
        u = haar_random_unitary(4, rng)
        model = PerturbationModel(1e-3, distribution="ring")
        v = perturb_unitary(u, model, rng)
        rel = np.abs(v - u) / np.abs(u)
        assert np.allclose(rel, 1e-3, rtol=1e-6)

    def test_unitarity_residual_scales_linearly(self):
        rng = np.random.default_rng(53)
        u = haar_random_unitary(4, rng)
        for amp in [1e-4, 1e-3, 1e-2]:
            model = PerturbationModel(amp, distribution="ring")
            v = perturb_unitary(u, model, np.random.default_rng(9))
            gram = v.conj().T @ v - np.eye(4)
            residual = np.max(np.abs(gram))
            assert residual < 10 * amp
            assert residual > amp / 10
            assert not is_unitary(v, amp / 10)

    def test_seeded_generator_reproducible(self):
        u = np.eye(3, dtype=complex)
        model = PerturbationModel(1e-2)
        assert np.array_equal(perturb_unitary(u, model, np.random.default_rng(7)),
                              perturb_unitary(u, model, np.random.default_rng(7)))

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            PerturbationModel(-1.0)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            PerturbationModel(0.1, distribution="cauchy")


UNITARY = haar_random_unitary(4, 5)
#: (kind, outputs, the message): each list's first bad row is named, as
#: ``fock.check_occupation`` or the particle count names it.
BAD_OUTPUTS = [
    (ParticleType.BOSON, [(1, 1, 0, 0), (2, -1, 1, 0), (0, -2, 2, 2)],
     "negative occupation in (2, -1, 1, 0)"),
    (ParticleType.DISTINGUISHABLE, [(-1, 2, 1, 0)], "negative occupation in (-1, 2, 1, 0)"),
    (ParticleType.FERMION, [(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0), (0, 0, 0, 2)],
     "fermionic occupation exceeds 1 in (2, 0, 0, 0)"),
    (ParticleType.FERMION, [(1, 1, 0, 0), (1, -1, 1, 1)],
     "negative occupation in (1, -1, 1, 1)"),
    (ParticleType.BOSON, [(1, 1, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0)],
     "particle numbers differ: sum(1, 1, 0, 0)=2 vs sum(3, 0, 0, 0)=3"),
    (ParticleType.FERMION, [(0, 0, 1, 0)],
     "particle numbers differ: sum(1, 1, 0, 0)=2 vs sum(0, 0, 1, 0)=1"),
    (ParticleType.BOSON, [(1, 1, 0)], "occupation over 3 modes, expected 4"),
]


@pytest.mark.parametrize("kind, outputs, message", BAD_OUTPUTS)
def test_bad_outputs_raise_the_usual_messages(kind, outputs, message):
    """The reductions that check a list of outputs find every bad list, and
    the error names the same first bad row as a row-by-row check would."""
    fermionic = kind is ParticleType.FERMION
    with pytest.raises(ValueError) as checked:
        _check_outputs(UNITARY[None], (1, 1, 0, 0), outputs, fermionic)
    assert str(checked.value) == message
    for u in (UNITARY, np.stack([UNITARY, UNITARY])):
        with pytest.raises(ValueError) as computed:
            probabilities(u, (1, 1, 0, 0), outputs, kind)
        assert str(computed.value) == message


def test_good_outputs_pass_the_checks():
    """Empty lists, rows at the bounds and a bunched boson output pass."""
    for kind, outputs in ((ParticleType.BOSON, [(2, 0, 0, 0), (0, 0, 0, 2), (1, 0, 0, 1)]),
                          (ParticleType.FERMION, [(1, 1, 0, 0), (0, 0, 1, 1)]),
                          (ParticleType.DISTINGUISHABLE, [])):
        p = probabilities(UNITARY, (1, 1, 0, 0), outputs, kind)
        assert p.shape == (len(outputs),) and (p >= 0).all()


@pytest.mark.parametrize("kind, outputs", [
    (ParticleType.BOSON, [(1, 1)]),
    (ParticleType.FERMION, [(1, 1)]),
    (ParticleType.DISTINGUISHABLE, [(2, 0), (1, 1), (0, 2)]),  # the lattice: the expansion
])
def test_non_finite_probability_is_an_arithmetic_error(kind, outputs):
    """Finite entries whose products overflow give no probability, even
    where numpy only warns."""
    huge = np.array([[1e200, 1e200], [1e200, -1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="not finite"):
            probabilities(huge, (1, 1), outputs, kind)


@pytest.mark.parametrize("outputs", [[(1, 1)], [(2, 0), (1, 1), (0, 2)]], ids=["lone", "lattice"])
def test_overflowing_squares_are_an_arithmetic_error_on_any_list(outputs):
    """|M|^2 of finite entries that overflows is no usage error: a lone output
    (one permanent per output) raises what the lattice (the expansion)
    raises."""
    u = np.array([[1e200, -1e200], [1e200, 1e200]])
    with np.errstate(all="ignore"):
        with pytest.raises(ArithmeticError, match="^probability inf is not finite$"):
            probabilities(u, [1, 1], outputs, ParticleType.DISTINGUISHABLE)
