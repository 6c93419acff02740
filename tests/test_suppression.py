from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfock.fock import ParticleType, assignment_to_occupation, enumerate_outputs
from symfock.fock import occupation_to_assignment
from symfock.permutations import Permutation, RootOfUnity, eigenstructure
from symfock.scattering import prob_boson, prob_fermion, probabilities
from symfock.suppression import (
    EventClass,
    boson_suppressed,
    classify_event,
    fermion_suppressed,
    final_distribution,
    initial_distribution,
    old_fourier_fermion_suppressed,
    output_laws,
    transposition_count,
)
from symfock.unitaries import UnitarySpec, build_unitary, fourier_symmetry, fourier_unitary


# --- oracle: exact Fraction arithmetic, one output at a time -----------------

def phase_sum(distribution) -> Fraction:
    """Exact sum of the phase fractions, reduced modulo one turn."""
    return sum((v.turns for v in distribution), Fraction(0)) % 1


def oracle_distribution(eigenvalues, s):
    return tuple(sorted(eigenvalues[mode - 1] for mode in occupation_to_assignment(s)))


def oracle_boson(eigenvalues, s) -> bool:
    return phase_sum(oracle_distribution(eigenvalues, s)) != 0


def oracle_fermion(p, r, eigenvalues, s) -> bool:
    return oracle_distribution(eigenvalues, s) != initial_distribution(p, r)


def oracle_parity(eigenvalues, s, w) -> bool:
    return phase_sum(oracle_distribution(eigenvalues, s)) != Fraction(w, 2) % 1


ROOT = RootOfUnity
WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)
# the worked example orders the diagonal as 1,1,1, w,w, w^2,w^2, -1
WORKED_ORDER = (1, 4, 7, 2, 5, 3, 6, 8)
WORKED_D = build_unitary(UnitarySpec(WORKED_PERM, column_order=WORKED_ORDER)).eigenvalues


class TestFinalDistribution:
    def test_worked_example(self):
        dist = final_distribution(WORKED_D, (0, 2, 0, 1, 1, 1, 0, 0))
        assert dist == tuple(sorted([ROOT(0, 1), ROOT(0, 1), ROOT(1, 3), ROOT(1, 3), ROOT(2, 3)]))

    def test_bunched_on_a_unit_mode(self):
        dist = final_distribution(WORKED_D, (3, 0, 0, 0, 0, 0, 0, 0))
        assert dist == (ROOT(0, 1),) * 3

    def test_identity_permutation_always_trivial(self):
        values = build_unitary(UnitarySpec(Permutation.identity(4))).eigenvalues
        assert final_distribution(values, (0, 2, 1, 1)) == (ROOT(0, 1),) * 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="eigenvalues"):
            final_distribution(WORKED_D, (1, 0))

    def test_rejects_non_roots(self):
        with pytest.raises(TypeError):
            final_distribution([1.0] * 2, (1, 1))


class TestInitialDistribution:
    def test_worked_example(self):
        dist = initial_distribution(WORKED_PERM, WORKED_INPUT)
        assert dist == tuple(
            sorted([ROOT(1, 3), ROOT(2, 3), ROOT(0, 1), ROOT(1, 2), ROOT(0, 1)])
        )

    def test_single_fixed_point(self):
        p = Permutation.parse("(1 2)", n=3)
        assert initial_distribution(p, (0, 0, 1)) == (ROOT(0, 1),)

    def test_hom(self):
        assert initial_distribution(Permutation.parse("(1 2)"), (1, 1)) == (
            ROOT(0, 1),
            ROOT(1, 2),
        )

    def test_rejects_multiple_occupation(self):
        with pytest.raises(ValueError, match="fermionic"):
            initial_distribution(Permutation.parse("(1 2)"), (2, 0))

    def test_rejects_non_invariant(self):
        with pytest.raises(ValueError, match="invariant"):
            initial_distribution(Permutation.parse("(1 2)"), (1, 0))


class TestBosonLaw:
    def test_worked_example_phase_sum(self):
        dist = final_distribution(WORKED_D, (0, 2, 0, 1, 1, 1, 0, 0))
        assert phase_sum(dist) == Fraction(1, 3)  # 2*(2pi/3) + 4pi/3 = 8pi/3 ~ 2pi/3
        assert boson_suppressed(WORKED_D, (0, 2, 0, 1, 1, 1, 0, 0))

    def test_hom_dip_predicted(self):
        d = (ROOT(0, 1), ROOT(1, 2))
        assert boson_suppressed(d, (1, 1))
        assert not boson_suppressed(d, (2, 0))
        assert not boson_suppressed(d, (0, 2))

    def test_identity_never_fires(self):
        values = (ROOT(0, 1),) * 4
        for s in enumerate_outputs(4, 3, ParticleType.BOSON):
            assert not boson_suppressed(values, s)


class TestFermionLaw:
    def test_hom_coincidence_allowed(self):
        p = Permutation.parse("(1 2)")
        d = (ROOT(0, 1), ROOT(1, 2))
        assert not fermion_suppressed(p, (1, 1), d, (1, 1))

    def test_worked_example_event(self):
        s = (1, 1, 1, 1, 1, 0, 0, 0)
        assert fermion_suppressed(WORKED_PERM, WORKED_INPUT, WORKED_D, s)

    def test_worked_example_event_determinant_oracle(self):
        # the verdict says zero for every member of the class: check a few
        s = (1, 1, 1, 1, 1, 0, 0, 0)
        for seed in range(5):
            built = build_unitary(
                UnitarySpec(WORKED_PERM, rotation_seed=seed, column_order=WORKED_ORDER)
            )
            assert prob_fermion(built.matrix, WORKED_INPUT, s) <= 1e-20

    def test_self_transition_depends_on_ordering(self):
        # with the canonical diagonal the verdict for s = r is instance
        # specific; whatever it says, the determinant must agree with it
        # in the suppressed direction
        built = build_unitary(UnitarySpec(WORKED_PERM, rotation_seed=2))
        verdict = fermion_suppressed(WORKED_PERM, WORKED_INPUT, built.eigenvalues, WORKED_INPUT)
        p = prob_fermion(built.matrix, WORKED_INPUT, WORKED_INPUT)
        if verdict:
            assert p <= 1e-20

    def test_rejects_bunched_output(self):
        with pytest.raises(ValueError, match="fermionic"):
            fermion_suppressed(
                Permutation.parse("(1 2)"), (1, 1), (ROOT(0, 1), ROOT(1, 2)), (2, 0)
            )


class TestOldFourierLaw:
    def test_definition_case(self):
        d = (ROOT(0, 1), ROOT(1, 2))
        # phase sum 1/2 with w = 1: product equals (-1)^w, not suppressed
        assert not old_fourier_fermion_suppressed(d, (1, 1), 1)
        assert old_fourier_fermion_suppressed(d, (1, 1), 2)

    def test_transposition_count(self):
        perm, _ = fourier_symmetry(6, 3)
        assert transposition_count(perm, (1, 0, 1, 0, 1, 0)) == 2
        perm8, _ = fourier_symmetry(8, 2)
        assert transposition_count(perm8, (1, 0, 1, 0, 1, 0, 1, 0)) == 2

    def test_n6_m3_old_law_included_in_new(self):
        perm, values = fourier_symmetry(6, 3)
        r = (1, 0, 1, 0, 1, 0)
        w = transposition_count(perm, r)
        outputs = list(enumerate_outputs(6, 3, ParticleType.FERMION))
        assert len(outputs) == 20
        for s in outputs:
            if old_fourier_fermion_suppressed(values, s, w):
                assert fermion_suppressed(perm, r, values, s)

    def test_n8_m2_strict_extension_with_determinant_witnesses(self):
        perm, values = fourier_symmetry(8, 2)
        u = fourier_unitary(8)
        r = (1, 0, 1, 0, 1, 0, 1, 0)
        w = transposition_count(perm, r)
        witnesses = []
        for s in enumerate_outputs(8, 4, ParticleType.FERMION):
            new = fermion_suppressed(perm, r, values, s)
            old = old_fourier_fermion_suppressed(values, s, w)
            if old:
                assert new  # the parity law is a subset of the multiset law
            if new:
                assert prob_fermion(u, r, s) <= 1e-20
            if new and not old:
                witnesses.append(s)
        assert witnesses  # strictly stronger here
        assert (1, 0, 1, 0, 1, 0, 1, 0) in witnesses


class TestClassification:
    def test_many_particle_suppression(self):
        assert classify_event(True, 0.0, 0.5) is EventClass.CLASS_III

    def test_single_particle_with_law(self):
        assert classify_event(True, 0.0, 0.0) is EventClass.CLASS_II

    def test_single_particle_without_law(self):
        assert classify_event(False, 1e-30, 1e-30) is EventClass.CLASS_I

    def test_transmitted(self):
        assert classify_event(False, 0.2, 0.3) is EventClass.ALLOWED

    def test_threshold_boundary(self):
        assert classify_event(True, 0.0, 1e-10) is EventClass.CLASS_II
        assert classify_event(True, 0.0, 2e-10) is EventClass.CLASS_III


class TestSoundnessSmall:
    """Law verdict implies an exact zero, across random eigenbases."""

    @pytest.mark.parametrize("r", [(0, 0, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0, 2, 2)])
    def test_boson_soundness_over_seeds(self, r):
        for seed in range(10):
            built = build_unitary(UnitarySpec(WORKED_PERM, rotation_seed=seed))
            for s in enumerate_outputs(8, sum(r), ParticleType.BOSON):
                if boson_suppressed(built.eigenvalues, s):
                    assert prob_boson(built.matrix, r, s) <= 1e-20

    def test_counter_position_unpredicted_zeros_exist(self, capsys):
        # the laws are sufficient, not necessary: record (never assert away)
        # events that vanish without a verdict, e.g. through extra symmetry
        perm, values = fourier_symmetry(6, 3)
        u = fourier_unitary(6)
        r = (1, 1, 1, 1, 1, 1)
        unpredicted = [
            s
            for s in enumerate_outputs(6, 6, ParticleType.BOSON)
            if not boson_suppressed(values, s) and prob_boson(u, r, s) <= 1e-20
        ]
        print(f"unpredicted zeros for the fully filled DFT(6) input: {len(unpredicted)}"
              f" e.g. {unpredicted[:3]}")
        assert True  # documentation only


# --- output_laws against the oracle ------------------------------------------

@st.composite
def symmetric_setups(draw, max_n=8):
    """A random permutation, its eigenvalues in a random column order, and a
    fermionic input that fills a random set of whole cycles."""
    n = draw(st.integers(1, max_n))
    p = Permutation(draw(st.permutations(range(n))))
    values = eigenstructure(p).eigenvalues
    values = tuple(values[j] for j in draw(st.permutations(range(n))))
    filled = draw(st.lists(st.booleans(), min_size=len(p.cycles0()), max_size=len(p.cycles0())))
    r = [0] * n
    for cycle, full in zip(p.cycles0(), filled):
        for mode in cycle:
            r[mode] = int(full)
    return p, values, tuple(r)


def _bunched_outputs(draw, n, particles, max_k=12):
    return [assignment_to_occupation(
        draw(st.lists(st.integers(1, n), min_size=particles, max_size=particles)), n)
        for _ in range(draw(st.integers(0, max_k)))]


def _fermionic_outputs(draw, n, particles, max_k=12):
    return [assignment_to_occupation(
        draw(st.lists(st.integers(1, n), min_size=particles, max_size=particles, unique=True)), n)
        for _ in range(draw(st.integers(0, max_k)))]


@settings(max_examples=200, deadline=None)
@given(symmetric_setups(), st.integers(0, 5), st.data())
def test_output_laws_match_oracle_on_bunched_outputs(setup, particles, data):
    _, values, _ = setup
    outputs = _bunched_outputs(data.draw, len(values), particles)
    w = data.draw(st.integers(0, 9))
    laws = output_laws(values, outputs, w=w)
    assert laws.fermion is None
    assert laws.boson.tolist() == [oracle_boson(values, s) for s in outputs]
    assert laws.parity.tolist() == [oracle_parity(values, s, w) for s in outputs]
    assert laws.distributions == tuple(oracle_distribution(values, s) for s in outputs)
    for dist, s in zip(laws.distributions, outputs):
        assert ",".join(map(str, dist)) == ",".join(map(str, oracle_distribution(values, s)))


@settings(max_examples=200, deadline=None)
@given(symmetric_setups(), st.data())
def test_output_laws_match_oracle_on_fermionic_outputs(setup, data):
    p, values, r = setup
    outputs = _fermionic_outputs(data.draw, len(values), sum(r))
    w = transposition_count(p, r)
    laws = output_laws(values, np.array(outputs, dtype=np.intp).reshape(-1, len(values)),
                       p, r, w)
    assert laws.fermion.tolist() == [oracle_fermion(p, r, values, s) for s in outputs]
    assert laws.boson.tolist() == [oracle_boson(values, s) for s in outputs]
    assert laws.parity.tolist() == [oracle_parity(values, s, w) for s in outputs]
    assert laws.distributions == tuple(oracle_distribution(values, s) for s in outputs)


@settings(max_examples=100, deadline=None)
@given(symmetric_setups(), st.integers(0, 4), st.data())
def test_equal_multisets_share_one_tuple(setup, particles, data):
    _, values, _ = setup
    outputs = _bunched_outputs(data.draw, len(values), particles)
    laws = output_laws(values, outputs)
    for a, da in zip(outputs, laws.distributions):
        for b, db in zip(outputs, laws.distributions):
            if oracle_distribution(values, a) == oracle_distribution(values, b):
                assert da is db


def _assert_grouped_like_the_oracle(values, outputs):
    laws = output_laws(values, outputs)
    expected = [oracle_distribution(values, s) for s in outputs]
    assert laws.distributions == tuple(expected)
    for i, a in enumerate(expected):
        for j, b in enumerate(expected):
            assert (laws.distributions[i] is laws.distributions[j]) == (a == b)


@settings(max_examples=100, deadline=None)
@given(symmetric_setups(), st.data())
def test_outputs_of_several_particle_numbers_group_apart(setup, data):
    """Count rows are keyed by their rank among the multisets of their own
    size, offset past the smaller sizes: rows of different particle numbers
    never share a key."""
    _, values, _ = setup
    outputs = [s for particles in range(5)
               for s in _bunched_outputs(data.draw, len(values), particles, max_k=4)]
    outputs = data.draw(st.permutations(outputs)) if outputs else outputs
    _assert_grouped_like_the_oracle(values, outputs)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multiset_keys_beyond_int64_group_by_whole_rows(seed):
    """40 distinct eigenvalues and 40 particles have C(80, 40) > 2^63
    multisets, so no int64 rank keys them; equal rows still share one
    tuple and every multiset is the oracle's."""
    values = tuple(ROOT(k, 40) for k in range(40))
    rng = np.random.default_rng(seed)
    rows = [np.bincount(rng.integers(0, 40, 40), minlength=40) for _ in range(5)]
    outputs = [tuple(int(x) for x in rows[i]) for i in rng.integers(0, 5, 12)]
    _assert_grouped_like_the_oracle(values, outputs)


def test_fermion_law_without_the_input_values_suppresses_everything():
    # the input's roots of unity (thirds) are missing from the diagonal
    p = Permutation.parse("(1 2 3)")
    values = (ROOT(0, 1), ROOT(1, 2), ROOT(1, 2))
    outputs = list(enumerate_outputs(3, 3, ParticleType.FERMION))
    assert output_laws(values, outputs, p, (1, 1, 1)).fermion.tolist() == [True]


class TestOutputLawsBoundary:
    def test_no_modes(self):
        laws = output_laws([], [[], [], []])
        assert laws.distributions == ((), (), ()) and laws.boson.tolist() == [False] * 3
        assert laws.distributions[0] is laws.distributions[1] is laws.distributions[2]

    def test_no_outputs(self):
        laws = output_laws(WORKED_D, [], WORKED_PERM, WORKED_INPUT, w=1)
        assert laws.distributions == ()
        for verdicts in (laws.boson, laws.fermion, laws.parity):
            assert verdicts.shape == (0,) and verdicts.dtype == bool
        assert output_laws(WORKED_D, np.zeros((0, 8), dtype=np.intp)).boson.shape == (0,)

    def test_refuses_phase_sums_beyond_int64(self):
        values = (ROOT(1, 2**61), ROOT(0, 1))
        with pytest.raises(ValueError, match="overflow int64"):
            output_laws(values, [(4, 0)])
        with pytest.raises(ValueError, match="overflow int64"):
            boson_suppressed((ROOT(1, 3), ROOT(1, 2**62)), (1, 0))

    def test_largest_accepted_phase_sums_stay_exact(self):
        values = (ROOT(1, 2**61), ROOT(2**60 - 1, 2**61))  # 3 * 2^61 < 2^63
        outputs = [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert output_laws(values, outputs).boson.tolist() == [
            oracle_boson(values, s) for s in outputs]

    def test_rejects_bad_outputs_with_the_usual_messages(self):
        with pytest.raises(ValueError, match="negative occupation"):
            output_laws(WORKED_D, [(1, 1, 1, 0, 0, 0, 1, 1), (0, -1, 2, 0, 0, 0, 1, 3)])
        with pytest.raises(ValueError, match="eigenvalues"):
            output_laws(WORKED_D, [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="fermionic occupation exceeds 1"):
            output_laws(WORKED_D, [(1, 1, 1, 1, 1, 0, 0, 0), (2, 1, 1, 1, 0, 0, 0, 0)],
                        WORKED_PERM, WORKED_INPUT)
        with pytest.raises(ValueError, match="needs both"):
            output_laws(WORKED_D, [(1, 1, 1, 1, 1, 0, 0, 0)], WORKED_PERM)


@st.composite
def invariant_inputs(draw, max_n=6, max_particles=4):
    """A random permutation and a non-empty input that is constant on its cycles."""
    n = draw(st.integers(1, max_n))
    p = Permutation(draw(st.permutations(range(n))))
    r = [0] * n
    for cycle in p.cycles0():
        count = draw(st.integers(0, 2))
        for mode in cycle:
            r[mode] = count
    assume(0 < sum(r) <= max_particles)
    return p, tuple(r)


@settings(max_examples=60, deadline=None)
@given(invariant_inputs(), st.integers(0, 2**32 - 1))
def test_boson_law_suppressed_outputs_vanish(setup, rotation_seed):
    p, r = setup
    built = build_unitary(UnitarySpec(p, rotation_seed=rotation_seed))
    outputs = np.array(list(enumerate_outputs(p.n, sum(r), ParticleType.BOSON)))
    suppressed = output_laws(built.eigenvalues, outputs).boson
    p_boson = probabilities(built.matrix, r, outputs, ParticleType.BOSON)
    assert np.all(p_boson[suppressed] <= 1e-20)


@settings(max_examples=60, deadline=None)
@given(symmetric_setups(max_n=7), st.integers(0, 2**32 - 1))
def test_fermion_law_suppressed_outputs_vanish(setup, rotation_seed):
    p, _, r = setup
    built = build_unitary(UnitarySpec(p, rotation_seed=rotation_seed))
    outputs = np.array(list(enumerate_outputs(p.n, sum(r), ParticleType.FERMION)))
    suppressed = output_laws(built.eigenvalues, outputs, p, r).fermion
    p_fermion = probabilities(built.matrix, r, outputs, ParticleType.FERMION)
    assert np.all(p_fermion[suppressed] <= 1e-20)
