from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symfock import suppression
from symfock.fock import ParticleType, enumerate_outputs
from symfock.permutations import Permutation, RootOfUnity, eigenstructure
from symfock.scattering import prob_boson, prob_fermion, probabilities
from symfock.suppression import (
    EventClass,
    boson_suppressed,
    fermion_suppressed,
    initial_distribution,
    output_laws,
    transposition_count,
)
from symfock.unitaries import UnitarySpec, build_unitary, fourier_symmetry, fourier_unitary

from oracles import (
    assignment_to_occupation,
    classify_event,
    final_distribution,
    occupation_to_assignment,
    old_fourier_fermion_suppressed,
    reference_groups,
    reference_output_laws,
    row_distributions,
)


# --- oracle: exact Fraction arithmetic, one output at a time -----------------

def phase_sum(distribution) -> Fraction:
    """Exact sum of the phase fractions, reduced modulo one turn."""
    return sum((Fraction(v.num, v.den) for v in distribution), Fraction(0)) % 1


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
        values = build_unitary(UnitarySpec(Permutation(range(4)))).eigenvalues
        assert final_distribution(values, (0, 2, 1, 1)) == (ROOT(0, 1),) * 4

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^occupation over 2 modes, expected 8$"):
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
    assert "fermion_suppressed" not in laws.columns
    columns = laws.columns
    assert columns["boson_suppressed"].tolist() == [oracle_boson(values, s) for s in outputs]
    assert columns["old_fermion_suppressed"].tolist() == [
        oracle_parity(values, s, w) for s in outputs]
    assert row_distributions(laws) == tuple(oracle_distribution(values, s) for s in outputs)
    for dist, s in zip(row_distributions(laws), outputs):
        assert ",".join(map(str, dist)) == ",".join(map(str, oracle_distribution(values, s)))


@settings(max_examples=200, deadline=None)
@given(symmetric_setups(), st.data())
def test_output_laws_match_oracle_on_fermionic_outputs(setup, data):
    p, values, r = setup
    outputs = _fermionic_outputs(data.draw, len(values), sum(r))
    w = transposition_count(p, r)
    laws = output_laws(values, np.array(outputs, dtype=np.intp).reshape(-1, len(values)),
                       p, r, w)
    columns = laws.columns
    assert columns["fermion_suppressed"].tolist() == [
        oracle_fermion(p, r, values, s) for s in outputs]
    assert columns["boson_suppressed"].tolist() == [oracle_boson(values, s) for s in outputs]
    assert columns["old_fermion_suppressed"].tolist() == [
        oracle_parity(values, s, w) for s in outputs]
    assert row_distributions(laws) == tuple(oracle_distribution(values, s) for s in outputs)


def _grouping(*args, **kwargs):
    raise AssertionError("a one-output predicate reached the grouping")


@settings(max_examples=100, deadline=None)
@given(symmetric_setups(), st.data())
def test_lone_predicates_decide_without_the_grouping(setup, data):
    """``boson_suppressed`` and ``fermion_suppressed`` compute the law columns
    only: with ``output_laws`` and the sorts of its grouping made to fail,
    they still give the oracle's verdicts, and raise its usual messages."""
    p, values, r = setup
    bunched = _bunched_outputs(data.draw, len(values), sum(r), max_k=4)
    single = _fermionic_outputs(data.draw, len(values), sum(r), max_k=4)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("argsort", "unique", "cumsum"):
            patch.setattr(np, name, _grouping)
        patch.setattr(suppression, "output_laws", _grouping)
        boson = [boson_suppressed(values, s) for s in bunched]
        fermion = [fermion_suppressed(p, r, values, s) for s in single]
        with pytest.raises(ValueError, match="modes, expected"):
            boson_suppressed(values, (*r, 0))
        if sum(r) > 1:
            with pytest.raises(ValueError, match="fermionic occupation exceeds 1"):
                fermion_suppressed(p, r, values, (sum(r), *[0] * (len(r) - 1)))
    assert boson == [oracle_boson(values, s) for s in bunched]
    assert fermion == [oracle_fermion(p, r, values, s) for s in single]


@settings(max_examples=100, deadline=None)
@given(symmetric_setups(), st.integers(0, 4), st.data())
def test_equal_multisets_share_one_group(setup, particles, data):
    _, values, _ = setup
    _assert_grouped_like_the_oracle(values, _bunched_outputs(data.draw, len(values), particles))


def _assert_grouped_like_the_oracle(values, outputs):
    laws = output_laws(values, outputs)
    expected = [oracle_distribution(values, s) for s in outputs]
    assert row_distributions(laws) == tuple(expected)
    for i, a in enumerate(expected):
        for j, b in enumerate(expected):
            assert (laws.group[i] == laws.group[j]) == (a == b)


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


root_values = st.builds(RootOfUnity, st.integers(0, 11), st.integers(1, 12))


@st.composite
def law_cases(draw):
    """Arguments of ``output_laws``: eigenvalue lists with repeated values and
    denominators 1-12 over 0-7 modes, 0-12 outputs of mixed particle numbers
    (N = 0 included) drawn from a small pool so that multisets repeat, the
    parity witness or not, and for fermions a permutation and an input made
    of whole cycles, whose roots need not be among the eigenvalues."""
    n = draw(st.integers(0, 7))
    values = tuple(draw(st.lists(root_values, min_size=n, max_size=n)))
    fermionic = n > 0 and draw(st.booleans())
    law = ()
    if fermionic:
        p = Permutation(draw(st.permutations(range(n))))
        r = [0] * n
        for cycle in p.cycles0():
            if draw(st.booleans()):
                for mode in cycle:
                    r[mode] = 1
        law = (p, tuple(r))
    occupation = st.integers(0, 1 if fermionic else 4)
    pool = draw(st.lists(st.lists(occupation, min_size=n, max_size=n), min_size=1, max_size=5))
    k = draw(st.integers(0, 12))
    outputs = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=k,
                                              max_size=k))]
    outputs = np.array(outputs, dtype=np.int64).reshape(k, n)
    return values, outputs, law, draw(st.none() | st.integers(0, 9))


def _assert_laws_match_the_oracle(values, outputs, law=(), w=None):
    """Same law columns, the same roots and group counts (so the same groups
    by value and order), the same group indices, and no multiset twice."""
    laws = output_laws(values, outputs, *law, w=w)
    expected = reference_output_laws(values, outputs, *law, w=w)
    assert list(laws.columns) == list(expected.columns)
    for name, got in laws.columns.items():
        assert got.dtype == bool and got.tolist() == expected.columns[name].tolist(), name
    assert laws.roots == expected.roots
    assert laws.root_counts.dtype == np.int64
    assert laws.root_counts.tolist() == expected.root_counts.tolist()
    assert laws.group.tolist() == expected.group.tolist()
    groups = reference_groups(laws)
    assert len(set(groups)) == len(groups)


@settings(max_examples=300, deadline=None)
@given(law_cases())
def test_output_laws_match_the_rank_keyed_oracle(case):
    values, outputs, law, w = case
    _assert_laws_match_the_oracle(values, outputs, law, w)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([14, 20]), st.integers(0, 2**32 - 1))
def test_count_rows_past_the_key_bound_keep_its_order(distinct, seed):
    """14 or 20 distinct 20th roots and up to 20 particles: R^(D+1) = 21^15 or
    21^21 >= 2^63 (while 21^14 < 2^63), so the count rows are grouped by
    ``unique`` over whole rows, in the order the key would give."""
    values = tuple(ROOT(k, 20) for k in range(distinct))
    assert 21 ** (distinct + 1) >= 2**63
    rng = np.random.default_rng(seed)
    sizes = [20, 20, *rng.integers(0, 21, 6).tolist()]
    pool = [np.bincount(rng.integers(0, distinct, size), minlength=distinct) for size in sizes]
    outputs = np.array([pool[i] for i in rng.integers(0, len(pool), 16)] + pool[:1])
    _assert_laws_match_the_oracle(values, outputs)


def test_fermion_law_without_the_input_values_suppresses_everything():
    # the input's roots of unity (thirds) are missing from the diagonal
    p = Permutation.parse("(1 2 3)")
    values = (ROOT(0, 1), ROOT(1, 2), ROOT(1, 2))
    outputs = list(enumerate_outputs(3, 3, ParticleType.FERMION))
    laws = output_laws(values, outputs, p, (1, 1, 1))
    assert laws.columns["fermion_suppressed"].tolist() == [True]


class TestOutputLawsBoundary:
    def test_no_modes(self):
        laws = output_laws([], [[], [], []])
        assert row_distributions(laws) == ((), (), ())
        assert laws.columns["boson_suppressed"].tolist() == [False] * 3
        assert reference_groups(laws) == ((),) and laws.group.tolist() == [0, 0, 0]

    def test_no_outputs(self):
        laws = output_laws(WORKED_D, [], WORKED_PERM, WORKED_INPUT, w=1)
        assert reference_groups(laws) == () and laws.group.shape == (0,)
        assert list(laws.columns) == ["boson_suppressed", "fermion_suppressed",
                                      "old_fermion_suppressed"]
        for verdicts in laws.columns.values():
            assert verdicts.shape == (0,) and verdicts.dtype == bool
        laws = output_laws(WORKED_D, np.zeros((0, 8), dtype=np.intp))
        assert laws.columns["boson_suppressed"].shape == (0,)

    def test_refuses_phase_sums_beyond_int64(self):
        values = (ROOT(1, 2**61), ROOT(0, 1))
        with pytest.raises(ValueError, match="overflow int64"):
            output_laws(values, [(4, 0)])
        with pytest.raises(ValueError, match="overflow int64"):
            boson_suppressed((ROOT(1, 3), ROOT(1, 2**62)), (1, 0))

    def test_largest_accepted_phase_sums_stay_exact(self):
        values = (ROOT(1, 2**61), ROOT(2**60 - 1, 2**61))  # 3 * 2^61 < 2^63
        outputs = [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert output_laws(values, outputs).columns["boson_suppressed"].tolist() == [
            oracle_boson(values, s) for s in outputs]

    def test_rejects_bad_outputs_with_the_usual_messages(self):
        with pytest.raises(ValueError, match="negative occupation"):
            output_laws(WORKED_D, [(1, 1, 1, 0, 0, 0, 1, 1), (0, -1, 2, 0, 0, 0, 1, 3)])
        with pytest.raises(ValueError, match="^occupation over 2 modes, expected 8$"):
            output_laws(WORKED_D, [(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="fermionic occupation exceeds 1"):
            output_laws(WORKED_D, [(1, 1, 1, 1, 1, 0, 0, 0), (2, 1, 1, 1, 0, 0, 0, 0)],
                        WORKED_PERM, WORKED_INPUT)
        with pytest.raises(ValueError, match="needs both"):
            output_laws(WORKED_D, [(1, 1, 1, 1, 1, 0, 0, 0)], WORKED_PERM)

    def test_refuses_a_permutation_over_other_modes(self):
        """The fermion law compares an output with the input multiset of the
        eigenvalues' own permutation: one over four modes, with an input it
        keeps, does not fit the eight eigenvalues of the worked example."""
        other, r = Permutation.parse("(1 2)(3 4)"), (1, 1, 0, 0)
        s = (1, 1, 0, 0, 0, 0, 1, 0)
        message = "^permutation over 4 modes but 8 eigenvalues$"
        with pytest.raises(ValueError, match=message):
            output_laws(WORKED_D, [s], other, r)
        with pytest.raises(ValueError, match=message):
            fermion_suppressed(other, r, WORKED_D, s)
        assert fermion_suppressed(WORKED_PERM, WORKED_INPUT, WORKED_D, s)

    @pytest.mark.parametrize("outputs, law, message", [
        ([(1, 1, 1, 0, 0, 0, 1, 1), (0, 3, 2, 0, 0, 0, 1, -1), (-1, 0, 0, 0, 0, 0, 0, 6)], (),
         "negative occupation in (0, 3, 2, 0, 0, 0, 1, -1)"),
        ([(1, 1, 1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0, 1, 2), (2, 1, 1, 1, 0, 0, 0, 0)],
         (WORKED_PERM, WORKED_INPUT), "fermionic occupation exceeds 1 in (0, 0, 1, 1, 1, 0, 1, 2)"),
        ([(1, 1, 1, 1, 1, 0, 0, 0), (1, 1, 1, 1, -1, 1, 1, 0)], (WORKED_PERM, WORKED_INPUT),
         "negative occupation in (1, 1, 1, 1, -1, 1, 1, 0)"),
    ])
    def test_bad_outputs_name_the_first_bad_row(self, outputs, law, message):
        """The sign and occupancy checks are reductions; the error still names
        the first bad row, as ``fock.check_occupation`` words it. Rows of
        other particle numbers are no error here: they group apart."""
        with pytest.raises(ValueError) as error:
            output_laws(WORKED_D, outputs, *law)
        assert str(error.value) == message
        laws = output_laws(WORKED_D, [(1,) * 8, (0,) * 8, (5, 0, 0, 0, 0, 0, 0, 0)])
        assert len(laws.columns["boson_suppressed"]) == 3


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
    suppressed = output_laws(built.eigenvalues, outputs).columns["boson_suppressed"]
    p_boson = probabilities(built.matrix, r, outputs, ParticleType.BOSON)
    assert np.all(p_boson[suppressed] <= 1e-20)


@settings(max_examples=60, deadline=None)
@given(symmetric_setups(max_n=7), st.integers(0, 2**32 - 1))
def test_fermion_law_suppressed_outputs_vanish(setup, rotation_seed):
    p, _, r = setup
    built = build_unitary(UnitarySpec(p, rotation_seed=rotation_seed))
    outputs = np.array(list(enumerate_outputs(p.n, sum(r), ParticleType.FERMION)))
    suppressed = output_laws(built.eigenvalues, outputs, p, r).columns["fermion_suppressed"]
    p_fermion = probabilities(built.matrix, r, outputs, ParticleType.FERMION)
    assert np.all(p_fermion[suppressed] <= 1e-20)
