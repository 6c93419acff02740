"""Properties of the single-sum partial-distinguishability probability:
agreement with the explicit (N!)^2 double sum, the two limits of the Gram
matrix, bit-identity between a Gram stack, its pieces and lone calls, the
in-place sum against ``oracles.reference_partial_sum``, and every Gram check
on the stacks the distinguishability fit draws."""

from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.experiments import sample_distinguishability
from symfock.fock import ParticleType, occupation_to_assignment
from symfock.linalg import permutation_signs, permutation_table
from symfock.scattering import (
    BLOCK_ENTRIES,
    partial_probabilities,
    partial_weights,
    prob_boson,
    prob_distinguishable,
    prob_fermion,
    prob_partial,
    validate_distinguishability,
)

from oracles import haar_random_unitary, reference_partial_sum

KINDS = (ParticleType.BOSON, ParticleType.FERMION)


def double_sum(u, r, s, gram, kind) -> float:
    """The explicit double sum over permutation pairs (sigma, rho):

        1/(prod r! prod s!) * sum chi(sigma) chi(rho) * prod_a S[d_sigma(a), d_rho(a)]
            * conj(U[d_sigma(a), d_a(s)]) * U[d_rho(a), d_a(s)]
    """
    n = sum(r)
    d_in = np.array(occupation_to_assignment(r), dtype=np.intp) - 1
    d_out = np.array(occupation_to_assignment(s), dtype=np.intp) - 1
    rows = d_in[permutation_table(n)]
    amp = np.prod(np.conj(u[rows, d_out[None, :]]), axis=1)
    if kind is ParticleType.FERMION:
        amp = amp * permutation_signs(n)
    gram_prod = np.prod(gram[rows[:, None, :], rows[None, :, :]], axis=2)
    value = complex(amp @ gram_prod @ np.conj(amp))
    return value.real / (prod(factorial(x) for x in r) * prod(factorial(x) for x in s))


def random_gram(rng, n: int, spread: float) -> np.ndarray:
    """Gram matrix of n random unit vectors in a random dimension; a small
    ``spread`` makes them almost parallel, as near a suppressed output."""
    dim = int(rng.integers(1, 4))
    v = np.ones((n, dim)) + spread * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    v /= np.linalg.norm(v, axis=1)[:, None]
    gram = v.conj() @ v.T
    np.fill_diagonal(gram, 1.0)
    return gram


@st.composite
def cases(draw, max_particles=5, max_b=6):
    """(u, r, s, gram stack, kind): bunched bosonic inputs and outputs,
    single-occupancy fermions, N <= 5 particles on up to 6 modes."""
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    if kind is ParticleType.BOSON:
        particles = draw(st.integers(0, max_particles))
        r = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
        s = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
    else:
        particles = draw(st.integers(0, min(n, max_particles)))
        r = tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles)))
        s = tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles)))
    spread = draw(st.sampled_from((1e-3, 0.3, 3.0)))
    grams = np.array([random_gram(rng, n, spread) for _ in range(draw(st.integers(1, max_b)))])
    return haar_random_unitary(n, rng), r, s, grams, kind


@settings(max_examples=150, deadline=None)
@given(cases())
def test_matches_the_double_sum(case):
    u, r, s, grams, kind = case
    for gram, value in zip(grams, prob_partial(u, r, s, grams, kind)):
        assert abs(value - double_sum(u, r, s, gram, kind)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(cases())
def test_stack_gives_the_bits_of_lone_calls(case):
    u, r, s, grams, kind = case
    lone = [prob_partial(u, r, s, gram, kind) for gram in grams]
    assert all(type(p) is float for p in lone)
    assert prob_partial(u, r, s, grams, kind).tobytes() == np.array(lone).tobytes()


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_splitting_a_stack_changes_no_bit(case, data):
    u, r, s, grams, kind = case
    cut = data.draw(st.integers(0, len(grams)))
    pieces = [prob_partial(u, r, s, grams[:cut], kind), prob_partial(u, r, s, grams[cut:], kind)]
    assert prob_partial(u, r, s, grams, kind).tobytes() == np.concatenate(pieces).tobytes()


@settings(max_examples=100, deadline=None)
@given(cases(max_b=1))
def test_all_ones_gram_gives_the_indistinguishable_bits(case):
    u, r, s, _, kind = case
    ones = np.ones(u.shape)
    expected = prob_boson(u, r, s) if kind is ParticleType.BOSON else prob_fermion(u, r, s)
    assert prob_partial(u, r, s, ones, kind) == expected
    assert prob_partial(u, r, s, ones[None], kind).tobytes() == np.array([expected]).tobytes()


@settings(max_examples=100, deadline=None)
@given(cases(max_b=1))
def test_identity_gram_gives_the_distinguishable_rule(case):
    u, r, s, _, kind = case
    assert abs(prob_partial(u, r, s, np.eye(len(r)), kind) - prob_distinguishable(u, r, s)) <= 1e-12


def test_no_particles():
    u = haar_random_unitary(3, 5)
    grams = np.array([random_gram(np.random.default_rng(k), 3, 0.3) for k in range(4)])
    for kind in KINDS:
        assert prob_partial(u, (0, 0, 0), (0, 0, 0), grams[0], kind) == 1.0
        assert np.array_equal(prob_partial(u, (0, 0, 0), (0, 0, 0), grams, kind), np.ones(4))


def test_stack_checks():
    u = haar_random_unitary(3, 6)
    grams = np.array([np.eye(3), np.eye(3)], dtype=complex)
    grams[1, 0, 1] = 0.5  # not Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        prob_partial(u, (1, 1, 0), (1, 0, 1), grams, ParticleType.BOSON)
    with pytest.raises(ValueError, match="Hermitian"):
        validate_distinguishability(grams)
    with pytest.raises(ValueError, match="match the unitary size"):
        prob_partial(u, (1, 1, 0), (1, 0, 1), np.ones((2, 4, 4)), ParticleType.BOSON)
    assert prob_partial(u, (1, 1, 0), (1, 0, 1), np.ones((0, 3, 3)), ParticleType.BOSON).shape == (0,)


# --- the PSD boundary of validate_distinguishability -----------------------

PSD_MESSAGE = r"^distinguishability matrix is not positive semidefinite$"


def gram_with_lowest(rng, n: int, lowest: float) -> np.ndarray:
    """A unit-diagonal Hermitian matrix, entries inside the unit disc, with
    lowest eigenvalue ``lowest`` <= 0: (1 + delta) G - delta I for the Gram
    matrix G of n unit vectors in n - 1 dimensions (lowest eigenvalue 0)."""
    v = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
    v /= np.linalg.norm(v, axis=1)[:, None]
    gram = v.conj() @ v.T
    gram = (1.0 - lowest) * gram + lowest * np.eye(n)
    gram = (gram + gram.conj().T) / 2.0
    np.fill_diagonal(gram, 1.0)
    return gram


@pytest.mark.parametrize("lowest, refused", [(-1.2e-10, True), (-0.8e-10, False)])
@pytest.mark.parametrize("n", [3, 8])
def test_psd_boundary_alone_and_inside_a_stack(n, lowest, refused):
    rng = np.random.default_rng(n)
    bad = gram_with_lowest(rng, n, lowest)
    assert abs(np.linalg.eigvalsh(bad)[0] - lowest) < 1e-14
    stack = np.array([random_gram(rng, n, 0.3) for _ in range(5)])
    stack[3] = bad  # the only matrix near the boundary
    u = haar_random_unitary(n, rng)
    r = s = (1, 1) + (0,) * (n - 2)
    for grams in (bad, stack):
        if refused:
            with pytest.raises(ValueError, match=PSD_MESSAGE):
                validate_distinguishability(grams)
            with pytest.raises(ValueError, match=PSD_MESSAGE):
                prob_partial(u, r, s, grams, ParticleType.BOSON)
        else:
            assert np.array_equal(validate_distinguishability(grams), grams)
            prob_partial(u, r, s, grams, ParticleType.BOSON)


def test_entrywise_perturbed_overlaps_are_refused():
    # overlaps perturbed entry by entry, (1 - eps) exp(i eta) on eight modes:
    # every draw is further than 1e-10 from the PSD cone, so every one must fail
    rng = np.random.default_rng(9)
    n, mean_eps = 8, 1e-2
    u = haar_random_unitary(n, rng)
    r = s = (1, 1, 1) + (0,) * (n - 3)
    draws = []
    for _ in range(20):
        eps = rng.uniform(0.0, 2.0 * mean_eps, size=(n, n))
        eta = rng.uniform(-mean_eps, mean_eps, size=(n, n))
        gram = (1.0 - (eps + eps.T) / 2.0) * np.exp(0.5j * (eta - eta.T))
        np.fill_diagonal(gram, 1.0)
        draws.append(gram)
    for gram in draws:
        assert np.linalg.eigvalsh(gram)[0] < -1e-10
        with pytest.raises(ValueError, match=PSD_MESSAGE):
            validate_distinguishability(gram)
    with pytest.raises(ValueError, match=PSD_MESSAGE):
        prob_partial(u, r, s, np.array(draws), ParticleType.BOSON)
    with pytest.raises(ValueError, match=PSD_MESSAGE):
        partial_probabilities(partial_weights(u, r, s, ParticleType.BOSON), draws[0])


# --- the in-place sum and the checks of the fits' lean path ------------------

@st.composite
def drawn_stacks(draw):
    """(terms, Gram stack): N = 1..5 bosons (bunched) or fermions on up to 6
    modes, and 0..70 Gram matrices from one call of the distinguishability
    fit's sampler."""
    kind = draw(st.sampled_from(KINDS))
    particles = draw(st.integers(1, 5))
    n = draw(st.integers(particles if kind is ParticleType.FERMION else 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind is ParticleType.BOSON:
        r = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
        s = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n))
    else:
        r = tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles)))
        s = tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles)))
    grams, _ = sample_distinguishability(n, draw(st.sampled_from((1e-3, 1e-2, 0.1))), rng,
                                         count=draw(st.integers(0, 70)))
    return partial_weights(haar_random_unitary(n, rng), r, s, kind), grams


@settings(max_examples=80, deadline=None)
@given(drawn_stacks())
def test_in_place_sum_gives_the_reference_bits(case):
    terms, grams = case
    expected = reference_partial_sum(terms, grams)
    assert partial_probabilities(terms, grams).tobytes() == expected.tobytes()
    for gram, value in zip(grams, expected):
        assert partial_probabilities(terms, gram) == value


def test_sum_blocks_give_the_bits_of_lone_calls():
    # 150 Gram matrices at N = 5 run the single sum in blocks of 68 + 68 + 14
    assert BLOCK_ENTRIES // factorial(5) == 68
    rng = np.random.default_rng(29)
    grams, _ = sample_distinguishability(5, 1e-2, rng, count=150)
    terms = partial_weights(haar_random_unitary(5, rng), (1, 1, 1, 1, 1), (2, 0, 1, 1, 1),
                            ParticleType.BOSON)
    lone = np.array([partial_probabilities(terms, gram) for gram in grams])
    assert partial_probabilities(terms, grams).tobytes() == lone.tobytes()


def spoil(gram: np.ndarray, case: str) -> np.ndarray:
    """A copy of a valid 8 x 8 Gram matrix with one contract broken."""
    bad = gram.copy()
    if case == "Hermitian":
        bad[0, 1] += 1e-6
    elif case == "diagonal":
        bad[2, 2] = 1.0 + 1e-6
    elif case == "<= 1":
        bad[0, 1] = 1.01 * np.exp(0.3j)
        bad[1, 0] = np.conj(bad[0, 1])
    elif case == "NaN":
        bad[0, 1] = np.nan
    elif case == "Inf":
        bad[5, 5] = -np.inf
    elif case == "imaginary NaN":  # a real part that passes every other check
        bad[3, 6] = complex(bad[3, 6].real, np.nan)
    elif case == "imaginary Inf":
        bad[6, 3] = complex(bad[6, 3].real, np.inf)
    else:  # the leading 3 x 3 block has determinant 1 - 3a^2 - 2a^3 < 0
        bad[:3, :3] = [[1.0, -0.9, 0.9], [-0.9, 1.0, 0.9], [0.9, 0.9, 1.0]]
    return bad


BAD_GRAMS = {
    "Hermitian": "distinguishability matrix is not Hermitian",
    "diagonal": "distinguishability matrix diagonal must be all ones",
    "<= 1": r"distinguishability entries must satisfy \|S_jk\| <= 1",
    "PSD": "distinguishability matrix is not positive semidefinite",
    # one test of finiteness on the complex entries, both parts at once
    **dict.fromkeys(("NaN", "Inf", "imaginary NaN", "imaginary Inf"),
                    "matrix contains NaN or Inf entries"),
}

@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from(sorted(BAD_GRAMS)), position=st.integers(0, 67),
       seed=st.integers(0, 2**32 - 1))
def test_one_bad_gram_in_a_drawn_stack_is_refused(case, position, seed):
    # a stack of 68, one single-sum block at N = 5, every matrix valid as drawn
    grams, repairs = sample_distinguishability(8, 1e-3, np.random.default_rng(seed), count=68)
    assert repairs == 0
    grams[position] = spoil(grams[position], case)
    u = haar_random_unitary(8, 3)
    terms = partial_weights(u, (1, 1, 1, 0, 0, 0, 1, 1), (1, 1, 0, 1, 1, 0, 1, 0), ParticleType.BOSON)
    message = f"^{BAD_GRAMS[case]}$"
    for call in (validate_distinguishability, lambda s: partial_probabilities(terms, s)):
        with pytest.raises(ValueError, match=message):
            call(grams)
        with pytest.raises(ValueError, match=message):
            call(grams[position])
