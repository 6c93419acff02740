"""Properties of the stack-aware kernels and of the chunked probability entry
point: oracle agreement, and bit-identity between a stack, its pieces and
lone calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock import scattering
from symfock.fock import ParticleType, enumerate_outputs
from symfock.linalg import determinant, permanent_ryser
from symfock.scattering import probabilities

from oracles import haar_random_unitary, leibniz_determinant, permanent_naive

SHAPES = ("gaussian", "repeated_columns", "zero_column", "nonnegative")


@st.composite
def stacks(draw, max_n=6, max_b=24):
    """A (B, n, n) complex stack; some matrices repeat a column, lose one or
    are entrywise non-negative like the |M|^2 of distinguishable particles."""
    n = draw(st.integers(0, max_n))
    b = draw(st.integers(0, max_b))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    if n > 1 and shape == "repeated_columns":
        m[:, :, rng.integers(1, n)] = m[:, :, 0]
    if n and shape == "zero_column":
        m[::2, :, rng.integers(0, n)] = 0.0
    if shape == "nonnegative":
        m = np.abs(m) ** 2 + 0j
    return m


def close(fast, slow) -> bool:
    """1e-10 relative, floored at 1: entries are of order one."""
    return abs(fast - slow) <= 1e-10 * max(abs(slow), 1.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stacked_ryser_matches_naive(m):
    perms = permanent_ryser(m)
    assert perms.shape == (len(m),)
    for fast, matrix in zip(perms, m):
        assert close(fast, permanent_naive(matrix))


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stacked_determinant_matches_leibniz(m):
    dets = determinant(m)
    assert dets.shape == (len(m),)
    for fast, matrix in zip(dets, m):
        assert close(fast, leibniz_determinant(matrix))


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_stack_gives_the_bits_of_lone_calls(m):
    for kernel in (permanent_ryser, determinant):
        assert same_bits(kernel(m), [kernel(matrix) for matrix in m])


@settings(max_examples=100, deadline=None)
@given(stacks(), st.data())
def test_splitting_a_stack_changes_no_bit(m, data):
    cut = data.draw(st.integers(0, len(m)))
    for kernel in (permanent_ryser, determinant):
        assert same_bits(kernel(m), np.concatenate([kernel(m[:cut]), kernel(m[cut:])]))


def test_empty_and_trivial_sizes():
    assert same_bits(permanent_ryser(np.zeros((0, 3, 3))), np.zeros(0))
    assert same_bits(determinant(np.zeros((0, 3, 3))), np.zeros(0))
    assert same_bits(permanent_ryser(np.zeros((2, 0, 0))), [1, 1])
    assert same_bits(determinant(np.zeros((2, 0, 0))), [1, 1])
    assert permanent_ryser(np.zeros((0, 0))) == 1 and determinant(np.zeros((0, 0))) == 1
    ones = np.array([[[2.5 - 1j]], [[0.0]]])
    assert np.array_equal(permanent_ryser(ones), [2.5 - 1j, 0])
    assert np.array_equal(determinant(ones), [2.5 - 1j, 0])


def test_stack_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError, match="square"):
        permanent_ryser(np.zeros((2, 3, 2)))
    bad = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
    bad[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        determinant(bad)
    with pytest.raises(ValueError, match="ndim"):
        permanent_ryser(np.zeros((1, 1, 2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from(list(ParticleType)))
def test_chunk_boundaries_change_no_probability_bit(chunk, seed, kind):
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(5, rng)
    r = (1, 1, 0, 1, 0)
    outputs = list(enumerate_outputs(5, 3, kind))
    whole = probabilities(u, r, outputs, kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scattering, "CHUNK", chunk)
        patch.setattr(scattering, "BLOCK_ENTRIES", chunk)  # the expansion's blocks too
        assert probabilities(u, r, outputs, kind).tobytes() == whole.tobytes()
        stack = np.array([u, u.T, u.conj()])
        assert probabilities(stack, r, outputs, kind)[0].tobytes() == whole.tobytes()


def test_wrappers_are_single_output_probabilities():
    u = haar_random_unitary(4, 9)
    r = (1, 0, 1, 0)
    for kind, wrapper in ((ParticleType.BOSON, scattering.prob_boson),
                          (ParticleType.FERMION, scattering.prob_fermion),
                          (ParticleType.DISTINGUISHABLE, scattering.prob_distinguishable)):
        outputs = list(enumerate_outputs(4, 2, kind))
        batch = probabilities(u, r, outputs, kind)  # the expansion, against lone permanents
        lone = [wrapper(u, r, s) for s in outputs]
        assert all(type(p) is float for p in lone)
        assert np.max(np.abs(batch - np.array(lone))) <= 1e-15


def test_entry_point_checks_every_output():
    u = haar_random_unitary(3, 1)
    with pytest.raises(ValueError, match="particle numbers"):
        probabilities(u, (1, 1, 0), [(1, 1, 0), (1, 0, 0)], ParticleType.BOSON)
    with pytest.raises(ValueError, match="fermionic"):
        probabilities(u, (1, 1, 0), [(1, 1, 0), (2, 0, 0)], ParticleType.FERMION)
    with pytest.raises(ValueError, match="negative"):
        probabilities(u, (1, 1, 0), [(3, -1, 0)], ParticleType.BOSON)
    with pytest.raises(ValueError, match="^occupation over 4 modes, expected 3$"):
        probabilities(u, (1, 1, 0), [(1, 1, 0, 0)], ParticleType.BOSON)
    assert probabilities(u, (1, 1, 0), [], ParticleType.BOSON).shape == (0,)
