"""The polynomial expansion behind ``scattering.probabilities``: coefficients
against the naive permanent and the Leibniz determinant, probabilities
against the one-permanent-per-output path, bit-identity under stack
splitting and block size, the rank arithmetic of ``fock`` and its cached
lattice table, and the zero census of the 12-mode DFT."""

import tracemalloc
from collections import Counter
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock import experiments, fock, scattering
from symfock.experiments import CensusConfig, run_fourier_comparison, run_mean_probabilities
from symfock.fock import (
    ParticleType,
    enumerate_outputs,
    lattice,
    occupation_to_assignment,
    odd_after,
    output_array,
    output_ranks,
    outputs_up_to,
    removal_ranks,
)
from symfock.linalg import haar_random_unitary, permanent_naive
from symfock.permutations import Permutation
from symfock.scattering import expansion, expansion_pays, probabilities
from symfock.unitaries import fourier_unitary

from oracles import leibniz_determinant


def close(fast, slow) -> bool:
    """1e-12 relative, floored at 1: entries are of order one."""
    return abs(fast - slow) <= 1e-12 * max(abs(slow), 1.0)


def submatrix(u, r, s):
    rows = [m - 1 for m in occupation_to_assignment(r)]
    cols = [m - 1 for m in occupation_to_assignment(s)]
    return u[np.ix_(rows, cols)]


@st.composite
def cases(draw, fermionic=False):
    """A random complex (not unitary) matrix, an input of up to 6 particles,
    bunched unless ``fermionic``, and an arbitrary list of distinct outputs
    in arbitrary order."""
    n = draw(st.integers(1, 6))
    if fermionic:
        r = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        r = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                       .filter(lambda occ: sum(occ) <= 6)))
    kind = ParticleType.FERMION if fermionic else ParticleType.BOSON
    every = list(enumerate_outputs(n, sum(r), kind))
    picked = draw(st.lists(st.sampled_from(every), unique=True, max_size=len(every)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return u, r, picked


def rows_of(r):
    return np.array(occupation_to_assignment(r), dtype=np.intp) - 1


def array_of(outputs, n):
    return np.array(outputs, dtype=np.intp).reshape(len(outputs), n)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_coefficients_are_permanents(case):
    u, r, outputs = case
    s = array_of(outputs, len(r))
    amplitudes = expansion(u[None], rows_of(r), s)[0]
    weights = expansion((np.abs(u) ** 2)[None], rows_of(r), s)[0]
    assert amplitudes.shape == weights.shape == (len(outputs),)
    for out, amp, weight in zip(outputs, amplitudes, weights):
        m = submatrix(u, r, out)
        norm = prod(factorial(x) for x in out)
        assert close(amp, permanent_naive(m) / norm)
        assert close(weight, permanent_naive(np.abs(m) ** 2).real / norm)


@settings(max_examples=150, deadline=None)
@given(cases(fermionic=True))
def test_fermionic_coefficients_are_signed_determinants(case):
    """Rows in input order, columns ascending: the Leibniz sign, not just |det|."""
    u, r, outputs = case
    amplitudes = expansion(u[None], rows_of(r), array_of(outputs, len(r)), fermionic=True)[0]
    for out, amp in zip(outputs, amplitudes):
        assert close(amp, leibniz_determinant(submatrix(u, r, out)))


def test_sign_convention_on_two_fermions():
    u = np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex)
    assert expansion(u[None], np.array([0, 1]), np.array([[1, 1]]), fermionic=True)[0, 0] == -1
    assert expansion(u[None], np.array([1, 0]), np.array([[1, 1]]), fermionic=True)[0, 0] == 1


def test_degenerate_sizes():
    u = haar_random_unitary(3, 4)[None].repeat(2, axis=0)
    no_particles = expansion(u, np.zeros(0, dtype=np.intp), np.zeros((1, 3), dtype=np.intp))
    assert no_particles.shape == (2, 1) and (no_particles == 1).all()
    assert expansion(u, np.array([0, 2]), np.zeros((0, 3), dtype=np.intp)).shape == (2, 0)
    one_mode = np.array([[[0.6 + 0.8j]]])
    assert close(expansion(one_mode, np.array([0, 0, 0]), np.array([[3]]))[0, 0],
                 (0.6 + 0.8j) ** 3)
    both = probabilities(one_mode[0], (3,), [(3,), (3,)], ParticleType.BOSON)
    assert expansion_pays(1, 3, 2, ParticleType.BOSON) and np.allclose(both, 1.0, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(list(ParticleType)), st.booleans())
def test_expansion_agrees_with_one_permanent_per_output(n, particles, seed, kind, subset):
    """The same unitary, input and outputs through both branches: a list
    takes the expansion where it pays, a lone output the Ryser or LU path."""
    fermionic = kind is ParticleType.FERMION
    if fermionic and particles > n:
        particles = n
    rng = np.random.default_rng(seed)
    u = haar_random_unitary(n, rng)
    r = tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n)) if not fermionic else \
        tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles)))
    every = list(enumerate_outputs(n, particles, ParticleType.FERMION if fermionic else kind))
    outputs = [every[i] for i in rng.permutation(len(every))[:max(2, len(every) // 2)]] \
        if subset else every
    batch = probabilities(u, r, outputs, kind)
    lone = np.array([probabilities(u, r, [s], kind)[0] for s in outputs])
    assert np.max(np.abs(batch - lone)) <= 1e-12


def test_dispatch():
    boson, fermion, dist = ParticleType.BOSON, ParticleType.FERMION, ParticleType.DISTINGUISHABLE
    assert not expansion_pays(8, 5, 1, boson)  # lone outputs: robustness fits, `prob`
    assert not expansion_pays(2, 10, 1, boson)
    assert expansion_pays(8, 5, 792, boson) and expansion_pays(8, 5, 792, dist)  # census
    assert expansion_pays(8, 5, 56, fermion) and expansion_pays(8, 5, 56, dist, single=True)
    assert expansion_pays(12, 6, 12376, boson) and expansion_pays(12, 6, 924, fermion)  # DFT
    assert not expansion_pays(100, 2, 4950, fermion)  # n multiply-adds per output lose to N^3
    assert not expansion_pays(16, 8, 100, boson)  # few outputs over a large lattice
    assert not expansion_pays(2, 21, 22, boson)  # beyond the Ryser's limit, refused as before
    with pytest.raises(ValueError, match="limited to n <= 20"):
        probabilities(np.eye(2), (11, 10), [(21, 0), (0, 21)], ParticleType.DISTINGUISHABLE)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(list(ParticleType)))
def test_splitting_a_stack_or_the_blocks_changes_no_bit(chunk, cut, seed, kind):
    rng = np.random.default_rng(seed)
    stack = np.array([haar_random_unitary(6, rng) for _ in range(6)])
    r = (1, 0, 1, 1, 0, 1)
    outputs = list(enumerate_outputs(6, 4, kind))
    assert expansion_pays(6, 4, len(outputs), kind)
    whole = probabilities(stack, r, outputs, kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scattering, "CHUNK", chunk)
        parts = np.concatenate([probabilities(stack[:cut], r, outputs, kind),
                                probabilities(stack[cut:], r, outputs, kind)])
        assert parts.tobytes() == whole.tobytes()
        assert probabilities(stack[cut % 6], r, outputs, kind).tobytes() == whole[cut % 6].tobytes()


@pytest.mark.parametrize("fermionic", [False, True])
def test_outputs_up_to_and_removal_ranks_follow_enumerate_outputs(fermionic):
    kind = ParticleType.FERMION if fermionic else ParticleType.BOSON
    for n in range(1, 7):
        top = min(n, 5) if fermionic else 5
        lower, starts = outputs_up_to(n, top, fermionic)
        groups = [lower[a:b] for a, b in zip(starts, starts[1:])]
        assert len(lower) == starts[-1] and len(groups) == top
        previous = {(0,) * n: 0}
        for d, group in enumerate(groups, start=1):
            every = list(enumerate_outputs(n, d, kind))
            assert group.tolist() == [list(s) for s in every]
            assert output_ranks(group, fermionic).tolist() == list(range(len(every)))
            ranks = removal_ranks(group, fermionic)
            for s, row in zip(every, ranks.tolist()):
                expected = [previous[s[:k] + (s[k] - 1,) + s[k + 1:]] if s[k] else -1
                            for k in range(n)]
                assert row == expected
            previous = {s: i for i, s in enumerate(every)}
        # one call over several particle numbers ranks each within its own
        assert (removal_ranks(lower, fermionic)
                == np.concatenate([removal_ranks(g, fermionic) for g in groups])).all()
        assert (output_ranks(lower, fermionic)
                == np.concatenate([output_ranks(g, fermionic) for g in groups])).all()
        assert lower.dtype == np.uint8


@pytest.mark.parametrize("single", [False, True])
def test_lattice_table_holds_every_degree(single):
    """The table is one ``outputs_up_to`` run: its top group is the output
    array, its parents are ``removal_ranks`` of every degree, top included,
    and its odd masks those of ``odd_after``."""
    kind = ParticleType.FERMION if single else ParticleType.BOSON
    for n, particles in ((1, 1), (3, 2), (5, 4), (6, 3), (4, 0)):
        table = lattice(n, particles, single)
        lower, starts = outputs_up_to(n, particles, single)
        assert table.particles == particles and table.starts == tuple(starts)
        assert table.top.tolist() == output_array(n, particles, kind).tolist()
        assert (table.parents == removal_ranks(lower, single).T).all()
        assert table.odd.shape == ((n, len(lower)) if single else (n, 0))
        if single:
            assert (table.odd == odd_after(lower)).all()
        for array in table:
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable


def test_output_array_is_a_fresh_copy():
    first = output_array(5, 3, ParticleType.BOSON)
    assert first.dtype == np.intp and first.flags.writeable
    first[:] = 0
    assert output_array(5, 3, ParticleType.BOSON).tolist() == [
        list(s) for s in enumerate_outputs(5, 3, ParticleType.BOSON)]


@pytest.mark.parametrize("kind", list(ParticleType))
def test_lattice_and_listed_parents_give_the_same_bits(kind):
    """``expansion`` takes the top-degree parents from the lattice table
    when its outputs are the lattice by value, else from ``removal_ranks``
    of the listed rows: both give every row the same bits, whichever
    rows are listed with it."""
    rng = np.random.default_rng(23)
    stack = np.array([haar_random_unitary(6, rng) for _ in range(3)])
    r = (1, 1, 0, 1, 1, 0)
    outputs = output_array(6, 4, kind)
    whole = probabilities(stack, r, outputs, kind)
    assert probabilities(stack, r, outputs.tolist(), kind).tobytes() == whole.tobytes()
    for drop in (0, len(outputs) // 2, len(outputs) - 1):
        keep = np.delete(np.arange(len(outputs)), drop)
        part = probabilities(stack, r, outputs[keep], kind)
        assert part.tobytes() == whole[:, keep].tobytes()
    shuffled = rng.permutation(len(outputs))  # the lattice's size, not its order
    assert probabilities(stack, r, outputs[shuffled], kind).tobytes() == whole[:, shuffled].tobytes()
    weights = np.abs(stack) ** 2 if kind is ParticleType.DISTINGUISHABLE else stack
    rows = np.array([0, 1, 3, 4])
    fermionic = kind is ParticleType.FERMION
    coeffs = expansion(weights, rows, outputs, fermionic)
    listed = expansion(weights, rows, outputs[1:], fermionic)
    assert listed.tobytes() == coeffs[:, 1:].tobytes()


def test_a_census_builds_each_lattice_once(monkeypatch):
    """``outputs_up_to`` runs once per (n, N, single) across the output
    arrays and every probability call of a census, over several
    sub-stacks."""
    calls = Counter()
    real = fock.outputs_up_to

    def counted(n, particles, fermionic=False):
        calls[n, particles, fermionic] += 1
        return real(n, particles, fermionic)

    monkeypatch.setattr(fock, "outputs_up_to", counted)
    monkeypatch.setattr(experiments, "CHUNK", 4)
    lattice.cache_clear()
    cfg = CensusConfig(Permutation.parse("(1 2 3)(4 5 6)(7 8)"), (1, 1, 1, 0, 0, 0, 1, 1),
                       num_bases=10, seed=3)
    run_mean_probabilities(cfg)
    assert calls == {(8, 5, False): 1, (8, 5, True): 1}
    lattice.cache_clear()


def test_dft_zero_census():
    """Every DFT output at n = 12, m = 6, r = (1, 0) x 6 is either a zero
    that the law explains, one of 504 boson zeros no law explains, or at
    least 1e-6: a stronger law, or a kernel that blurs the gap, changes a
    number here."""
    result = run_fourier_comparison(12, 6, (1, 0) * 6)
    boson = list(zip(result.boson_table.boson.tolist(), result.boson_table.p.tolist()))
    fermion = list(zip(result.fermion_table.fermion.tolist(), result.fermion_table.p.tolist()))
    assert (len(boson), len(fermion)) == (12376, 924)
    boson_zeros = [law for law, p in boson if p <= 1e-20]
    assert (len(boson_zeros), sum(boson_zeros)) == (10804, 10300)
    fermion_zeros = [law for law, p in fermion if p <= 1e-20]
    assert (len(fermion_zeros), sum(fermion_zeros)) == (860, 860)
    assert all(p <= 1e-20 for law, p in boson + fermion if law)
    gap = [p for law, p in boson + fermion if not law and p > 1e-20]
    assert min(gap) >= 1e-6


def test_expansion_memory_stays_flat():
    """The blocks bound the working memory: all 12 376 boson outputs of the
    12-mode DFT at N = 6 in one call allocate at most 2 MB at the peak (the
    output array itself is 1.2 MB, and an unblocked expansion 5.7 MB)."""
    u = fourier_unitary(12)
    outputs = np.array(list(enumerate_outputs(12, 6, ParticleType.BOSON)))
    tracemalloc.start()
    try:
        probabilities(u, (1, 0) * 6, outputs, ParticleType.BOSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000
