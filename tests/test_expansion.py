"""The polynomial expansion behind ``scattering.probabilities``: coefficients
of whole lattices against the naive permanent and the Leibniz determinant,
the slot kernel against the dense recurrence it replaced, probabilities
against the one-permanent-per-output path, which lists take which path,
bit-identity under stack splitting and block size, the slots of the cached
lattice table of ``fock``, and the zero census of the 12-mode DFT."""

import json
import tracemalloc
from collections import Counter
from itertools import islice
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock import experiments, fock, scattering
from symfock.cli import main
from symfock.experiments import (
    run_fourier_comparison,
    run_mean_probabilities,
    run_unitary_robustness,
)
from symfock.fock import (
    ParticleType,
    enumerate_outputs,
    lattice,
    odd_slots,
    output_array,
)
from symfock.permutations import Permutation
from symfock.scattering import expansion, expansion_pays, probabilities
from symfock.serialize import matrix_to_json
from symfock.unitaries import UnitarySpec, build_unitary, fourier_unitary

from oracles import (
    haar_random_unitary,
    leibniz_determinant,
    occupation_to_assignment,
    odd_after,
    output_ranks,
    outputs_up_to,
    parent_ranks,
    permanent_naive,
    reference_expansion,
)


def close(fast, slow) -> bool:
    """1e-12 relative, floored at 1: entries are of order one."""
    return abs(fast - slow) <= 1e-12 * max(abs(slow), 1.0)


def submatrix(u, r, s):
    rows = [m - 1 for m in occupation_to_assignment(r)]
    cols = [m - 1 for m in occupation_to_assignment(s)]
    return u[np.ix_(rows, cols)]


@st.composite
def cases(draw, fermionic=False):
    """A random complex (not unitary) matrix and an input of up to 6
    particles, bunched unless ``fermionic``."""
    n = draw(st.integers(1, 6))
    if fermionic:
        r = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    else:
        r = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                       .filter(lambda occ: sum(occ) <= 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return u, r


def rows_of(r):
    return np.array(occupation_to_assignment(r), dtype=np.intp) - 1


@settings(max_examples=150, deadline=None)
@given(cases())
def test_coefficients_are_permanents(case):
    """Every row of the lattice of multisets, and of the 0/1 lattice where
    there is one, in ``enumerate_outputs`` order."""
    u, r = case
    n, particles = len(r), sum(r)
    for single, order in ((False, ParticleType.BOSON), (True, ParticleType.FERMION))[:1 + (particles <= n)]:
        outputs = list(enumerate_outputs(n, particles, order))
        amplitudes = expansion(u[None], rows_of(r), single)[0]
        weights = expansion((np.abs(u) ** 2)[None], rows_of(r), single)[0]
        assert amplitudes.shape == weights.shape == (len(outputs),)
        for out, amp, weight in zip(outputs, amplitudes, weights):
            m = submatrix(u, r, out)
            norm = prod(factorial(x) for x in out)
            assert close(amp, permanent_naive(m) / norm)
            assert close(weight, permanent_naive(np.abs(m) ** 2).real / norm)


@settings(max_examples=150, deadline=None)
@given(cases(fermionic=True))
def test_fermionic_coefficients_are_signed_determinants(case):
    """Rows in input order, columns ascending: the Leibniz sign, not just
    |det|, for every row of the 0/1 lattice."""
    u, r = case
    outputs = list(enumerate_outputs(len(r), sum(r), ParticleType.FERMION))
    amplitudes = expansion(u[None], rows_of(r), fermionic=True)[0]
    assert amplitudes.shape == (len(outputs),)
    for out, amp in zip(outputs, amplitudes):
        assert close(amp, leibniz_determinant(submatrix(u, r, out)))


@st.composite
def linear_forms(draw):
    """A (B, R, m) stack of R random complex linear forms over m modes and
    the form of each of N particles: forms may repeat or go unused, and R
    need not be m."""
    forms, modes, particles = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.sampled_from([1, 2]))
    weights = (rng.standard_normal((b, forms, modes))
               + 1j * rng.standard_normal((b, forms, modes)))
    rows = draw(st.lists(st.integers(0, forms - 1), min_size=particles, max_size=particles))
    return weights, np.array(rows, dtype=np.intp)


@settings(max_examples=150, deadline=None)
@given(linear_forms())
def test_coefficients_of_linear_forms_are_permanents(case):
    """Each coefficient of prod_j (sum_k W[rows[j], k] x_k) is
    perm(W[rows][:, cols(s)]) / prod s!, and with anticommuting x_k the
    determinant of the same matrix, for every matrix of the stack."""
    weights, rows = case
    b, modes, particles = weights.shape[0], weights.shape[-1], len(rows)
    kinds = ((False, ParticleType.BOSON), (True, ParticleType.FERMION))
    for fermionic, order in kinds[:1 + (particles <= modes)]:
        outputs = list(enumerate_outputs(modes, particles, order))
        coeffs = expansion(weights, rows, fermionic=fermionic)
        assert coeffs.shape == (b, len(outputs))
        for w, row in zip(weights, coeffs):
            for out, c in zip(outputs, row):
                m = w[rows][:, [k - 1 for k in occupation_to_assignment(out)]]
                expected = (leibniz_determinant(m) if fermionic
                            else permanent_naive(m) / prod(factorial(x) for x in out))
                assert close(c, expected)


@st.composite
def slot_cases(draw):
    """A stack of 1 or 3 random complex matrices, a particle kind, an input
    of up to 6 particles (bunched unless fermionic), whether the lattice is
    the 0/1 one (always for fermions; for the others only where it exists)
    and the block size of the kernel."""
    kind = draw(st.sampled_from(list(ParticleType)))
    fermionic = kind is ParticleType.FERMION
    n = draw(st.integers(1, 7))
    particles = draw(st.integers(0, min(n, 6) if fermionic else 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = (rng.permutation([1] * particles + [0] * (n - particles)) if fermionic
         else rng.multinomial(particles, rng.dirichlet(np.ones(n))))
    single = fermionic or (particles <= n and draw(st.booleans()))
    b = draw(st.sampled_from([1, 3]))
    stack = rng.standard_normal((b, n, n)) + 1j * rng.standard_normal((b, n, n))
    entries = draw(st.sampled_from([1, 16, 100, scattering.BLOCK_ENTRIES]))
    return stack, tuple(int(x) for x in r), kind, single, entries


@settings(max_examples=300, deadline=None)
@given(slot_cases())
def test_slot_kernel_matches_the_dense_recurrence(case):
    """Coefficients of every row of the lattice equal the dense recurrence's
    under ``==`` (only an exact zero may differ, in its sign), and the
    probabilities from them are the same bit for bit, for every block
    size."""
    stack, r, kind, single, entries = case
    rows = rows_of(r)
    fermionic = kind is ParticleType.FERMION
    weights = np.abs(stack) ** 2 if kind is ParticleType.DISTINGUISHABLE else stack
    outputs = output_array(len(r), len(rows), ParticleType.FERMION if single else ParticleType.BOSON)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scattering, "BLOCK_ENTRIES", entries)
        fast = expansion(weights, rows, single, fermionic)
        assert fast.shape == (len(stack), len(outputs))
        assert (fast == reference_expansion(weights, rows, single, fermionic)).all()
        slot = scattering._expanded_probabilities(stack, r, rows, outputs, kind, single)
        patch.setattr(scattering, "expansion", reference_expansion)
        dense = scattering._expanded_probabilities(stack, r, rows, outputs, kind, single)
    assert slot.tobytes() == dense.tobytes()


def test_sign_convention_on_two_fermions():
    u = np.array([[1.0, 2.0], [3.0, 5.0]], dtype=complex)
    assert expansion(u[None], np.array([0, 1]), fermionic=True).tolist() == [[-1]]
    assert expansion(u[None], np.array([1, 0]), fermionic=True).tolist() == [[1]]


def test_degenerate_sizes():
    u = haar_random_unitary(3, 4)[None].repeat(2, axis=0)
    no_particles = expansion(u, np.zeros(0, dtype=np.intp))
    assert no_particles.shape == (2, 1) and (no_particles == 1).all()
    none = np.zeros((0, 3), dtype=np.intp)
    assert probabilities(u, (1, 0, 1), none, ParticleType.BOSON).shape == (2, 0)
    one_mode = np.array([[[0.6 + 0.8j]]])
    assert close(expansion(one_mode, np.array([0, 0, 0]))[0, 0], (0.6 + 0.8j) ** 3)
    both = probabilities(one_mode[0], (3,), [(3,), (3,)], ParticleType.BOSON)
    assert not expansion_pays(1, 3, ParticleType.BOSON)  # a lattice of one output
    assert np.allclose(both, 1.0, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.sampled_from(list(ParticleType)), st.booleans())
def test_expansion_agrees_with_one_permanent_per_output(n, particles, seed, kind, subset):
    """The same unitary, input and outputs through both branches: the whole
    lattice takes the expansion where it pays, a lone output the Ryser or LU
    path."""
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
    assert not expansion_pays(1, 5, boson)  # a lattice of one output
    assert not expansion_pays(1, 10, dist) and not expansion_pays(3, 3, fermion)
    assert expansion_pays(8, 5, boson) and expansion_pays(8, 5, dist)  # census
    assert expansion_pays(8, 5, fermion) and expansion_pays(8, 5, dist, single=True)
    assert expansion_pays(12, 6, boson) and expansion_pays(12, 6, fermion)  # DFT
    assert expansion_pays(16, 8, boson)  # the 16-mode census
    assert not expansion_pays(100, 2, fermion)  # n multiply-adds per output lose to N^3
    assert not expansion_pays(2, 21, boson)  # beyond the Ryser's limit, refused as before
    with pytest.raises(ValueError, match="limited to n <= 20"):
        probabilities(np.eye(2), (11, 10), [(21, 0), (0, 21)], ParticleType.DISTINGUISHABLE)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.integers(0, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(list(ParticleType)))
def test_splitting_a_stack_or_the_blocks_changes_no_bit(entries, cut, seed, kind):
    rng = np.random.default_rng(seed)
    stack = np.array([haar_random_unitary(6, rng) for _ in range(6)])
    r = (1, 0, 1, 1, 0, 1)
    outputs = list(enumerate_outputs(6, 4, kind))
    assert expansion_pays(6, 4, kind)
    whole = probabilities(stack, r, outputs, kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scattering, "BLOCK_ENTRIES", entries)
        parts = np.concatenate([probabilities(stack[:cut], r, outputs, kind),
                                probabilities(stack[cut:], r, outputs, kind)])
        assert parts.tobytes() == whole.tobytes()
        assert probabilities(stack[cut % 6], r, outputs, kind).tobytes() == whole[cut % 6].tobytes()


@pytest.mark.parametrize("fermionic", [False, True])
def test_outputs_up_to_and_output_ranks_follow_enumerate_outputs(fermionic):
    kind = ParticleType.FERMION if fermionic else ParticleType.BOSON
    for n in range(1, 7):
        top = min(n, 5) if fermionic else 5
        lower, starts = outputs_up_to(n, top, fermionic)
        groups = [lower[a:b] for a, b in zip(starts, starts[1:])]
        assert len(lower) == starts[-1] and len(groups) == top
        for d, group in enumerate(groups, start=1):
            every = list(enumerate_outputs(n, d, kind))
            assert group.tolist() == [list(s) for s in every]
            assert output_ranks(group, fermionic).tolist() == list(range(len(every)))
        # one call over several particle numbers ranks each within its own
        assert (output_ranks(lower, fermionic)
                == np.concatenate([output_ranks(g, fermionic) for g in groups])).all()
        assert lower.dtype == np.uint8


@pytest.mark.parametrize("single", [False, True])
def test_lattice_table_holds_every_degree(single):
    """The slots of every degree are each output's occupied modes in
    ascending order, min(d, n) of them; each parent is the rank of the
    output with one particle removed there, looked up by ``parent_ranks``,
    each fermion flip ``odd_after`` there, and the slots past an output's
    occupied modes are padding, mode and parent -1: the zero rows the
    expansion appends. The top group is the output array."""
    kind = ParticleType.FERMION if single else ParticleType.BOSON
    cases = ((1, 1), (3, 2), (5, 4), (6, 3), (4, 0), (7, 6)) + (() if single else ((2, 5), (1, 3)))
    for n, particles in cases:
        table = lattice(n, particles, single)
        lower, starts = outputs_up_to(n, particles, single)
        assert len(table.slots) == particles
        assert table.top.tolist() == output_array(n, particles, kind).tolist()
        assert not table.top.flags.writeable
        for d, slots in enumerate(table.slots, start=1):
            group = lower[starts[d - 1]:starts[d]]
            ranks = parent_ranks(group, single)
            odd = odd_after(group).T if single else None
            assert slots.parents.shape == slots.modes.shape == (min(d, n), len(group))
            for i, t in enumerate(group):
                occupied = np.flatnonzero(t)
                used = len(occupied)
                assert slots.modes[:used, i].tolist() == occupied.tolist()
                assert slots.parents[:used, i].tolist() == ranks[i, occupied].tolist()
                assert (slots.modes[used:, i] == -1).all() and (slots.parents[used:, i] == -1).all()
                if single:
                    assert used == d and odd_slots(d).tolist() == odd[i, occupied].tolist()
            assert not slots.parents.flags.writeable and not slots.modes.flags.writeable


def assert_sub_lattice_agrees(u, r):
    """The 0/1 rows of the lattice of N = sum(r) particles, in order, are
    the 0/1 lattice, and wherever both lattices take the same branch of
    ``probabilities`` (both expand, or neither), the distinguishable
    probabilities over the two agree bit for bit on those rows."""
    n, particles = len(r), sum(r)
    full, single = lattice(n, particles, False).top, lattice(n, particles, True).top
    zero_one = full.max(axis=1, initial=0) <= 1
    assert full[zero_one].tolist() == single.tolist()
    dist = ParticleType.DISTINGUISHABLE
    if expansion_pays(n, particles, dist) == expansion_pays(n, particles, dist, single=True):
        assert (probabilities(u, r, full, dist)[zero_one].tobytes()
                == probabilities(u, r, single, dist).tobytes())


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_the_0_1_rows_of_a_lattice_are_the_0_1_lattice(n, particles, seed, bunched):
    particles = min(particles, n)
    rng = np.random.default_rng(seed)
    r = (tuple(int(x) for x in rng.multinomial(particles, [1 / n] * n)) if bunched else
         tuple(int(x) for x in rng.permutation([1] * particles + [0] * (n - particles))))
    assert_sub_lattice_agrees(haar_random_unitary(n, rng), r)


def test_the_0_1_rows_of_the_dft_lattice_are_the_0_1_lattice():
    assert_sub_lattice_agrees(fourier_unitary(12), (1, 0) * 6)


@pytest.mark.parametrize("kind", list(ParticleType))
def test_output_array_is_the_cached_lattice_rows(kind):
    """The outputs are the lattice table's own top group: not copied, in its
    smallest unsigned dtype, and read-only, so a write is refused and the
    cache keeps the enumeration."""
    rows = output_array(5, 3, kind)
    assert rows is lattice(5, 3, kind is ParticleType.FERMION).top
    assert rows.dtype == np.min_scalar_type(3)
    with pytest.raises(ValueError):
        rows[:] = 0
    assert output_array(5, 3, kind).tolist() == [list(s) for s in enumerate_outputs(5, 3, kind)]


@pytest.mark.parametrize("kind", list(ParticleType))
def test_lists_off_the_lattice_get_the_bits_of_lone_calls(kind):
    """Only the whole lattice, by value and in order, takes the expansion:
    a subset, a shuffle of the lattice and a lattice-sized list with a
    repeated row give each output the bits of a lone call on it, and the
    lattice as a list of lists gives the lattice's bits."""
    rng = np.random.default_rng(23)
    stack = np.array([haar_random_unitary(6, rng) for _ in range(3)])
    r = (1, 1, 0, 1, 1, 0)
    outputs = output_array(6, 4, kind)
    assert expansion_pays(6, 4, kind)
    whole = probabilities(stack, r, outputs, kind)
    assert probabilities(stack, r, outputs.tolist(), kind).tobytes() == whole.tobytes()
    lone = np.concatenate([probabilities(stack, r, [s], kind) for s in outputs], axis=1)
    assert np.abs(whole - lone).max() <= 1e-12
    repeated = np.arange(len(outputs))
    repeated[-1] = 0
    for picked in (np.delete(np.arange(len(outputs)), len(outputs) // 2),
                   rng.permutation(len(outputs)), repeated, [len(outputs) // 3]):
        assert probabilities(stack, r, outputs[picked], kind).tobytes() == lone[:, picked].tobytes()


def test_lone_outputs_never_build_a_lattice(monkeypatch, tmp_path):
    """A unitary robustness fit, a ``symfock prob`` run and a short list
    (fewer outputs than the lattice holds) never run the lattice
    recurrence."""
    calls = Counter()
    real = fock._generations

    def counted(n, particles, fermionic):
        calls[n, particles, fermionic] += 1
        return real(n, particles, fermionic)

    monkeypatch.setattr(fock, "_generations", counted)
    lattice.cache_clear()
    built = build_unitary(UnitarySpec(Permutation.parse("(1 2 3)(4 5 6)(7 8)"), rotation_seed=7))
    run_unitary_robustness(built.matrix, built.eigenvalues, (1, 1, 1, 0, 0, 0, 1, 1),
                           (1, 1, 0, 1, 1, 0, 1, 0), (0.001, 0.002, 0.005, 0.01),
                           samples=20, seed=0)
    unitary = tmp_path / "u.json"
    unitary.write_text(json.dumps(matrix_to_json(built.matrix)))
    for kind in ("boson", "fermion", "dist"):
        assert main(["prob", "--unitary", str(unitary), "--input-state", "[1,1,1,0,0,0,1,1]",
                     "--output-state", "[1,1,0,1,1,0,1,0]", "--type", kind]) == 0
    short = list(islice(enumerate_outputs(8, 5, ParticleType.BOSON), 100))
    probabilities(built.matrix, (1, 1, 1, 0, 0, 0, 1, 1), short, ParticleType.BOSON)
    assert not calls
    lattice.cache_clear()


def test_a_census_builds_each_lattice_once(monkeypatch):
    """The lattice recurrence runs once per (n, N, single) across the output
    arrays and every probability call of a census, over several
    sub-stacks."""
    calls = Counter()
    real = fock._generations

    def counted(n, particles, fermionic):
        calls[n, particles, fermionic] += 1
        return real(n, particles, fermionic)

    monkeypatch.setattr(fock, "_generations", counted)
    monkeypatch.setattr(experiments, "CHUNK", 4)
    lattice.cache_clear()
    run_mean_probabilities(Permutation.parse("(1 2 3)(4 5 6)(7 8)"), (1, 1, 1, 0, 0, 0, 1, 1),
                           num_bases=10, seed=3)
    assert calls == {(8, 5, False): 1, (8, 5, True): 1}
    lattice.cache_clear()


def test_dft_zero_census():
    """Every DFT output at n = 12, m = 6, r = (1, 0) x 6 is either a zero
    that the law explains, one of 504 boson zeros no law explains, or at
    least 1e-6: a stronger law, or a kernel that blurs the gap, changes a
    number here."""
    tables = run_fourier_comparison(12, 6, (1, 0) * 6).tables
    boson, fermion = (list(zip(tables[kind].laws.columns[law].tolist(), tables[kind].p.tolist()))
                      for kind, law in ((ParticleType.BOSON, "boson_suppressed"),
                                        (ParticleType.FERMION, "fermion_suppressed")))
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
