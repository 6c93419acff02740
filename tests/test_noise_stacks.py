"""Stacked noise draws and reductions of the robustness fits.

The oracles are the per-sample versions the fits used before they drew whole
sub-stacks: two draws per sample for the gaussian and disk deviations and for
the sampled Gram matrices, and a fit loop that draws every sample alone and
reduces through a streaming ``oracles.KahanMean``.
The stacked code has to give their bits, not just their values. The sampled
Gram matrices need no repair: every drawn stack passes the single sum's check
as drawn."""

import tracemalloc
from functools import cache
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock import experiments, scattering
from symfock.experiments import (
    DELTA_DISTRIBUTIONS,
    PerturbationModel,
    derive_seed,
    run_distinguishability_robustness,
    run_unitary_robustness,
    sample_distinguishability,
)
from symfock.fock import ParticleType, output_array
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import (
    BLOCK_ENTRIES,
    CHUNK,
    prob_partial,
    probabilities,
    validate_distinguishability,
)
from symfock.suppression import boson_suppressed
from symfock.unitaries import UnitarySpec, build_unitary, fourier_symmetry, fourier_unitary

from oracles import KahanMean, embed_occupied_grams, reference_dist_fit

WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED = build_unitary(UnitarySpec(WORKED_PERM, rotation_seed=7))
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)
WORKED_TARGET = (1, 1, 0, 1, 1, 0, 1, 0)
GRID = (1e-3, 2e-3, 5e-3, 1e-2)


def lone_deltas(model: PerturbationModel, shape, rng) -> np.ndarray:
    """Deviations for one matrix, each array drawn by its own call."""
    if model.distribution == "ring":
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        return model.mean_abs * np.exp(1j * phase)
    if model.distribution == "gaussian":
        z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        return z * (model.mean_abs / (np.sqrt(np.pi) / 2.0))
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=shape))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return radius * np.exp(1j * phase) * (model.mean_abs * 1.5)


def lone_gram(n: int, mean_eps: float, rng):
    """One Gram matrix, each array drawn by its own call."""
    eps_j = rng.uniform(0.0, 2.0 * mean_eps, size=n)
    t = np.arcsin(np.sqrt(np.minimum(eps_j, 1.0)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    a = np.cos(t)
    b = np.sin(t) * np.exp(1j * phi)
    s = np.outer(a, a) + np.outer(b, np.conj(b))
    np.fill_diagonal(s, 1.0)
    return s


def oracle_unitary_fit(u, r, s, particle, grid, samples, seed, distribution):
    measured = []
    for gi, g in enumerate(grid):
        model = PerturbationModel(g, distribution=distribution)
        rng = np.random.default_rng(derive_seed(seed, gi))
        acc = KahanMean(1)
        for start in range(0, samples, CHUNK):
            deltas = np.array([lone_deltas(model, u.shape, rng)
                               for _ in range(min(CHUNK, samples - start))])
            for p in probabilities(u * (1.0 + deltas), r, [s], particle):
                acc.add(p)
        measured.append(float(acc.mean()[0]))
    return tuple(measured)


def oracle_dist_fit(u, r, s, particle, grid, samples, seed):
    """Lone Gram draws over the occupied input modes, embedded into n x n,
    one ``prob_partial`` call per grid point."""
    measured = []
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        grams = [lone_gram(np.count_nonzero(r), g, rng) for _ in range(samples)]
        acc = KahanMean(1)
        for p in prob_partial(u, r, s, embed_occupied_grams(np.array(grams), r), particle):
            acc.add(p)
        measured.append(float(acc.mean()[0]))
    return tuple(measured)


seeds = st.integers(0, 2**32 - 1)
scales = st.sampled_from((1e-4, 1e-3, 1e-2, 0.1, 0.4))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, b=st.integers(0, 12), n=st.integers(1, 9), eps=scales,
       distribution=st.sampled_from(DELTA_DISTRIBUTIONS))
def test_stacked_deviations_equal_lone_draws(seed, b, n, eps, distribution):
    model = PerturbationModel(eps, distribution=distribution)
    stacked = model.sample((b, n, n), np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    lone = [lone_deltas(model, (n, n), rng) for _ in range(b)]
    assert stacked.shape == (b, n, n)
    assert np.array_equal(stacked, np.array(lone).reshape(b, n, n))
    assert np.array_equal(model.sample((n, n), np.random.default_rng(seed)),
                          lone_deltas(model, (n, n), np.random.default_rng(seed)))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, b=st.integers(0, 12), n=st.integers(1, 9), eps=st.sampled_from((0.0, 1e-3, 0.4)),
       distribution=st.sampled_from(DELTA_DISTRIBUTIONS), data=st.data())
def test_sampled_block_equals_the_block_of_the_full_sample(seed, b, n, eps, distribution, data):
    model = PerturbationModel(eps, distribution=distribution)
    modes = st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(
        lambda m: np.array(m, dtype=np.intp))
    rows, cols = data.draw(modes), data.draw(modes)
    rng, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
    block = model.sample((b, n, n), rng, (rows, cols))
    full = model.sample((b, n, n), rng_full)
    assert block.shape == (b, len(rows), len(cols))
    assert block.tobytes() == full[:, rows[:, None], cols].tobytes()
    assert rng.random() == rng_full.random()  # the block takes the full draw from the stream


@settings(max_examples=60, deadline=None)
@given(seed=seeds, b=st.integers(1, 12), n=st.integers(1, 9), eps=scales)
def test_stacked_grams_equal_lone_draws(seed, b, n, eps):
    stacked, repairs = sample_distinguishability(n, eps, np.random.default_rng(seed), count=b)
    rng = np.random.default_rng(seed)
    lone = [lone_gram(n, eps, rng) for _ in range(b)]
    assert type(repairs) is int and repairs == 0
    assert stacked.tobytes() == np.array(lone).tobytes()
    gram, flag = sample_distinguishability(n, eps, np.random.default_rng(seed))
    assert flag is False
    assert gram.tobytes() == lone[0].tobytes()


@pytest.mark.parametrize("mean_eps", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("count", [None, 0, 2])
@pytest.mark.parametrize("n", [0, 1])
def test_zero_and_one_mode_draws_need_no_repair(n, count, mean_eps):
    # a 0 x 0 Gram matrix is empty, a 1 x 1 one is [[1]], at every deficit
    grams, repairs = sample_distinguishability(n, mean_eps, np.random.default_rng(5), count=count)
    shape = (n, n) if count is None else (count, n, n)
    assert grams.shape == shape and np.array_equal(grams, np.ones(shape))
    assert type(repairs) is (bool if count is None else int) and repairs == 0


@pytest.mark.parametrize("count", [None, 0, 3])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_zero_deficit_draws_identical_particles(n, count):
    # every internal state is |0>: the overlaps are exactly 1
    grams, repairs = sample_distinguishability(n, 0.0, np.random.default_rng(6), count=count)
    shape = (n, n) if count is None else (count, n, n)
    assert grams.shape == shape and grams.tobytes() == np.ones(shape, dtype=complex).tobytes()
    assert repairs == 0


@cache
def dft_event(n: int):
    """(U, eigenvalues, permutation, input, target) of the n-mode DFT under its
    cyclic shift, one particle per mode, with the first boson-suppressed
    output as target: an event whose Gram matrices span all n modes."""
    perm, eigenvalues = fourier_symmetry(n, n)
    r = (1,) * n
    target = next(tuple(map(int, s)) for s in output_array(n, n, ParticleType.BOSON)
                  if boson_suppressed(eigenvalues, s))
    return fourier_unitary(n), eigenvalues, perm, r, target


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 6), mean_eps=st.floats(0.0, 0.5), count=st.integers(0, 40))
def test_every_drawn_gram_passes_the_check_as_drawn(seed, n, mean_eps, count):
    """The one ensemble needs no repair: a stack drawn at any mean deficit up
    to 0.5 passes ``validate_distinguishability`` as drawn, and so does
    every stack a fit draws, whose ``psd_repairs`` reads 0. The fit runs on
    the n-mode DFT with one particle per mode (n >= 2), its grid ending at
    the drawn deficit while the deviations clear the fit's floor."""
    grams, repairs = sample_distinguishability(n, mean_eps, np.random.default_rng(seed),
                                               count=count)
    assert grams.shape == (count, n, n) and repairs == 0
    assert validate_distinguishability(grams).tobytes() == grams.tobytes()
    if n < 2 or mean_eps < 1e-6:
        return
    checked = []

    def checked_draw(*args, **kwargs):
        drawn, repaired = sample_distinguishability(*args, **kwargs)
        assert repaired == 0
        checked.append(validate_distinguishability(drawn).tobytes() == drawn.tobytes())
        return drawn, repaired

    u, eigenvalues, perm, r, target = dft_event(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "sample_distinguishability", checked_draw)
        fit = run_distinguishability_robustness(u, eigenvalues, r, target,
                                                [mean_eps / 8, mean_eps / 4, mean_eps / 2, mean_eps],
                                                samples=max(count, 1), seed=seed, permutation=perm)
    assert checked and all(checked)
    assert fit.metadata["psd_repairs"] == 0


#: Around the single sum's blocks (68 Gram matrices at N = 5), the Gram
#: stacks (327 at k = 5) and the unitary fit's CHUNK (512).
SAMPLE_COUNTS = (1, 67, 68, 69, 326, 327, 328, 513, 1025)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("distribution", DELTA_DISTRIBUTIONS)
def test_unitary_fit_matches_per_sample_oracle(distribution, samples):
    args = (WORKED.matrix, WORKED_INPUT, WORKED_TARGET, ParticleType.BOSON, GRID, samples, 11)
    fit = run_unitary_robustness(WORKED.matrix, WORKED.eigenvalues, WORKED_INPUT, WORKED_TARGET,
                                 GRID, samples=samples, seed=11,
                                 distribution=distribution)
    assert fit.measured == oracle_unitary_fit(*args, distribution)


@pytest.mark.parametrize("particle, r, s", [
    (ParticleType.BOSON, (2, 0, 2, 0), (3, 1, 0, 0)),  # repeated rows and columns
    (ParticleType.FERMION, (1, 0, 1, 0), (1, 0, 1, 0)),
])
@pytest.mark.parametrize("distribution", DELTA_DISTRIBUTIONS)
def test_unitary_fit_on_the_occupied_block_matches_the_full_matrix(distribution, particle, r, s):
    # the fit forms noise and permanents on the occupied rows and columns only;
    # the oracle perturbs the whole 4 x 4 DFT
    perm, eigenvalues = fourier_symmetry(4, 2)
    u = fourier_unitary(4)
    fit = run_unitary_robustness(u, eigenvalues, r, s, GRID, particle, samples=70, seed=15,
                                 distribution=distribution, permutation=perm)
    assert fit.measured == oracle_unitary_fit(u, r, s, particle, GRID, 70, 15, distribution)


#: The dist-fit oracle cases on the worked example, by test-id prefix:
#: particle, input, target and sample counts. The class-III boson event; a
#: fermion target; and a bunched input, repeated modes in both lists, whose
#: 7! terms make one Gram matrix per sub-stack.
DIST_FITS = {
    "": (ParticleType.BOSON, WORKED_INPUT, WORKED_TARGET, SAMPLE_COUNTS),
    "fermion-": (ParticleType.FERMION, WORKED_INPUT, (0, 1, 0, 1, 1, 0, 1, 1), (1, 69)),
    "bunched-": (ParticleType.BOSON, (1, 1, 1, 0, 0, 0, 2, 2), (0, 0, 0, 1, 1, 0, 2, 3), (1, 3)),
}


#: The fits' grids: the small deficits of the first-order regime, and large
#: ones up to the 0.5 cap, where the internal states spread furthest.
DIST_GRIDS = {"small": GRID, "wide": (0.05, 0.1, 0.25, 0.5)}


@pytest.mark.parametrize("grid", DIST_GRIDS.values(), ids=DIST_GRIDS.keys())
@pytest.mark.parametrize("particle, r, s, samples", [
    pytest.param(particle, r, s, samples, id=f"{label}{samples}")
    for label, (particle, r, s, counts) in DIST_FITS.items() for samples in counts])
def test_dist_fit_matches_per_sample_oracle(particle, r, s, samples, grid):
    assert (BLOCK_ENTRIES // 120, BLOCK_ENTRIES // 5**2) == (68, 327)  # what SAMPLE_COUNTS cross
    fit = run_distinguishability_robustness(WORKED.matrix, WORKED.eigenvalues, r, s, grid, particle,
                                            samples=samples, seed=12, permutation=WORKED_PERM)
    assert fit.measured == oracle_dist_fit(WORKED.matrix, r, s, particle, grid, samples, 12)
    assert fit.metadata["psd_repairs"] == 0


@pytest.mark.parametrize("grid", DIST_GRIDS.values(), ids=DIST_GRIDS.keys())
@pytest.mark.parametrize("particle, target", [
    (ParticleType.BOSON, WORKED_TARGET),
    (ParticleType.FERMION, DIST_FITS["fermion-"][2]),
], ids=["boson", "fermion"])
def test_empty_modes_leave_the_dist_fit_unchanged(particle, target, grid):
    """The worked example padded with two empty modes, U + I_2 with two fixed
    points of eigenvalue 1, gives the 8-mode fit's draws and means: the Gram
    matrices span the occupied input modes only."""
    padded = np.eye(10, dtype=complex)
    padded[:8, :8] = WORKED.matrix
    fit, padded_fit = (
        run_distinguishability_robustness(u, eigenvalues, WORKED_INPUT + pad, target + pad,
                                          grid, particle, samples=150, seed=9, permutation=perm)
        for u, eigenvalues, perm, pad in [
            (WORKED.matrix, WORKED.eigenvalues, WORKED_PERM, ()),
            (padded, WORKED.eigenvalues + (RootOfUnity(0, 1),) * 2,
             Permutation.parse("(1 2 3)(4 5 6)(7 8)", n=10), (0, 0)),
        ]
    )
    assert padded_fit.measured == fit.measured


@pytest.mark.parametrize("entries", [25, 50, 75, 125, 175])  # 1, 2, 3, 5 and 7 5 x 5 Grams a stack
def test_dist_fit_computes_the_weights_once(monkeypatch, entries):
    # 7 samples per grid point make several Gram stacks per grid point: the
    # N! = 120 weight permanents are still computed once for the whole fit
    monkeypatch.setattr(experiments, "BLOCK_ENTRIES", entries)
    draws = []
    real_draw = experiments.sample_distinguishability

    def counting_draw(*args, count, **kwargs):
        draws.append(count)
        return real_draw(*args, count=count, **kwargs)

    monkeypatch.setattr(experiments, "sample_distinguishability", counting_draw)
    stacks = []
    real_permanent = scattering.permanent_ryser

    def counting_permanent(m):
        stacks.append((m.shape, m.dtype.kind))
        return real_permanent(m)

    monkeypatch.setattr(scattering, "permanent_ryser", counting_permanent)
    fit = run_distinguishability_robustness(WORKED.matrix, WORKED.eigenvalues, WORKED_INPUT,
                                            WORKED_TARGET, GRID,
                                            samples=7, seed=13)
    monkeypatch.setattr(scattering, "permanent_ryser", real_permanent)
    per_stack = entries // 25
    assert draws == [min(per_stack, 7 - start) for start in range(0, 7, per_stack)] * len(GRID)
    # the weights are complex (b, 5, 5) stacks; the lone complex (5, 5) is
    # |perm M|^2 and the real (1, 5, 5) stack the distinguishable reference
    weights = [shape for shape, kind in stacks if len(shape) == 3 and kind == "c"]
    assert sum(shape[0] for shape in weights) == factorial(5)
    assert sorted(stacks) == sorted([*((shape, "c") for shape in weights),
                                     ((5, 5), "c"), ((1, 5, 5), "f")])
    assert fit.measured == reference_dist_fit(WORKED.matrix, WORKED_INPUT, WORKED_TARGET,
                                              ParticleType.BOSON, GRID, 7, 13)


def test_dist_fit_memory_follows_the_budget_not_the_samples():
    """The traced peak of a worked-example dist fit at 3 000 samples is at
    most 1.25 times that at 300 (a full Gram stack holds 327 matrices, 9 %
    more than 300), and both stay under 1.5 MB: the stacks follow
    BLOCK_ENTRIES, not ``samples``."""
    def peak(samples):
        tracemalloc.start()
        try:
            run_distinguishability_robustness(WORKED.matrix, WORKED.eigenvalues, WORKED_INPUT,
                                              WORKED_TARGET, GRID, samples=samples, seed=4,
                                              permutation=WORKED_PERM)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the cached tables, outside the measurement
    few, many = peak(300), peak(3_000)
    assert many <= 1.25 * few
    assert max(few, many) <= 1_500_000
