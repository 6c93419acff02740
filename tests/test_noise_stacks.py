"""Stacked noise draws, PSD repair and reductions of the robustness fits.

The oracles are the per-sample versions the fits used before they drew whole
sub-stacks: two draws per sample for the gaussian and disk deviations and for
the sampled Gram matrices, one ``eigh`` and one clip per Gram matrix, and a
fit loop that draws every sample alone and reduces through a streaming
``oracles.KahanMean``.
The stacked code has to give their bits, not just their values."""

import tracemalloc
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
from symfock.fock import ParticleType
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import BLOCK_ENTRIES, CHUNK, prob_partial, probabilities
from symfock.unitaries import UnitarySpec, build_unitary, fourier_symmetry, fourier_unitary

from oracles import KahanMean, embed_occupied_grams, reference_dist_fit, repair_distinguishability

ENSEMBLES = ("independent", "gram")
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


def lone_repair(s: np.ndarray) -> tuple[np.ndarray, bool]:
    """One ``eigh``, then clip and renormalise one matrix."""
    herm = (s + s.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(herm)
    if eigvals[0] >= -1e-10:
        return herm, False
    clipped = (eigvecs * np.maximum(eigvals, 0.0)[None, :]) @ eigvecs.conj().T
    scale = np.sqrt(np.real(np.diagonal(clipped)))
    if np.any(scale <= 0):
        raise ValueError("PSD repair collapsed a diagonal entry to zero")
    repaired = clipped / np.outer(scale, scale)
    np.fill_diagonal(repaired, 1.0)
    return repaired, True


def lone_gram(n: int, mean_eps: float, rng, ensemble: str, eta_scale: float = 1.0):
    """One Gram matrix, each array drawn by its own call."""
    if ensemble == "independent":
        eps = rng.uniform(0.0, 2.0 * mean_eps, size=(n, n))
        eps = (eps + eps.T) / 2.0
        eta = rng.uniform(-eta_scale * mean_eps, eta_scale * mean_eps, size=(n, n))
        eta = (eta - eta.T) / 2.0
        s = (1.0 - eps) * np.exp(1j * eta)
        np.fill_diagonal(s, 1.0)
        repaired, flag = lone_repair(s)
        return (repaired, True) if flag else (s, False)
    eps_j = rng.uniform(0.0, 2.0 * mean_eps, size=n)
    t = np.arcsin(np.sqrt(np.minimum(eps_j, 1.0)))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    a = np.cos(t)
    b = np.sin(t) * np.exp(1j * phi)
    s = np.outer(a, a) + np.outer(b, np.conj(b))
    np.fill_diagonal(s, 1.0)
    return s, False


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


def oracle_dist_fit(u, r, s, particle, grid, samples, seed, ensemble, eta_scale=1.0):
    """Lone Gram draws over the occupied input modes, embedded into n x n,
    one ``prob_partial`` call per grid point."""
    measured = []
    repairs = 0
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        grams = []
        for _ in range(samples):
            gram, repaired = lone_gram(np.count_nonzero(r), g, rng, ensemble, eta_scale)
            repairs += repaired
            grams.append(gram)
        acc = KahanMean(1)
        for p in prob_partial(u, r, s, embed_occupied_grams(np.array(grams), r), particle):
            acc.add(p)
        measured.append(float(acc.mean()[0]))
    return tuple(measured), repairs


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
@given(seed=seeds, b=st.integers(1, 12), n=st.integers(1, 9), eps=scales,
       ensemble=st.sampled_from(ENSEMBLES), eta_scale=st.sampled_from((0.5, 1.0, 3.0)))
def test_stacked_grams_equal_lone_draws(seed, b, n, eps, ensemble, eta_scale):
    stacked, repairs = sample_distinguishability(n, eps, np.random.default_rng(seed), ensemble,
                                                 eta_scale, count=b)
    rng = np.random.default_rng(seed)
    lone = [lone_gram(n, eps, rng, ensemble, eta_scale) for _ in range(b)]
    assert type(repairs) is int
    assert repairs == sum(flag for _, flag in lone)
    assert stacked.tobytes() == np.array([gram for gram, _ in lone]).tobytes()
    gram, flag = sample_distinguishability(n, eps, np.random.default_rng(seed), ensemble, eta_scale)
    assert type(flag) is bool
    assert gram.tobytes() == lone[0][0].tobytes() and flag == lone[0][1]


@pytest.mark.parametrize("spread", (1e-4, 1e-3, 1e-2, 0.1, 1.2))
def test_exp_of_a_negated_phase_is_its_conjugate(spread):
    """The ``independent`` Gram build takes the complex exp of the phases of
    the strict upper triangle only and conjugates it into the lower one. That
    gives the bits of the exp of the lower triangle's own phases, the
    negated ones, because exp(-i eta) == conj(exp(i eta)) bit for bit: here
    over 40 000 antisymmetrised phases of each range the fits draw from (up
    to eta_scale 3 at mean deficit 0.4)."""
    a, b = np.random.default_rng(17).uniform(-spread, spread, size=(2, 40_000))
    eta = (a - b) / 2.0
    assert np.exp(1j * ((b - a) / 2.0)).tobytes() == np.exp(1j * eta).conj().tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=seeds, b=st.integers(1, 12), n=st.integers(1, 9), eps=st.sampled_from((0.0, 1e-3, 0.4)),
       eta_scale=st.sampled_from((0.0, 1.0)))
def test_unrepaired_independent_grams_are_hermitian_by_construction(seed, b, n, eps, eta_scale):
    """Every Gram the repair leaves alone has the conjugates of its upper
    triangle in its lower one, bit for bit, and equals the lone draw: with
    eta exactly 0 only up to the sign of the zero imaginary parts of its
    lower triangle."""
    stacked, _ = sample_distinguishability(n, eps, np.random.default_rng(seed), "independent",
                                           eta_scale, count=b)
    rng = np.random.default_rng(seed)
    lone = [lone_gram(n, eps, rng, "independent", eta_scale) for _ in range(b)]
    upper, lower = np.triu_indices(n, 1)
    for gram, (expected, repaired) in zip(stacked, lone):
        assert np.array_equal(gram, expected)
        if not repaired:
            assert gram[lower, upper].tobytes() == gram[upper, lower].conj().tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=seeds, count=st.none() | st.integers(0, 12), n=st.integers(1, 9),
       eps=st.sampled_from((0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.4)),
       eta_scale=st.sampled_from((0.0, 0.5, 1.0, 3.0)))
def test_independent_draws_skip_the_symmetrisation_of_the_repair(seed, count, n, eps, eta_scale):
    """The ``independent`` sampler sends its raw draw to the repair step with
    no (S + S^H) / 2. That is sound because the raw draw equals its
    Hermitian part bit for bit, so the sampler gives the bits of
    ``repair_distinguishability`` of the same draw, lone or stacked."""
    raw = []
    real_step = experiments._repair_hermitian

    def keep_raw(stack):
        raw.append(stack.copy())  # the step repairs in place
        return real_step(stack)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_repair_hermitian", keep_raw)
        grams, repairs = sample_distinguishability(n, eps, np.random.default_rng(seed), "independent",
                                                   eta_scale, count=count)
    [s] = raw
    assert ((s + s.conj().swapaxes(-1, -2)) / 2.0).tobytes() == s.tobytes()
    expected, mask = repair_distinguishability(s if count is not None else s[0])
    assert grams.shape == expected.shape and grams.tobytes() == expected.tobytes()
    assert repairs == (mask if count is None else int(mask.sum()))


def mixed_stack(rng, b: int, n: int, bad=slice(None, None, 2)) -> np.ndarray:
    """Hermitian unit-diagonal matrices, those at ``bad`` (every other one by
    default) pushed out of the PSD cone by an off-diagonal pair of modulus
    above 1 (its 2 x 2 minor has eigenvalue 1 - |a| < 0), the rest exact Gram
    matrices."""
    v = np.ones((b, n, 2)) + 0.3 * (rng.standard_normal((b, n, 2)) + 1j * rng.standard_normal((b, n, 2)))
    v /= np.linalg.norm(v, axis=2)[:, :, None]
    stack = v.conj() @ v.swapaxes(-1, -2)
    diagonal = np.arange(n)
    stack[:, diagonal, diagonal] = 1.0
    a = rng.uniform(1.05, 1.5, size=b) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=b))
    stack[bad, 0, 1] = a[bad]
    stack[bad, 1, 0] = np.conj(a[bad])
    return stack


@pytest.mark.parametrize("count", [None, 2])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_zero_and_one_mode_draws_need_no_repair(ensemble, n, count):
    # a 0 x 0 Gram matrix has no eigenvalue to clip, a 1 x 1 one is [[1]]
    grams, repairs = sample_distinguishability(n, 0.1, np.random.default_rng(5), ensemble,
                                               count=count)
    shape = (n, n) if count is None else (count, n, n)
    assert grams.shape == shape and np.array_equal(grams, np.ones(shape))
    assert type(repairs) is (bool if count is None else int) and repairs == 0


@settings(max_examples=60, deadline=None)
@given(seed=seeds, b=st.integers(1, 10), n=st.integers(2, 9))
def test_stacked_repair_equals_lone_calls(seed, b, n):
    stack = mixed_stack(np.random.default_rng(seed), b, n)
    repaired, mask = repair_distinguishability(stack)
    lone = [lone_repair(m) for m in stack]
    assert mask.tolist() == [flag for _, flag in lone]
    assert mask[::2].all()
    assert np.array_equal(repaired, np.array([m for m, _ in lone]))
    for m, (expected, flag) in zip(stack, lone):
        got, got_flag = repair_distinguishability(m)
        assert type(got_flag) is bool and got_flag == flag
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("pattern", ["R", "K", "RRRRR", "KKKKK", "RKKRK", "KRRRR", "RRRRK", "R" * 68])
def test_repair_equals_lone_repair(pattern):
    # R: needs the repair, K: kept; every R, every K and mixed stacks, B = 1
    # included, and the (matrix, bool) form of each matrix alone
    bad = np.array([c == "R" for c in pattern])
    stack = mixed_stack(np.random.default_rng(len(pattern)), len(pattern), 6, bad)
    drawn = stack.copy()
    repaired, mask = repair_distinguishability(stack)
    lone = [lone_repair(m) for m in stack]
    assert mask.tolist() == bad.tolist() == [flag for _, flag in lone]
    assert repaired.shape == stack.shape
    assert repaired.tobytes() == np.array([m for m, _ in lone]).tobytes()
    assert stack.tobytes() == drawn.tobytes()  # the input is never written
    for m, (expected, flag) in zip(stack, lone):
        got, got_flag = repair_distinguishability(m)
        assert type(got_flag) is bool and got_flag == flag
        assert got.shape == m.shape and got.tobytes() == expected.tobytes()


def test_repair_threshold_inside_a_stack():
    # lowest eigenvalues on both sides of the -1e-10 repair threshold
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5)))
    lowest = np.array([-1e-9, -1e-11, -2e-10])
    eigvals = np.concatenate([lowest[:, None], np.full((3, 4), 1.25)], axis=1)
    stack = (q * eigvals[:, None, :]) @ q.conj().swapaxes(-1, -2)
    repaired, mask = repair_distinguishability(stack)
    lone = [lone_repair(m) for m in stack]
    assert mask.tolist() == [True, False, True] == [flag for _, flag in lone]
    assert np.array_equal(repaired, np.array([m for m, _ in lone]))


def test_collapsed_diagonal_raises_from_inside_a_stack():
    stack = mixed_stack(np.random.default_rng(3), 5, 4)
    stack[3] = np.diag([1.0, 1.0, -1.0, 1.0])  # clipping leaves a zero diagonal entry
    with pytest.raises(ValueError, match="collapsed a diagonal entry"):
        repair_distinguishability(stack)


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


@pytest.mark.parametrize("particle, r, s, samples", [
    pytest.param(particle, r, s, samples, id=f"{label}{samples}")
    for label, (particle, r, s, counts) in DIST_FITS.items() for samples in counts])
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_dist_fit_matches_per_sample_oracle(ensemble, particle, r, s, samples):
    assert (BLOCK_ENTRIES // 120, BLOCK_ENTRIES // 5**2) == (68, 327)  # what SAMPLE_COUNTS cross
    fit = run_distinguishability_robustness(WORKED.matrix, WORKED.eigenvalues, r, s, GRID, particle,
                                            samples=samples, seed=12, ensemble=ensemble,
                                            permutation=WORKED_PERM)
    measured, repairs = oracle_dist_fit(WORKED.matrix, r, s, particle, GRID, samples, 12, ensemble)
    assert fit.measured == measured
    assert fit.metadata["psd_repairs"] == repairs


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_empty_modes_leave_the_dist_fit_unchanged(ensemble):
    """The worked example padded with two empty modes, U + I_2 with two fixed
    points of eigenvalue 1, gives the 8-mode fit's draws, repairs and means:
    the Gram matrices span the occupied input modes only."""
    padded = np.eye(10, dtype=complex)
    padded[:8, :8] = WORKED.matrix
    fit, padded_fit = (
        run_distinguishability_robustness(u, eigenvalues, WORKED_INPUT + pad, WORKED_TARGET + pad,
                                          GRID, samples=150, seed=9, ensemble=ensemble,
                                          permutation=perm)
        for u, eigenvalues, perm, pad in [
            (WORKED.matrix, WORKED.eigenvalues, WORKED_PERM, ()),
            (padded, WORKED.eigenvalues + (RootOfUnity(0, 1),) * 2,
             Permutation.parse("(1 2 3)(4 5 6)(7 8)", n=10), (0, 0)),
        ]
    )
    assert padded_fit.measured == fit.measured
    assert padded_fit.metadata["psd_repairs"] == fit.metadata["psd_repairs"]
    assert (ensemble == "gram") is (fit.metadata["psd_repairs"] == 0)


@pytest.mark.parametrize("entries", [25, 50, 125])  # 1, 2 and 5 5 x 5 Gram matrices per stack
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_dist_fit_computes_the_weights_once(monkeypatch, ensemble, entries):
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
                                            samples=7, seed=13, ensemble=ensemble)
    monkeypatch.setattr(scattering, "permanent_ryser", real_permanent)
    per_stack = entries // 25
    assert draws == [min(per_stack, 7 - start) for start in range(0, 7, per_stack)] * len(GRID)
    # the weights are complex (b, 5, 5) stacks; the lone complex (5, 5) is
    # |perm M|^2 and the real (1, 5, 5) stack the distinguishable reference
    weights = [shape for shape, kind in stacks if len(shape) == 3 and kind == "c"]
    assert sum(shape[0] for shape in weights) == factorial(5)
    assert sorted(stacks) == sorted([*((shape, "c") for shape in weights),
                                     ((5, 5), "c"), ((1, 5, 5), "f")])
    measured, repairs = reference_dist_fit(WORKED.matrix, WORKED_INPUT, WORKED_TARGET,
                                           ParticleType.BOSON, GRID, 7, 13, ensemble)
    assert fit.measured == measured
    assert fit.metadata["psd_repairs"] == repairs


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
