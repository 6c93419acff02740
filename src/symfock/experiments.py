"""Reproducible experiment runners.

Three families:

* random-eigenbasis census: average transition probabilities over many
  seeded eigenbasis rotations, attach law verdicts and event classes
* DFT law comparison: the multiset fermion test against the older parity
  test, with exact probabilities as referee
* robustness fits: mean deviation from perfect suppression against the
  noise amplitude, for perturbed unitaries and for partial
  distinguishability, fitted on a log-log grid

Every runner is deterministic given its seed: per-task generators are
derived from (seed, task index), and reductions run in task order with
compensated summation, in one process.

Probabilities come from :func:`scattering.probabilities`, which checks the
unitaries, the input and the outputs once per call. The census stacks its
eigenbases the way the fits stack their noise samples: one
:func:`unitaries.build_unitaries` per sub-stack of at most
``scattering.CHUNK`` bases (one eigenstructure, one stacked QR per
degenerate eigenspace, both invariants checked over the stack), then one
call per particle kind for each sub-stack, with all outputs of every basis
(one polynomial expansion per unitary, its parents read from the cached
lattice table of :func:`fock.lattice`, which :func:`fock.output_array`
built). The DFT comparison
makes one call per kind for its one unitary, the unitary robustness fit one
per sub-stack of ``scattering.CHUNK`` noise samples (one permanent per
sample). The distinguishability fit splits :func:`scattering.prob_partial`
in its two halves: it computes the N! weight permanents of its one
transition once, with :func:`scattering.partial_weights`, and sends its Gram
matrices to :func:`scattering.partial_probabilities` in sub-stacks of
:data:`GRAM_STACK_TERMS` // N! matrices (at least one), which keeps the
B * N! deviation terms of a sub-stack near 2^13; every Gram matrix is still
checked there. Each sub-stack of noise samples takes one random call
(:meth:`scattering.PerturbationModel.sample` on a (B, n, n) shape,
:func:`sample_distinguishability` with a count), laid out so that it equals
the samples' lone draws in sample order bit for bit; the drawn Gram matrices
are PSD-repaired with one stacked ``eigh``, and the probabilities of a grid
point are reduced in one compensated loop, in sample order.

Each census and DFT table is one column-oriented
:class:`suppression.VerdictTable`, built by :func:`suppression.verdict_table`
from the (K, n) output array the probabilities are computed from and the two
probability columns: one :func:`suppression.output_laws` call per table, and
every row's event class at once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from . import __version__
from .fock import ParticleType, check_occupation, output_array, particle_count
from .linalg import as_complex_matrix
from .permutations import Permutation, RootOfUnity, cycle_decompose
from .scattering import (
    CHUNK,
    PerturbationModel,
    partial_probabilities,
    partial_weights,
    prob_distinguishable,
    probabilities,
    repair_distinguishability,
)
from .suppression import (
    CLASSIFY_TOL,
    VerdictTable,
    boson_suppressed,
    fermion_suppressed,
    transposition_count,
    verdict_table,
)
from .unitaries import UnitarySpec, UnitaryStack, build_unitaries, fourier_symmetry, fourier_unitary

RNG_DESCRIPTION = "numpy.random.default_rng (PCG64), per-task streams via SeedSequence(seed, index)"

#: Mean deviations below this floor are dropped from log-log fits.
FIT_FLOOR = 1e-18


def derive_seed(seed: int, *indices: int) -> int:
    """Stable per-task seed from the master seed and task indices."""
    state = np.random.SeedSequence([int(seed), *map(int, indices)]).generate_state(1, np.uint64)
    return int(state[0])


def require_invariant(p: Permutation, occupation) -> None:
    """Raise with the offending cycle named if the occupation breaks the symmetry."""
    occ = check_occupation(occupation)
    if len(occ) != p.n:
        raise ValueError(f"occupation over {len(occ)} modes, permutation over {p.n}")
    for cycle in cycle_decompose(p):
        values = {occ[mode - 1] for mode in cycle}
        if len(values) > 1:
            raise ValueError(f"input state not invariant under cycle {cycle}")


class _KahanMean:
    """Streaming compensated mean/max over equally shaped rows, in arrival
    order (the census: one row of outputs per eigenbasis)."""

    def __init__(self, width: int):
        self.total = np.zeros(width)
        self._comp = np.zeros(width)
        self.peak = np.zeros(width)
        self.count = 0

    def add(self, rows: np.ndarray) -> None:
        """Add a (b, width) block, one row at a time in order: a block's
        bits equal those of its rows added alone."""
        for row in rows:
            y = row - self._comp
            t = self.total + y
            self._comp = (t - self.total) - y
            self.total = t
            np.maximum(self.peak, row, out=self.peak)
        self.count += len(rows)

    def mean(self) -> np.ndarray:
        return self.total / self.count


def _compensated_mean(values: list[float]) -> float:
    """Mean of a list of floats, summed in order with Kahan compensation:
    the operations, and so the bits, of ``_KahanMean(1)``."""
    total = compensation = 0.0
    for value in values:
        y = value - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total / len(values)


# --- random-eigenbasis census ------------------------------------------------

@dataclass(frozen=True)
class CensusConfig:
    """Average probabilities for one symmetric input over random eigenbases."""

    permutation: Permutation
    input_state: tuple[int, ...]
    num_bases: int = 100
    seed: int = 0
    types: tuple[ParticleType, ...] = (
        ParticleType.BOSON,
        ParticleType.FERMION,
        ParticleType.DISTINGUISHABLE,
    )
    theta_phases: tuple[float, ...] | None = None
    sigma_phases: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.num_bases < 1:
            raise ValueError("need at least one eigenbasis")
        require_invariant(self.permutation, self.input_state)
        if ParticleType.FERMION in self.types:
            check_occupation(self.input_state, fermionic=True)


@dataclass
class CensusResult:
    eigenvalues: tuple[RootOfUnity, ...]
    tables: dict[ParticleType, VerdictTable]
    max_suppressed: dict[ParticleType, float]
    metadata: dict


def _census_unitaries(cfg: CensusConfig, bases: range) -> UnitaryStack:
    """The rotated unitaries of ``bases``, basis i seeded by
    ``derive_seed(cfg.seed, i)``, from one :func:`unitaries.build_unitaries`."""
    spec = UnitarySpec(cfg.permutation, theta_phases=cfg.theta_phases,
                       sigma_phases=cfg.sigma_phases)
    return build_unitaries(spec, [derive_seed(cfg.seed, index) for index in bases])


def run_mean_probabilities(cfg: CensusConfig) -> CensusResult:
    """Average P over ``num_bases`` seeded eigenbasis rotations.

    Returns one verdict table per particle type, with mean probabilities,
    the exact law verdicts (identical for every basis, since rotations never
    touch the eigenvalue diagonal) and the empirical event class derived
    from the means. The bases go through in sub-stacks of at most
    ``scattering.CHUNK``, each built by one :func:`unitaries.build_unitaries`
    (which also gives the eigenvalues) and sent to one
    :func:`scattering.probabilities` call per probability its tables use,
    and are reduced in basis order.
    """
    started = time.perf_counter()
    p = cfg.permutation
    r = cfg.input_state
    n_particles = particle_count(r)

    # one (K, n) array per output list, shared by the kernels and the laws
    boson_outputs = output_array(p.n, n_particles, ParticleType.BOSON)
    fermion_outputs = (output_array(p.n, n_particles, ParticleType.FERMION)
                       if ParticleType.FERMION in cfg.types else np.zeros((0, p.n), dtype=np.intp))

    acc = {key: _KahanMean(len(outputs)) for key, outputs in (
        ("pb", boson_outputs), ("pd", boson_outputs), ("pf", fermion_outputs), ("pdf", fermion_outputs))}
    for start in range(0, cfg.num_bases, CHUNK):
        built = _census_unitaries(cfg, range(start, min(start + CHUNK, cfg.num_bases)))
        stack, eigenvalues = built.matrices, built.eigenvalues
        if ParticleType.BOSON in cfg.types:
            acc["pb"].add(probabilities(stack, r, boson_outputs, ParticleType.BOSON))
        if ParticleType.BOSON in cfg.types or ParticleType.DISTINGUISHABLE in cfg.types:
            acc["pd"].add(probabilities(stack, r, boson_outputs, ParticleType.DISTINGUISHABLE))
        if ParticleType.FERMION in cfg.types:
            acc["pf"].add(probabilities(stack, r, fermion_outputs, ParticleType.FERMION))
            pdf = probabilities(stack, r, fermion_outputs, ParticleType.DISTINGUISHABLE)
            # distinguishable reference on singly occupied outputs, normalised
            # by one 1-D sum per basis (a sum over axis 1 rounds differently)
            acc["pdf"].add(pdf / np.array([row.sum() for row in pdf])[:, None])

    tables: dict[ParticleType, VerdictTable] = {}
    max_suppressed: dict[ParticleType, float] = {}
    if ParticleType.BOSON in cfg.types:
        table = verdict_table(eigenvalues, boson_outputs, ParticleType.BOSON,
                              acc["pb"].mean(), acc["pd"].mean())
        tables[ParticleType.BOSON] = table
        max_suppressed[ParticleType.BOSON] = float(acc["pb"].peak[table.boson].max(initial=0.0))
    if ParticleType.DISTINGUISHABLE in cfg.types:
        mean_pd = acc["pd"].mean()
        tables[ParticleType.DISTINGUISHABLE] = verdict_table(
            eigenvalues, boson_outputs, ParticleType.DISTINGUISHABLE, mean_pd, mean_pd)
    if ParticleType.FERMION in cfg.types:
        table = verdict_table(eigenvalues, fermion_outputs, ParticleType.FERMION,
                              acc["pf"].mean(), acc["pdf"].mean(), p, r)
        tables[ParticleType.FERMION] = table
        max_suppressed[ParticleType.FERMION] = float(acc["pf"].peak[table.fermion].max(initial=0.0))

    metadata = {
        "experiment": "mean-probabilities",
        "permutation": p.cycle_string(),
        "input_state": list(r),
        "num_bases": cfg.num_bases,
        "seed": cfg.seed,
        "types": [t.value for t in cfg.types],
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "timing_seconds": time.perf_counter() - started,
    }
    return CensusResult(eigenvalues, tables, max_suppressed, metadata)


# --- DFT comparison ------------------------------------------------------------

@dataclass
class FourierComparison:
    n: int
    m: int
    input_state: tuple[int, ...]
    eigenvalues: tuple[RootOfUnity, ...]
    boson_table: VerdictTable
    fermion_table: VerdictTable | None
    transpositions: int | None
    witnesses: tuple[tuple[int, ...], ...]
    metadata: dict

    @property
    def counts(self) -> dict:
        fermion = self.fermion_table
        return {
            "fermion_new_law": 0 if fermion is None else int(fermion.fermion.sum()),
            "fermion_old_law": 0 if fermion is None else int(fermion.parity.sum()),
            "fermion_new_not_old": len(self.witnesses),
            "boson_law": int(self.boson_table.boson.sum()),
        }


def run_fourier_comparison(n: int, m: int, input_state) -> FourierComparison:
    """Exact verdict tables for the n-mode DFT under the shift symmetry of
    order m, with the legacy parity criterion alongside the multiset one.

    The fermionic comparison runs only for singly occupied inputs (otherwise
    ``fermion_table`` is None); the witnesses list holds every output the
    multiset test suppresses that the parity test misses.
    """
    started = time.perf_counter()
    perm, eigenvalues = fourier_symmetry(n, m)
    require_invariant(perm, input_state)
    r = check_occupation(input_state)
    u = fourier_unitary(n)
    n_particles = sum(r)

    outputs = output_array(n, n_particles, ParticleType.BOSON)
    boson_table = verdict_table(eigenvalues, outputs, ParticleType.BOSON,
                                probabilities(u, r, outputs, ParticleType.BOSON),
                                probabilities(u, r, outputs, ParticleType.DISTINGUISHABLE))
    fermion_table = None
    witnesses: list[tuple[int, ...]] = []
    w = None
    if n_particles <= n and all(x <= 1 for x in r):
        w = transposition_count(perm, r)
        outputs = output_array(n, n_particles, ParticleType.FERMION)
        fermion_table = verdict_table(eigenvalues, outputs, ParticleType.FERMION,
                                      probabilities(u, r, outputs, ParticleType.FERMION),
                                      probabilities(u, r, outputs, ParticleType.DISTINGUISHABLE),
                                      perm, r, w)
        new_not_old = fermion_table.fermion & ~fermion_table.parity
        witnesses = list(map(tuple, outputs[new_not_old].tolist()))

    metadata = {
        "experiment": "fourier-comparison",
        "modes": n,
        "symmetry_order": m,
        "input_state": list(r),
        "transpositions": w,
        "library_version": __version__,
        "timing_seconds": time.perf_counter() - started,
    }
    return FourierComparison(n, m, r, eigenvalues, boson_table, fermion_table, w,
                             tuple(witnesses), metadata)


# --- robustness fits -------------------------------------------------------

@dataclass
class RobustnessFit:
    """Log-log fit of the mean suppression deviation against the noise scale.

    ``exponent`` is the free least-squares slope; ``prefactor`` is the
    geometric mean of measured/grid**theory_exponent, i.e. the coefficient
    under the first-order model, compared against ``predicted_prefactor``.
    """

    grid: tuple[float, ...]
    measured: tuple[float, ...]
    exponent: float
    prefactor: float
    predicted_prefactor: float
    theory_exponent: float
    samples: int
    metadata: dict


def _check_grid(grid, samples: int) -> tuple[float, ...]:
    if samples < 1:
        raise ValueError("need at least one sample per grid point")
    grid = tuple(float(g) for g in grid)
    if len(grid) < 4:
        raise ValueError("need at least four grid points for a fit")
    if any(g <= 0 for g in grid) or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly positive and ascending")
    return grid


def _fit_loglog(grid, measured, theory_exponent):
    points = [(g, m) for g, m in zip(grid, measured) if m > FIT_FLOOR]
    if len(points) < 2:
        raise ValueError("too few grid points above the numerical floor to fit")
    lx = np.log([g for g, _ in points])
    ly = np.log([m for _, m in points])
    exponent = float(np.polyfit(lx, ly, 1)[0])
    prefactor = float(np.exp(np.mean(ly - theory_exponent * lx)))
    return exponent, prefactor


def _suppressed_target(eigenvalues, permutation, input_state, target_output,
                       particle: ParticleType) -> None:
    if particle is ParticleType.BOSON:
        if not boson_suppressed(eigenvalues, target_output):
            raise ValueError("target output is not law-suppressed for bosons")
    elif particle is ParticleType.FERMION:
        if permutation is None:
            raise ValueError("fermionic target needs the symmetry permutation")
        if not fermion_suppressed(permutation, input_state, eigenvalues, target_output):
            raise ValueError("target output is not law-suppressed for fermions")
    else:
        raise ValueError("robustness targets are bosonic or fermionic")


def run_unitary_robustness(
    unitary,
    eigenvalues,
    input_state,
    target_output,
    particle: ParticleType,
    grid,
    samples: int = 10_000,
    seed: int = 0,
    distribution: str = "ring",
    permutation: Permutation | None = None,
) -> RobustnessFit:
    """Mean deviation from perfect suppression under entrywise unitary noise.

    For each grid value of the average deviation modulus, draws ``samples``
    perturbed matrices and averages the exact transition probability of the
    law-suppressed target. First-order theory: quadratic in the noise with
    coefficient N * (prod s_j!/prod r_k!) * P_D.
    """
    started = time.perf_counter()
    grid = _check_grid(grid, samples)
    u = as_complex_matrix(unitary)
    r = check_occupation(input_state)
    s = check_occupation(target_output)
    _suppressed_target(eigenvalues, permutation, r, s, particle)
    p_dist = prob_distinguishable(u, r, s)
    if p_dist <= CLASSIFY_TOL:
        raise ValueError("distinguishable probability vanishes; prediction degenerate")
    predicted = (
        particle_count(r)
        * prod(factorial(x) for x in s)
        / prod(factorial(x) for x in r)
        * p_dist
    )

    measured = []
    for gi, g in enumerate(grid):
        model = PerturbationModel(g, distribution=distribution)
        rng = np.random.default_rng(derive_seed(seed, gi))
        values = []
        for start in range(0, samples, CHUNK):
            # one draw per sub-stack, equal to its samples' draws in sample order
            deltas = model.sample((min(CHUNK, samples - start), *u.shape), rng)
            values += probabilities(u * (1.0 + deltas), r, [s], particle)[:, 0].tolist()
        measured.append(_compensated_mean(values))

    exponent, prefactor = _fit_loglog(grid, measured, 2.0)
    metadata = {
        "experiment": "unitary-robustness",
        "particle": particle.value,
        "input_state": list(r),
        "target_output": list(s),
        "grid": list(grid),
        "delta_distribution": distribution,
        "p_dist": p_dist,
        "seed": seed,
        "samples": samples,
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "timing_seconds": time.perf_counter() - started,
    }
    return RobustnessFit(grid, tuple(measured), exponent, prefactor, predicted, 2.0, samples, metadata)


#: How the random Gram matrices for the distinguishability sweep are drawn.
GRAM_ENSEMBLES = ("independent", "gram")

#: Deviation terms (Gram matrices times N!) per ``partial_probabilities``
#: call of the distinguishability fit: small enough that a sub-stack adds no
#: peak memory.
GRAM_STACK_TERMS = 1 << 13


def sample_distinguishability(n: int, mean_eps: float, rng: np.random.Generator,
                              ensemble: str = "independent", eta_scale: float = 1.0,
                              count: int | None = None) -> tuple[np.ndarray, bool | int]:
    """Random distinguishability matrices with average deficit ``mean_eps``.

    ``independent`` perturbs every off-diagonal entry as (1-eps)*exp(i*eta)
    with eps uniform of mean ``mean_eps`` and eta zero-mean, bounded by
    ``eta_scale * mean_eps``; the result generically violates positivity at
    first order and is projected back through
    :func:`scattering.repair_distinguishability`. Matrices that need no
    repair come back as drawn. ``gram`` builds an exact Gram matrix of
    almost-parallel unit vectors, which needs no repair by construction.

    Without ``count``: one (n, n) matrix and whether it was repaired. With
    ``count``: a (count, n, n) stack from one random call, each sample's
    arrays contiguous in the stream, so it equals ``count`` successive lone
    draws bit for bit, and the number of repaired matrices.
    """
    if ensemble not in GRAM_ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    lead = () if count is None else (count,)
    diagonal = np.arange(n)
    if ensemble == "independent":
        spread = eta_scale * mean_eps
        low = np.array([0.0, -spread])[:, None, None]  # (eps, eta) bounds per sample
        high = np.array([2.0 * mean_eps, spread])[:, None, None]
        draw = rng.uniform(low, high, size=(*lead, 2, n, n))
        eps, eta = draw[..., 0, :, :], draw[..., 1, :, :]
        eps = (eps + eps.swapaxes(-1, -2)) / 2.0
        eta = (eta - eta.swapaxes(-1, -2)) / 2.0
        s = (1.0 - eps) * np.exp(1j * eta)
        s[..., diagonal, diagonal] = 1.0
        # one eigh decides and repairs; the fit checks every Gram it evaluates
        repaired, mask = repair_distinguishability(s)
        if count is None:
            return (repaired, True) if mask else (s, False)
        s[mask] = repaired[mask]
        return s, int(mask.sum())
    # internal states cos(t)|0> + exp(i phi) sin(t)|1>: PSD by construction
    high = np.array([2.0 * mean_eps, 2.0 * np.pi])[:, None]  # (eps_j, phi) bounds per sample
    draw = rng.uniform(np.zeros((2, 1)), high, size=(*lead, 2, n))
    t = np.arcsin(np.sqrt(np.minimum(draw[..., 0, :], 1.0)))
    a = np.cos(t)
    b = np.sin(t) * np.exp(1j * draw[..., 1, :])
    s = a[..., :, None] * a[..., None, :] + b[..., :, None] * np.conj(b)[..., None, :]
    s[..., diagonal, diagonal] = 1.0
    return (s, False) if count is None else (s, 0)


def run_distinguishability_robustness(
    unitary,
    eigenvalues,
    input_state,
    target_output,
    particle: ParticleType,
    grid,
    samples: int = 2_000,
    seed: int = 0,
    ensemble: str = "independent",
    eta_scale: float = 1.0,
    permutation: Permutation | None = None,
) -> RobustnessFit:
    """Mean deviation from perfect suppression under partial distinguishability.

    First-order theory: linear in the mean deficit with coefficient N * P_D.
    PSD repairs of the sampled Gram matrices are counted in the metadata.
    """
    started = time.perf_counter()
    grid = _check_grid(grid, samples)
    r = check_occupation(input_state)
    s = check_occupation(target_output)
    _suppressed_target(eigenvalues, permutation, r, s, particle)
    p_dist = prob_distinguishable(unitary, r, s)
    if p_dist <= CLASSIFY_TOL:
        raise ValueError("distinguishable probability vanishes; prediction degenerate")
    predicted = particle_count(r) * p_dist
    terms = partial_weights(unitary, r, s, particle)  # once per fit, for every grid point
    stack_size = max(1, GRAM_STACK_TERMS // factorial(particle_count(r)))

    measured = []
    repairs = 0
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        values = []
        for start in range(0, samples, stack_size):
            # one draw per sub-stack, equal to its samples' draws in sample order
            grams, repaired = sample_distinguishability(
                terms.modes, g, rng, ensemble, eta_scale, count=min(stack_size, samples - start))
            repairs += repaired
            values += partial_probabilities(terms, grams).tolist()
        measured.append(_compensated_mean(values))

    exponent, prefactor = _fit_loglog(grid, measured, 1.0)
    metadata = {
        "experiment": "distinguishability-robustness",
        "particle": particle.value,
        "input_state": list(r),
        "target_output": list(s),
        "grid": list(grid),
        "ensemble": ensemble,
        "eta_scale": eta_scale,
        "psd_repairs": repairs,
        "p_dist": p_dist,
        "seed": seed,
        "samples": samples,
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "timing_seconds": time.perf_counter() - started,
    }
    return RobustnessFit(grid, tuple(measured), exponent, prefactor, predicted, 1.0, samples, metadata)
