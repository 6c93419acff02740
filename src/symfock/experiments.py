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
compensated summation, in one process. The runners take their settings as
keywords and hold their defaults (100 bases, seed 0, all three particle
types, bosonic fit targets, 2 000 samples, the ``ring`` deviations); the
command line passes a setting only when a config holds its key.

A run has one of two shapes, and each holds its record once, as
``metadata``: the whole ``meta.json`` that the command line writes from it
unchanged, ``timing_seconds`` and then what the run found. The census and
the DFT comparison return a :class:`TableRun`, their
:class:`suppression.VerdictTable` per particle type beside that record; a
fit returns a :class:`RobustnessFit`, its measured means (the one result
``meta.json`` does not hold) beside it.

A table of one unitary, the DFT comparison's and the ``verdicts``
command's, comes from :func:`unitary_table`. The census keeps its own
path: it averages each probability over its bases before any verdict, and
normalises its fermion table's distinguishable reference basis by basis.

The two robustness fits share one loop, :func:`_fit_noise`; each supplies
only its noise step, its sub-stack size and its first-order prediction.
The noise lives here, beside the fits that draw it: the entrywise unitary
perturbations of :class:`PerturbationModel` and the random Gram matrices
of :func:`sample_distinguishability`, which are positive semidefinite by
construction. A step takes one random call per sub-stack of noise samples,
equal to the samples' lone draws in sample order bit for bit. The unitary
fit's sub-stack holds ``scattering.CHUNK`` samples; the distinguishability
fit's follows the budget of ``scattering.BLOCK_ENTRIES`` complex entries,
that many // k^2 Gram matrices (at least one), 327 at k = 5, so a grid
point of a few hundred samples is one draw and one check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from . import __version__
from .fock import (
    ParticleType,
    check_occupation,
    output_array,
    particle_count,
    require_invariant,
    require_modes,
)
from .linalg import as_complex_matrix
from .permutations import Permutation
from .scattering import (
    BLOCK_ENTRIES,
    CHUNK,
    partial_probabilities,
    partial_weights,
    prob_distinguishable,
    probabilities,
)
from .suppression import (
    CLASSIFY_TOL,
    VerdictTable,
    boson_suppressed,
    fermion_suppressed,
    output_laws,
    transposition_count,
    verdict_table,
)
from .unitaries import UnitarySpec, build_unitaries, fourier_symmetry, fourier_unitary

RNG_DESCRIPTION = "numpy.random.default_rng (PCG64), per-task streams via SeedSequence(seed, index)"

#: Mean deviations below this floor are dropped from log-log fits.
FIT_FLOOR = 1e-18


def derive_seed(seed: int, *indices: int) -> int:
    """Stable per-task seed from the master seed and task indices."""
    state = np.random.SeedSequence([int(seed), *map(int, indices)]).generate_state(1, np.uint64)
    return int(state[0])


class _KahanMean:
    """Streaming compensated mean over equally shaped rows, in arrival
    order: one row of outputs per eigenbasis for the census, one float per
    noise sample for the fits."""

    def __init__(self):
        self.total = self._comp = 0.0
        self.count = 0

    def add(self, rows) -> None:
        """Add a block of rows, one at a time in order: a block's bits equal
        those of its rows added alone. The sums run on locals, so a float
        row costs no numpy call."""
        total, comp = self.total, self._comp
        for row in rows:
            y = row - comp
            t = total + y
            comp = (t - total) - y
            total = t
        self.total, self._comp = total, comp
        self.count += len(rows)

    def mean(self):
        return self.total / self.count


# --- verdict-table runs ----------------------------------------------------------

@dataclass
class TableRun:
    """A census or DFT comparison: its verdict tables, keyed by particle type
    in the order the run made them, and the record of the run."""

    tables: dict[ParticleType, VerdictTable]
    metadata: dict


# --- random-eigenbasis census ------------------------------------------------

def run_mean_probabilities(
    permutation: Permutation,
    input_state,
    num_bases: int = 100,
    seed: int = 0,
    types: tuple[ParticleType, ...] = (
        ParticleType.BOSON,
        ParticleType.FERMION,
        ParticleType.DISTINGUISHABLE,
    ),
) -> TableRun:
    """Average P over ``num_bases`` seeded eigenbasis rotations of
    ``permutation``'s symmetric unitaries, basis i seeded by
    ``derive_seed(seed, i)``.

    Returns one verdict table per particle type, in the order of ``types``,
    with mean probabilities, the exact law verdicts (identical for every
    basis, since rotations never touch the eigenvalue diagonal) and the
    empirical event class derived from the means. The bases go through in
    sub-stacks of at most ``scattering.CHUNK``, each built by one
    :func:`unitaries.build_unitaries` (which also gives the eigenvalues) and
    sent to one :func:`scattering.probabilities` call per probability its
    tables use, and are reduced in basis order. ``types`` follows the rules
    of a config's ``types`` key: not empty, only particle types, none twice.
    """
    if num_bases < 1:
        raise ValueError("need at least one eigenbasis")
    if not types:
        raise ValueError("'types' must name at least one particle type")
    for index, t in enumerate(types):
        if not isinstance(t, ParticleType):
            raise ValueError(f"'types' holds {t!r}, not a ParticleType")
        if t in types[:index]:
            raise ValueError(f"'types' names {t.value!r} twice")
    p = permutation
    r = require_invariant(p, input_state, ParticleType.FERMION in types)
    started = time.perf_counter()
    n_particles = particle_count(r)

    # one (K, n) array per output list, shared by the kernels and the laws;
    # no lattice for a list that no table reads
    none = np.zeros((0, p.n), dtype=np.intp)
    boson_outputs = (output_array(p.n, n_particles, ParticleType.BOSON)
                     if {ParticleType.BOSON, ParticleType.DISTINGUISHABLE} & set(types) else none)
    fermion_outputs = (output_array(p.n, n_particles, ParticleType.FERMION)
                       if ParticleType.FERMION in types else none)

    acc = {key: _KahanMean() for key in ("pb", "pd", "pf", "pdf")}
    peak_pb = peak_pf = 0.0  # each output's largest boson and fermion probability
    for start in range(0, num_bases, CHUNK):
        built = build_unitaries(UnitarySpec(p), [derive_seed(seed, index) for index
                                                 in range(start, min(start + CHUNK, num_bases))])
        stack, eigenvalues = built.matrices, built.eigenvalues
        if ParticleType.BOSON in types:
            pb = probabilities(stack, r, boson_outputs, ParticleType.BOSON)
            acc["pb"].add(pb)
            peak_pb = np.maximum(peak_pb, pb.max(axis=0))
        if ParticleType.BOSON in types or ParticleType.DISTINGUISHABLE in types:
            acc["pd"].add(probabilities(stack, r, boson_outputs, ParticleType.DISTINGUISHABLE))
        if ParticleType.FERMION in types:
            pf = probabilities(stack, r, fermion_outputs, ParticleType.FERMION)
            acc["pf"].add(pf)
            peak_pf = np.maximum(peak_pf, pf.max(axis=0))
            pdf = probabilities(stack, r, fermion_outputs, ParticleType.DISTINGUISHABLE)
            # distinguishable reference on singly occupied outputs, normalised
            # by one 1-D sum per basis (a sum over axis 1 rounds differently)
            acc["pdf"].add(pdf / np.array([row.sum() for row in pdf])[:, None])

    tables: dict[ParticleType, VerdictTable] = {}
    max_suppressed: dict[str, float] = {}
    laws = output_laws(eigenvalues, boson_outputs)  # the boson and distinguishable tables share it
    if ParticleType.BOSON in types:
        tables[ParticleType.BOSON] = verdict_table(laws, boson_outputs, ParticleType.BOSON,
                                                   acc["pb"].mean(), acc["pd"].mean())
        suppressed = laws.columns["boson_suppressed"]
        max_suppressed["boson"] = float(peak_pb[suppressed].max(initial=0.0))
    if ParticleType.DISTINGUISHABLE in types:
        mean_pd = acc["pd"].mean()
        tables[ParticleType.DISTINGUISHABLE] = verdict_table(
            laws, boson_outputs, ParticleType.DISTINGUISHABLE, mean_pd, mean_pd)
    if ParticleType.FERMION in types:
        fermion_laws = output_laws(eigenvalues, fermion_outputs, p, r)
        tables[ParticleType.FERMION] = verdict_table(fermion_laws, fermion_outputs,
                                                     ParticleType.FERMION, acc["pf"].mean(),
                                                     acc["pdf"].mean())
        suppressed = fermion_laws.columns["fermion_suppressed"]
        max_suppressed["fermion"] = float(peak_pf[suppressed].max(initial=0.0))

    metadata = {
        "experiment": "mean-probabilities",
        "permutation": p.cycle_string(),
        "input_state": list(r),
        "num_bases": num_bases,
        "seed": seed,
        "types": [t.value for t in types],
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "timing_seconds": time.perf_counter() - started,
        "max_suppressed": max_suppressed,  # boson first, whatever the order of ``types``
    }
    return TableRun({kind: tables[kind] for kind in types}, metadata)


# --- one-unitary tables ---------------------------------------------------------

def unitary_table(u, eigenvalues, permutation: Permutation, input_state, kind: ParticleType,
                  w: int | None) -> VerdictTable:
    """The verdict table of every output of ``input_state`` under one
    unitary, for one particle kind: the output array, the distinguishable
    reference, the kind's probabilities and the laws, one call each, then
    :func:`suppression.verdict_table`. A fermion table takes the symmetry
    ``permutation`` and the parity witness ``w`` (None for no legacy law);
    other kinds ignore both."""
    r = input_state
    outputs = output_array(len(r), particle_count(r), kind)
    p_dist = probabilities(u, r, outputs, ParticleType.DISTINGUISHABLE)
    p = p_dist if kind is ParticleType.DISTINGUISHABLE else probabilities(u, r, outputs, kind)
    law = (permutation, r, w) if kind is ParticleType.FERMION else ()
    return verdict_table(output_laws(eigenvalues, outputs, *law), outputs, kind, p, p_dist)


# --- DFT comparison ------------------------------------------------------------

def dft_member(n: int, m: int, input_state):
    """The n-mode DFT, the eigenvalues of its shift symmetry of order m and
    that permutation, as ``(u, eigenvalues, perm)``; ``input_state`` must
    span n modes, checked before anything of the DFT's size is built."""
    require_modes(input_state, n)
    perm, eigenvalues = fourier_symmetry(n, m)
    return fourier_unitary(n), eigenvalues, perm


def run_fourier_comparison(n: int, m: int, input_state) -> TableRun:
    """Exact verdict tables for the n-mode DFT under the shift symmetry of
    order m, with the legacy parity criterion alongside the multiset one.

    The boson table always; the fermion table only for singly occupied
    inputs. The record counts the outputs each law suppresses and lists as
    ``witnesses`` every output the multiset test suppresses that the parity
    test misses.
    """
    started = time.perf_counter()
    u, eigenvalues, perm = dft_member(n, m, input_state)
    r = require_invariant(perm, input_state)
    singly = all(x <= 1 for x in r)
    w = transposition_count(perm, r) if singly else None
    tables = {ParticleType.BOSON: unitary_table(u, eigenvalues, perm, r, ParticleType.BOSON, None)}
    new = old = np.zeros(0, dtype=bool)
    witnesses = []
    if singly:
        fermion = tables[ParticleType.FERMION] = unitary_table(u, eigenvalues, perm, r,
                                                              ParticleType.FERMION, w)
        laws = fermion.laws.columns
        new, old = laws["fermion_suppressed"], laws["old_fermion_suppressed"]
        witnesses = fermion.outputs[new & ~old].tolist()

    metadata = {
        "experiment": "fourier-comparison",
        "modes": n,
        "symmetry_order": m,
        "input_state": list(r),
        "transpositions": w,
        "library_version": __version__,
        "timing_seconds": time.perf_counter() - started,
        "counts": {
            "fermion_new_law": int(new.sum()),
            "fermion_old_law": int(old.sum()),
            "fermion_new_not_old": len(witnesses),
            "boson_law": int(tables[ParticleType.BOSON].laws.columns["boson_suppressed"].sum()),
        },
        "witnesses": witnesses,
    }
    return TableRun(tables, metadata)


# --- robustness fits -------------------------------------------------------

@dataclass
class RobustnessFit:
    """Log-log fit of the mean suppression deviation against the noise scale:
    the mean at each value of ``metadata["grid"]``, and the record of the run.

    The record's ``exponent`` is the free least-squares slope; its
    ``prefactor`` is the geometric mean of measured/grid**theory_exponent,
    i.e. the coefficient under the first-order model, compared against
    ``predicted_prefactor``.
    """

    measured: tuple[float, ...]
    metadata: dict


def _fit_loglog(grid, measured, theory_exponent):
    points = [(g, m) for g, m in zip(grid, measured) if m > FIT_FLOOR]
    if len(points) < 2:
        raise ValueError("too few grid points above the numerical floor to fit")
    lx = np.log([g for g, _ in points])
    ly = np.log([m for _, m in points])
    exponent = float(np.polyfit(lx, ly, 1)[0])
    prefactor = float(np.exp(np.mean(ly - theory_exponent * lx)))
    return exponent, prefactor


def _fit_noise(experiment: str, theory_exponent: float, prepare, unitary, eigenvalues,
               input_state, target_output, particle: ParticleType, grid, samples: int,
               seed: int, permutation: Permutation | None) -> RobustnessFit:
    """The loop both robustness fits share.

    After the checks (grid, occupations, an input the ``permutation``
    leaves invariant when one is given, a law-suppressed target, a
    non-vanishing P_D), ``prepare(u, r, s, p_dist)`` gives the fit's noise
    step ``draw``, its sub-stack size, its predicted prefactor and its own
    metadata keys, which ``draw`` may update. ``draw(g, rng, count)`` gives
    the target's probabilities under ``count`` fresh noise samples of scale
    g, from one random call equal to the samples' lone draws in sample
    order. Each grid point takes its own generator, seeded by
    ``derive_seed(seed, index)``; its samples are reduced in order with
    compensated summation, and the means fitted on a log-log scale.
    """
    started = time.perf_counter()
    if samples < 1:
        raise ValueError("need at least one sample per grid point")
    grid = tuple(float(g) for g in grid)
    if len(grid) < 4:
        raise ValueError("need at least four grid points for a fit")
    if any(g <= 0 for g in grid) or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly positive and ascending")
    u = as_complex_matrix(unitary)
    # the laws hold only for an input the symmetry leaves invariant
    r = (check_occupation(input_state) if permutation is None
         else require_invariant(permutation, input_state))
    s = check_occupation(target_output)
    if particle is ParticleType.BOSON:
        if not boson_suppressed(eigenvalues, s):
            raise ValueError("target output is not law-suppressed for bosons")
    elif particle is ParticleType.FERMION:
        if permutation is None:
            raise ValueError("fermionic target needs the symmetry permutation")
        if not fermion_suppressed(permutation, r, eigenvalues, s):
            raise ValueError("target output is not law-suppressed for fermions")
    else:
        raise ValueError("robustness targets are bosonic or fermionic")
    p_dist = prob_distinguishable(u, r, s)
    if p_dist <= CLASSIFY_TOL:
        raise ValueError("distinguishable probability vanishes; prediction degenerate")
    draw, stack, predicted, settings = prepare(u, r, s, p_dist)

    measured = []
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        acc = _KahanMean()
        for start in range(0, samples, stack):
            acc.add(draw(g, rng, min(stack, samples - start)))
        measured.append(acc.mean())

    exponent, prefactor = _fit_loglog(grid, measured, theory_exponent)
    metadata = {
        "experiment": experiment,
        "particle": particle.value,
        "input_state": list(r),
        "target_output": list(s),
        "grid": list(grid),
        **settings,
        "p_dist": p_dist,
        "seed": seed,
        "samples": samples,
        "library_version": __version__,
        "rng": RNG_DESCRIPTION,
        "timing_seconds": time.perf_counter() - started,
        "exponent": exponent,
        "prefactor": prefactor,
        "predicted_prefactor": predicted,
        "theory_exponent": theory_exponent,
    }
    return RobustnessFit(tuple(measured), metadata)


#: Mean-modulus-preserving deviation distributions for entrywise perturbations.
DELTA_DISTRIBUTIONS = ("ring", "gaussian", "disk")


@dataclass(frozen=True)
class PerturbationModel:
    """Entrywise multiplicative noise U_jk -> U_jk (1 + Delta_jk).

    ``mean_abs`` fixes the average modulus E|Delta|; all distributions have zero
    mean. ``ring`` draws a fixed modulus with uniform phase, ``gaussian`` a
    complex normal scaled to the requested mean modulus, ``disk`` a uniform
    draw from a disc.
    """

    mean_abs: float
    distribution: str = "ring"

    def __post_init__(self):
        if self.mean_abs < 0:
            raise ValueError("mean_abs must be non-negative")
        if self.distribution not in DELTA_DISTRIBUTIONS:
            raise ValueError(f"unknown deviation distribution {self.distribution!r}")

    def sample(self, shape, rng: np.random.Generator, entries=None) -> np.ndarray:
        """Deviations for one (n, n) matrix or a (B, n, n) stack of B samples.

        A stack takes one random call, laid out so that each sample's arrays
        stay contiguous in the stream: it equals B successive (n, n) draws
        bit for bit. ``gaussian`` and ``disk`` draw two arrays per sample
        (real and imaginary part; radius and phase). ``entries`` = (rows,
        cols) keeps the block ``np.ix_(rows, cols)`` of the same draw, the
        complex deviations formed on that block only.
        """
        keep = (Ellipsis,) if entries is None else (Ellipsis, *np.ix_(*entries))
        if self.mean_abs == 0.0:
            return np.zeros(shape, dtype=complex)[keep]
        # in place: a sub-stack of samples allocates one complex array, which
        # keeps the peak memory of a fit flat
        if self.distribution == "ring":
            z = 1j * rng.uniform(0.0, 2.0 * np.pi, size=shape)[keep]
            np.exp(z, out=z)
            z *= self.mean_abs
            return z
        pairs = (*shape[:-2], 2, *shape[-2:])
        if self.distribution == "gaussian":
            draw = rng.standard_normal(pairs)[keep]
            z = draw[..., 0, :, :] + 1j * draw[..., 1, :, :]
            z /= np.sqrt(2.0)
            z *= self.mean_abs / (np.sqrt(np.pi) / 2.0)  # E|z| = sqrt(pi)/2
            return z
        high = np.array([1.0, 2.0 * np.pi])[:, None, None]  # (radius^2, phase) bounds per sample
        draw = rng.uniform(np.zeros((2, 1, 1)), high, size=pairs)[keep]
        z = 1j * draw[..., 1, :, :]
        np.exp(z, out=z)
        z *= np.sqrt(draw[..., 0, :, :])  # radius, uniform over the disc
        z *= self.mean_abs * 1.5  # E radius = 2/3
        return z


def run_unitary_robustness(
    unitary,
    eigenvalues,
    input_state,
    target_output,
    grid,
    particle: ParticleType = ParticleType.BOSON,
    samples: int = 2_000,
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
    def prepare(u, r, s, p_dist):
        # the permanent reads only the occupied rows and columns: noise on that block
        rows, cols = np.flatnonzero(r), np.flatnonzero(s)
        block, r_block, s_block = u[np.ix_(rows, cols)], [r[i] for i in rows], [s[i] for i in cols]

        def draw(g, rng, count):
            deltas = PerturbationModel(g, distribution=distribution).sample(
                (count, *u.shape), rng, (rows, cols))
            # block first: numpy's SIMD complex multiply is not bitwise commutative
            perturbed = block * (1.0 + deltas)
            return probabilities(perturbed, r_block, [s_block], particle)[:, 0].tolist()

        predicted = (
            particle_count(r)
            * prod(factorial(x) for x in s)
            / prod(factorial(x) for x in r)
            * p_dist
        )
        return draw, CHUNK, predicted, {"delta_distribution": distribution}

    return _fit_noise("unitary-robustness", 2.0, prepare, unitary, eigenvalues, input_state,
                      target_output, particle, grid, samples, seed, permutation)


def _check_mean_deficit(mean_eps: float) -> None:
    """Refuse a mean deficit above 0.5: the deficits are drawn uniform on
    [0, 2 mean_eps], and none may exceed 1."""
    if mean_eps > 0.5:
        raise ValueError(f"mean distinguishability deficit {mean_eps!r} is above 0.5: "
                         "deficits uniform on [0, 2 * mean] would exceed 1")


def sample_distinguishability(n: int, mean_eps: float, rng: np.random.Generator,
                              count: int | None = None) -> tuple[np.ndarray, bool | int]:
    """Random Gram matrices of n almost-parallel unit vectors, with average
    deficit ``mean_eps``, at most 0.5.

    Particle j's internal state is cos(t_j)|0> + exp(i phi_j) sin(t_j)|1>,
    with sin^2(t_j) uniform on [0, 2 mean_eps] and phi_j uniform on
    [0, 2 pi); the matrix of their overlaps is a Gram matrix, positive
    semidefinite by construction, and comes back as drawn. Beside it comes
    the number of repaired matrices, always none, ``False`` for one matrix
    and ``0`` for a stack, which the benchmark's counters still read.

    Without ``count``: one (n, n) matrix. With ``count``: a (count, n, n)
    stack from one random call, each sample's arrays contiguous in the
    stream, so it equals ``count`` successive lone draws bit for bit. The
    distinguishability fit passes the number of occupied input modes as
    ``n``; ``prob --distinguishability`` takes an n x n matrix over all modes.
    """
    if not 0.0 <= 2.0 * mean_eps < np.inf:
        raise ValueError("mean_eps must be finite and non-negative")
    _check_mean_deficit(mean_eps)
    k = 1 if count is None else count  # a lone draw takes the stream of a stack of one
    # rng.uniform(low, high) is low + (high - low) * U: rng.random scaled so has
    # its bits and takes the same stream, without the broadcast of array bounds
    draw = rng.random((k, 2, n)) * np.array([2.0 * mean_eps, 2.0 * np.pi])[:, None]  # eps_j, phi
    t = np.arcsin(np.sqrt(draw[:, 0]))  # eps_j < 2 mean_eps <= 1
    a = np.cos(t)
    b = np.sin(t) * np.exp(1j * draw[:, 1])
    s = a[:, :, None] * a[:, None, :] + b[:, :, None] * np.conj(b)[:, None, :]
    s.reshape(k, n * n)[:, ::n + 1] = 1.0
    return (s[0], False) if count is None else (s, 0)


def run_distinguishability_robustness(
    unitary,
    eigenvalues,
    input_state,
    target_output,
    grid,
    particle: ParticleType = ParticleType.BOSON,
    samples: int = 2_000,
    seed: int = 0,
    permutation: Permutation | None = None,
) -> RobustnessFit:
    """Mean deviation from perfect suppression under partial distinguishability.

    First-order theory: linear in the mean deficit with coefficient N * P_D.
    A grid value above 0.5 is refused before the first sample (see
    :func:`sample_distinguishability`). The Gram matrices span the k
    occupied input modes, the only entries the single sum reads: a mode
    with no particle is never drawn. They are Gram matrices as drawn, and
    each stack is checked by the single sum; the metadata's ``psd_repairs``
    reads 0.
    """
    def prepare(u, r, s, p_dist):
        _check_mean_deficit(max(grid))  # before the first sample
        terms = partial_weights(u, r, s, particle)  # once per fit, for every grid point
        # the sum reads S only at the particles' input modes: Gram matrices over the k
        # occupied modes, each particle's row renumbered into them
        occupied, rows = np.unique(terms.rows, return_inverse=True)
        terms = terms._replace(modes=len(occupied), rows=rows)

        def draw(g, rng, count):
            grams, _ = sample_distinguishability(terms.modes, g, rng, count=count)
            return partial_probabilities(terms, grams).tolist()

        stack = max(1, BLOCK_ENTRIES // terms.modes ** 2)  # k x k entries per Gram matrix
        return draw, stack, particle_count(r) * p_dist, {"psd_repairs": 0}

    return _fit_noise("distinguishability-robustness", 1.0, prepare, unitary, eigenvalues,
                      input_state, target_output, particle, grid, samples, seed, permutation)
