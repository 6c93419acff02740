"""Many-particle transition probabilities through an n-mode unitary.

The scattering matrix M repeats rows of U per input multiplicity and columns
per output multiplicity. Probabilities:

* bosons:          |perm(M)|^2 / (prod r_j! * prod s_k!)
* fermions:        |det(M)|^2                    (single occupancy only)
* distinguishable: perm(|M|^2) / prod s_k!       (elementwise modulus squared)

The proportionality constants are not taken on faith anywhere: the test
suite pins them with the sum-to-one oracle over the full output enumeration.

:func:`probabilities` checks U, the input and the list of outputs once, at
its entry, and then takes one of two kernels.

* The expansion. The amplitudes of all outputs of one input are the
  coefficients of one product of linear forms,

      prod_j (sum_k U[d(j), k] x_k) = sum_s perm(M_s) / prod s_k! * x^s,

  (Scheel, quant-ph/0406127 (2004); Aaronson & Arkhipov, Theory of
  Computing 9, 143 (2013)), with anticommuting x_k for fermions (every
  N x N minor, det(M_T)) and |U|^2 in place of U for distinguishable
  particles. :func:`expansion` builds the product one particle at a time:
  the degrees below N in full, the top degree only for the listed outputs,
  n * (sum_{d<N} K_d + K) multiply-adds in all.
* One permanent or determinant per output: the scattering matrices,
  gathered by row and column index into stacks of at most :data:`CHUNK` (a
  module constant), go to the stack-aware Ryser permanent or LU
  determinant, K * 2^N * N or K * N^3 work.

:func:`expansion_pays` picks the cheaper from (n, N, K) alone. A lone
output always takes the permanent or the determinant, so the one-output
wrappers ``prob_boson``, ``prob_fermion`` and ``prob_distinguishable`` and
the robustness fits keep the bits of a lone Ryser or LU call; the census,
the DFT comparison and the verdict tables take the expansion. Either way a
probability's bits depend on neither the stack it came in nor the block
boundaries.

Partial distinguishability is handled by a Gram matrix S of internal states
on the n modes (all-ones = indistinguishable, identity = fully
distinguishable) through the single sum over permutations tau

    P = sum_tau w_tau * prod_j S[d(j), d(tau(j))] / (prod r! * prod s!),
    w_tau = chi(tau) * perm(conj(M) o M[tau, :]),

(Tichy, PRA 91, 022316 (2015); Shchesnovich, PRA 91, 013844 (2015)). The N!
weights depend on U, the input and the output only. :func:`prob_partial` is
two halves: :func:`partial_weights` checks U, the input and the output and
computes the weights, at N! * 2^N * N cost; :func:`partial_probabilities`
checks a Gram matrix or a stack of them and spends N! * N on each. A caller
with many Gram stacks for one transition, such as the distinguishability
fit, computes the weights once. Every Gram matrix is checked by
:func:`validate_distinguishability`, whose PSD test is one stacked Cholesky
factorisation of H + psd_tol * I (H the Hermitian part of S) rather than an
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import NamedTuple

import numpy as np

from .fock import (
    ParticleType,
    check_occupation,
    lattice,
    occupation_to_assignment,
    odd_after,
    removal_ranks,
)
from .linalg import (
    RYSER_MAX,
    as_complex_matrix,
    determinant,
    permanent_ryser,
    permutation_signs,
    permutation_table,
)

#: The N! weight permanents go through stacks of :data:`CHUNK`, so memory
#: stays flat; a lone call takes about 0.07 s at N = 7 and 1.2 s at N = 8.
PARTIAL_MAX = 8

_NEGATIVE_FLOOR = -1e-12

#: Scattering matrices per stack, or (matrix, output) coefficients per
#: expansion block. A constant, so a stack never grows with the run: 512
#: matrices at N = 6 take 0.3 MB.
CHUNK = 512


def _assignment0(occupation) -> np.ndarray:
    return np.array(occupation_to_assignment(occupation), dtype=np.intp) - 1


def _clamp_probability(value):
    if np.any(value < _NEGATIVE_FLOOR):
        raise ArithmeticError(f"probability {np.min(value)} below the cancellation floor")
    return np.where(value < 0.0, 0.0, value)  # keeps -0.0, as max(-0.0, 0.0) does


def _check_outputs(u: np.ndarray, occupation_in, outputs, fermionic: bool):
    """Check one input and a list of outputs against ``u``; return the input
    occupation and the (K, n) array of output occupations."""
    r = check_occupation(occupation_in, fermionic=fermionic)
    n_in, n_out = u.shape[-2:]
    s = (np.asarray(outputs, dtype=np.intp).reshape(len(outputs), -1) if len(outputs)
         else np.zeros((0, n_out), dtype=np.intp))
    bad = (s < 0) | (s > 1) if fermionic else s < 0
    if bad.any():
        check_occupation(s[bad.any(axis=1)][0], fermionic)  # raises the usual message
    totals = s.sum(axis=1)
    if (totals != sum(r)).any():
        first = tuple(int(x) for x in s[totals != sum(r)][0])
        raise ValueError(f"particle numbers differ: sum{r}={sum(r)} vs sum{first}={sum(first)}")
    if len(r) != n_in or s.shape[1] != n_out:
        raise ValueError("occupation lists do not match the matrix dimensions")
    return r, s


def _columns(s: np.ndarray, n_particles: int) -> np.ndarray:
    """Column indices of the scattering matrices, one row per output in ``s``."""
    return np.repeat(np.tile(np.arange(s.shape[1]), len(s)), s.ravel()).reshape(len(s), n_particles)


def scattering_matrix(u, occupation_in, occupation_out) -> np.ndarray:
    """Submatrix of U with rows from occupied input modes and columns from
    occupied output modes, repeated per multiplicity."""
    u = as_complex_matrix(u)
    r, s = _check_outputs(u, occupation_in, [occupation_out], fermionic=False)
    return u[np.ix_(_assignment0(r), _columns(s, sum(r))[0])]


def expansion_pays(n: int, particles: int, outputs: int, kind: ParticleType,
                   single: bool = False) -> bool:
    """Whether :func:`probabilities` expands the product of the input's linear
    forms rather than computing one permanent or determinant per output.

    The expansion costs n * (sum_{d<N} K_d + K) multiply-adds for K outputs,
    K_d being the C(n+d-1, d) multisets of d particles, or the C(n, d)
    subsets when ``single`` (every output has at most one particle per
    mode, which fermion outputs always have). One output costs 2^N * N by
    Ryser, N^3 by LU. A lone output always takes the permanent or the
    determinant, and so do more than :data:`linalg.RYSER_MAX` bosons or
    distinguishable particles, which the Ryser refuses: the expansion
    accepts no input the permanent would not.
    """
    if outputs < 2 or (particles > RYSER_MAX and kind is not ParticleType.FERMION):
        return False
    single = single or kind is ParticleType.FERMION
    lower = sum(comb(n, d) if single else comb(n + d - 1, d) for d in range(particles))
    per_output = particles ** 3 if kind is ParticleType.FERMION else 2 ** particles * particles
    return n * (lower + outputs) < outputs * per_output


def expansion(weights: np.ndarray, rows: np.ndarray, outputs: np.ndarray,
              fermionic: bool = False) -> np.ndarray:
    """Coefficients of x^s in prod_j (sum_k W[rows[j], k] x_k), for a (B, n, n)
    stack of checked matrices W, the (N,) input modes ``rows`` of the
    particles and a checked (K, n) array of outputs; a (B, K) array.

    With W = U the coefficient of s is perm(M_s) / prod s_k!; with W = |U|^2
    it is the distinguishable probability. With ``fermionic`` the linear
    forms anticommute and the coefficient of a 0/1 output T is det(M_T),
    rows in input order and columns ascending. The product is built one
    particle at a time,

        c_{d+1}(t) = sum_{k: t_k > 0} sign * W[rows[d], k] * c_d(t - e_k),

    sign = (-1)^(particles of t after mode k) for fermions, else 1. Every
    degree below N is expanded in full, over all multisets, or over the 0/1
    outputs when every output is one (fermions included); the top degree
    only for ``outputs``. The parents t - e_k, whose -1 for an empty mode
    picks a zero row appended to c_d, come from the cached
    :func:`fock.lattice` table: for every degree when ``outputs`` equal its
    top group by value (the lattice of N particles, as
    :func:`fock.output_array` gives it), else for the degrees below N, with
    :func:`fock.removal_ranks` of the listed outputs block by block; both
    give the same parents. Rows go through in blocks of :data:`CHUNK` // B,
    one multiply-add per mode k = 0..n-1 in that order, so a coefficient's
    bits depend on neither B, the block boundaries nor where its parents
    came from.
    """
    b, n = weights.shape[0], weights.shape[-1]
    n_particles = len(rows)
    if not (n_particles and len(outputs) and b):
        return np.ones((b, len(outputs)), dtype=weights.dtype)
    single = fermionic or not (outputs > 1).any()
    top_size = comb(n, n_particles) if single else comb(n + n_particles - 1, n_particles)
    table = lattice(n, n_particles if len(outputs) == top_size else n_particles - 1, single)
    on_lattice = table.particles == n_particles and np.array_equal(outputs, table.top)
    coeffs = np.ones((1, b), dtype=weights.dtype)  # degree 0: the constant 1
    block = max(1, CHUNK // b)
    for d, row in enumerate(rows):
        listed = d + 1 == n_particles and not on_lattice
        size = len(outputs) if listed else table.starts[d + 1] - table.starts[d]
        padded = np.concatenate([coeffs, np.zeros((1, b), dtype=weights.dtype)])
        coeffs = np.empty((size, b), dtype=weights.dtype)
        w = weights[:, row, :].T[:, None, :]
        for start in range(0, size, block):
            stop = min(start + block, size)
            if listed:
                t = outputs[start:stop]
                parents, flip = removal_ranks(t, single).T, odd_after(t) if fermionic else None
            else:
                part = slice(table.starts[d] + start, table.starts[d] + stop)
                parents, flip = table.parents[:, part], table.odd[:, part]
            terms = padded[parents]  # (n, rows, B): c_d(t - e_k), zero where t_k = 0
            terms *= w
            if fermionic:
                np.negative(terms, out=terms, where=flip[:, :, None])
            acc = coeffs[start:stop]
            acc[...] = terms[0]
            for k in range(1, n):
                acc += terms[k]
    return coeffs.T


def probabilities(u, occupation_in, outputs, kind: ParticleType) -> np.ndarray:
    """Transition probabilities from one input to every listed output.

    ``u`` is one (n, n) matrix, giving a (K,) array for K outputs, or a
    (B, n, n) stack, giving a (B, K) array. ``u``, the input and the outputs
    are checked once, here. Where :func:`expansion_pays`, every output comes
    from one :func:`expansion` per matrix; otherwise the (matrix, output)
    pairs go through the stack-aware permanent or determinant in stacks of
    at most :data:`CHUNK` scattering matrices, gathered by row and column
    indices. Either way every probability has the bits of a call on its own
    matrix with the same outputs.
    """
    u = as_complex_matrix(u, stack=True)
    stack = u if u.ndim == 3 else u[None]
    r, s = _check_outputs(stack, occupation_in, outputs, kind is ParticleType.FERMION)
    rows = _assignment0(r)
    if expansion_pays(len(r), len(rows), len(s), kind, not (s > 1).any()):
        result = _expanded_probabilities(stack, r, rows, s, kind)
    else:
        result = _per_output_probabilities(stack, r, rows, s, kind)
    result = _clamp_probability(result)
    return result if u.ndim == 3 else result[0]


def _expanded_probabilities(stack, r, rows, s, kind: ParticleType) -> np.ndarray:
    if kind is ParticleType.DISTINGUISHABLE:
        return expansion(np.abs(stack) ** 2, rows, s)
    c = expansion(stack, rows, s, kind is ParticleType.FERMION)
    result = c.real ** 2 + c.imag ** 2
    if kind is ParticleType.BOSON:  # |perm M|^2 / (prod r! prod s!) = |c|^2 prod s! / prod r!
        factorials = np.array([float(factorial(k)) for k in range(len(rows) + 1)])
        norm = np.ones(len(s))
        for column in s.T:  # one mode at a time, with no (K, n) array: exact integers
            norm *= factorials[column]
        result *= norm / prod(factorials[list(r)])
    return result


def _per_output_probabilities(stack, r, rows, s, kind: ParticleType) -> np.ndarray:
    factorials = np.array([factorial(k) for k in range(len(rows) + 1)], dtype=object)
    input_norm = prod(factorials[list(r)]) if kind is ParticleType.BOSON else 1
    n_pairs = len(stack) * len(s)
    result = np.empty(n_pairs)
    for start in range(0, n_pairs, CHUNK):
        pair = np.arange(start, min(start + CHUNK, n_pairs))
        b, k = np.divmod(pair, len(s))
        m = stack[b[:, None, None], rows[None, :, None], _columns(s[k], len(rows))[:, None, :]]
        if kind is ParticleType.DISTINGUISHABLE:
            values = permanent_ryser(np.abs(m) ** 2).real
        else:
            amp = determinant(m) if kind is ParticleType.FERMION else permanent_ryser(m)
            # Python's pow(|z|, 2), not numpy's |z| * |z|: they differ in the
            # last bit for about one value in a thousand
            values = np.array([abs(z) ** 2 for z in amp.tolist()])
        norm = factorials[s[k]].prod(axis=1) * input_norm  # exact integers, rounded once
        result[pair] = values / norm.astype(float)
    return result.reshape(len(stack), len(s))


def prob_boson(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.BOSON)[0])


def prob_fermion(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.FERMION)[0])


def prob_distinguishable(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.DISTINGUISHABLE)[0])


# --- partial distinguishability -------------------------------------------

def validate_distinguishability(s_matrix, tol: float = 1e-12, psd_tol: float = 1e-10) -> np.ndarray:
    """Check the Gram-matrix contract: Hermitian, unit diagonal, entries in
    the unit disc, positive semidefinite up to ``psd_tol``.

    Takes one (n, n) matrix or a (B, n, n) stack, checked as a whole. The PSD
    test is one stacked Cholesky factorisation of H + psd_tol * I, H the
    Hermitian part: the factor exists exactly when the lowest eigenvalue of H
    is above -``psd_tol``, and costs a fraction of an eigendecomposition.
    """
    s = as_complex_matrix(s_matrix, stack=True)
    if s.shape[-1] != s.shape[-2]:
        raise ValueError("distinguishability matrix must be square")
    if not s.size:
        return s
    adjoint = s.conj().swapaxes(-1, -2)
    if np.max(np.abs(s - adjoint)) > tol:
        raise ValueError("distinguishability matrix is not Hermitian")
    if np.max(np.abs(np.diagonal(s, axis1=-2, axis2=-1) - 1.0)) > tol:
        raise ValueError("distinguishability matrix diagonal must be all ones")
    if np.max(np.abs(s)) > 1.0 + tol:
        raise ValueError("distinguishability entries must satisfy |S_jk| <= 1")
    shifted = (s + adjoint) / 2.0
    diagonal = np.arange(s.shape[-1])
    shifted[..., diagonal, diagonal] += psd_tol
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError("distinguishability matrix is not positive semidefinite") from None
    return s


def repair_distinguishability(s_matrix) -> tuple[np.ndarray, bool | np.ndarray]:
    """Project onto the valid set by clipping negative eigenvalues and
    renormalising the diagonal back to one.

    Takes one (n, n) matrix, returning its Hermitian part (repaired or not)
    and whether a repair happened, or a (B, n, n) stack, returning the stack
    of Hermitian parts and a (B,) mask of the repaired matrices. One ``eigh``
    runs over the whole stack; only the matrices with lowest eigenvalue below
    -1e-10 are clipped and renormalised, each with the bits of a lone call.
    """
    s = as_complex_matrix(s_matrix, stack=True)
    herm = (s + s.conj().swapaxes(-1, -2)) / 2.0
    stack = herm if herm.ndim == 3 else herm[None]
    eigvals, eigvecs = np.linalg.eigh(stack)
    mask = eigvals[:, 0] < -1e-10
    if mask.any():
        vecs = eigvecs[mask]
        clipped = (vecs * np.maximum(eigvals[mask], 0.0)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
        scale = np.sqrt(np.real(np.diagonal(clipped, axis1=-2, axis2=-1)))
        if np.any(scale <= 0):
            raise ValueError("PSD repair collapsed a diagonal entry to zero")
        repaired = clipped / (scale[:, :, None] * scale[:, None, :])
        diagonal = np.arange(stack.shape[-1])
        repaired[:, diagonal, diagonal] = 1.0
        stack[mask] = repaired
    return (herm, mask) if herm.ndim == 3 else (herm, bool(mask[0]))


class PartialWeights(NamedTuple):
    """The terms of the single sum that depend on U, the input and the output
    only, from :func:`partial_weights`: the size n of the Gram matrices, the
    input mode d(j) of each particle, the (N!, N) permutation table, the N!
    weights w_tau, |perm M|^2 or |det M|^2, and prod r! * prod s!."""

    modes: int
    rows: np.ndarray
    perms: np.ndarray
    weights: np.ndarray
    indistinguishable: float
    norm: int


def partial_weights(u, occupation_in, occupation_out, kind: ParticleType) -> PartialWeights:
    """Check U, the input and the output for :func:`prob_partial` and compute
    the N! weights w_tau = chi(tau) * perm(conj(M) o M[tau, :]) through the
    stack-aware permanent in stacks of :data:`CHUNK`, at N! * 2^N * N cost,
    once for any number of Gram matrices.

    Refuses N > :data:`PARTIAL_MAX` and kinds other than bosons and fermions.
    """
    if kind not in (ParticleType.BOSON, ParticleType.FERMION):
        raise ValueError("partial distinguishability applies to bosons or fermions")
    fermionic = kind is ParticleType.FERMION
    u = as_complex_matrix(u)
    r, s = _check_outputs(u, occupation_in, [occupation_out], fermionic)
    n_particles = sum(r)
    if n_particles > PARTIAL_MAX:
        raise ValueError(f"partial-distinguishability sum limited to N <= {PARTIAL_MAX}")
    d = _assignment0(r)
    m = u[np.ix_(d, _columns(s, n_particles)[0])]
    perms = permutation_table(n_particles)
    weights = np.concatenate([permanent_ryser(m.conj() * m[perms[start:start + CHUNK]])
                              for start in range(0, len(perms), CHUNK)])
    if fermionic:
        weights *= permutation_signs(n_particles)
    indistinguishable = abs(determinant(m) if fermionic else permanent_ryser(m)) ** 2
    norm = prod(factorial(x) for x in r) * prod(factorial(x) for x in s[0])
    return PartialWeights(u.shape[0], d, perms, weights, indistinguishable, norm)


def partial_probabilities(terms: PartialWeights, s_matrix) -> float | np.ndarray:
    """Check one Gram matrix or a (B, n, n) stack through
    :func:`validate_distinguishability` and evaluate the single sum of
    ``terms`` on it, at N! * N cost per Gram matrix: a ``float`` for one
    matrix, a (B,) array for a stack."""
    gram = validate_distinguishability(s_matrix)
    if gram.shape[-2:] != (terms.modes, terms.modes):
        raise ValueError("distinguishability matrix must match the unitary size")
    stack = gram if gram.ndim == 3 else gram[None]
    d, perms = terms.rows, terms.perms
    deviation = stack[:, d[:, None], d[None, :]] - 1.0  # D on the occupied input modes
    e = np.zeros((len(stack), len(perms)), dtype=complex)
    for j in range(len(d)):
        factor = deviation[:, j, perms[:, j]]
        e = e + factor + e * factor
    value = terms.indistinguishable + (e * terms.weights).sum(axis=1)
    if np.any(np.abs(value.imag) > 1e-10):
        raise ArithmeticError(
            f"partial probability has imaginary part {value.imag[np.argmax(np.abs(value.imag))]}")
    result = _clamp_probability(value.real / terms.norm)
    return result if gram.ndim == 3 else float(result[0])


def prob_partial(u, occupation_in, occupation_out, s_matrix, kind: ParticleType) -> float | np.ndarray:
    """Transition probability for partially distinguishable particles.

    ``s_matrix`` is one Gram matrix, giving a ``float``, or a (B, n, n)
    stack, giving a (B,) array. With M the scattering matrix, d(j) the input
    mode of particle j, D = S - 1 and chi the signature for fermions (1 for
    bosons), it evaluates

        P = (|perm M|^2 or |det M|^2 + sum_tau w_tau e_tau) / (prod r! prod s!)
        w_tau = chi(tau) * perm(conj(M) o M[tau, :])
        e_tau = prod_j (1 + D[d(j), d(tau(j))]) - 1

    It is :func:`partial_probabilities` of :func:`partial_weights`: the
    first half checks U, the input and the output and computes the N!
    weights (N! * 2^N * N work), the second checks the Gram matrices and
    spends N! * N on each, building e_tau one factor at a time as
    e <- e + d + e * d. A caller with many Gram stacks for one transition,
    such as the distinguishability fit, calls the halves itself and computes
    the weights once. The deviation form keeps the cancellation at
    suppressed outputs at amplitude level: D is exact there, and
    sum_tau w_tau (the all-ones Gram) is the indistinguishable probability,
    taken from the same kernel and ``abs(z) ** 2`` as :func:`prob_boson` and
    :func:`prob_fermion`, so the all-ones S gives their bits; the identity S
    gives the fully distinguishable rule. Fermions are restricted to singly
    occupied modes: a doubly occupied fermionic mode would already demand
    total distinguishability, so such inputs are rejected rather than
    reinterpreted.

    Refuses N > :data:`PARTIAL_MAX`.
    """
    return partial_probabilities(partial_weights(u, occupation_in, occupation_out, kind), s_matrix)


# --- perturbed unitaries ----------------------------------------------------

#: Mean-modulus-preserving deviation ensembles for entrywise perturbations.
DELTA_DISTRIBUTIONS = ("ring", "gaussian", "disk")


@dataclass(frozen=True)
class PerturbationModel:
    """Entrywise multiplicative noise U_jk -> U_jk (1 + Delta_jk).

    ``mean_abs`` fixes the average modulus E|Delta|; all ensembles have zero
    mean. ``ring`` draws a fixed modulus with uniform phase, ``gaussian`` a
    complex normal scaled to the requested mean modulus, ``disk`` a uniform
    draw from a disc.
    """

    mean_abs: float
    seed: int | None = None
    distribution: str = "ring"

    def __post_init__(self):
        if self.mean_abs < 0:
            raise ValueError("mean_abs must be non-negative")
        if self.distribution not in DELTA_DISTRIBUTIONS:
            raise ValueError(f"unknown deviation ensemble {self.distribution!r}")

    def sample(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Deviations for one (n, n) matrix or a (B, n, n) stack of B samples.

        A stack takes one random call, laid out so that each sample's arrays
        stay contiguous in the stream: it equals B successive (n, n) draws
        bit for bit. ``gaussian`` and ``disk`` draw two arrays per sample
        (real and imaginary part; radius and phase).
        """
        if self.mean_abs == 0.0:
            return np.zeros(shape, dtype=complex)
        # in place: a sub-stack of samples allocates one complex array, which
        # keeps the peak memory of a fit flat
        if self.distribution == "ring":
            z = 1j * rng.uniform(0.0, 2.0 * np.pi, size=shape)
            np.exp(z, out=z)
            z *= self.mean_abs
            return z
        pairs = (*shape[:-2], 2, *shape[-2:])
        if self.distribution == "gaussian":
            draw = rng.standard_normal(pairs)
            z = draw[..., 0, :, :] + 1j * draw[..., 1, :, :]
            z /= np.sqrt(2.0)
            z *= self.mean_abs / (np.sqrt(np.pi) / 2.0)  # E|z| = sqrt(pi)/2
            return z
        high = np.array([1.0, 2.0 * np.pi])[:, None, None]  # (radius^2, phase) bounds per sample
        draw = rng.uniform(np.zeros((2, 1, 1)), high, size=pairs)
        z = 1j * draw[..., 1, :, :]
        np.exp(z, out=z)
        z *= np.sqrt(draw[..., 0, :, :])  # radius, uniform over the disc
        z *= self.mean_abs * 1.5  # E radius = 2/3
        return z


def perturb_unitary(u, model: PerturbationModel, rng=None) -> np.ndarray:
    """Apply fresh entrywise deviations; the result is generally not unitary
    and is meant only for deviation studies."""
    u = as_complex_matrix(u)
    if rng is None:
        rng = np.random.default_rng(model.seed)
    return u * (1.0 + model.sample(u.shape, rng))
