"""Many-particle transition probabilities through an n-mode unitary.

The scattering matrix M repeats rows of U per input multiplicity and columns
per output multiplicity. Probabilities:

* bosons:          |perm(M)|^2 / (prod r_j! * prod s_k!)
* fermions:        |det(M)|^2                    (single occupancy only)
* distinguishable: perm(|M|^2) / prod s_k!       (elementwise modulus squared)

The proportionality constants are not taken on faith anywhere: the test
suite pins them with the sum-to-one oracle over the full output enumeration.

Probabilities are computed per output stack. :func:`probabilities` checks
U, the input and the list of outputs once, at its entry, gathers the
scattering matrices by row and column index into stacks of at most
:data:`CHUNK` (a module constant), and hands each stack to the stack-aware
permanent or determinant. ``prob_boson``, ``prob_fermion`` and
``prob_distinguishable`` are its one-output wrappers.

Partial distinguishability is handled by a Gram matrix S of internal states
on the n modes (all-ones = indistinguishable, identity = fully
distinguishable) through an explicit double sum over permutation pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

import numpy as np

from .fock import ParticleType, check_occupation, occupation_to_assignment
from .linalg import (
    as_complex_matrix,
    determinant,
    permanent_ryser,
    permutation_signs,
    permutation_table,
)

PARTIAL_MAX = 6

_NEGATIVE_FLOOR = -1e-12

#: Scattering matrices per stack. A constant, so a stack never grows with the
#: run: 512 matrices at N = 6 take 0.3 MB.
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
    s = (np.array(outputs, dtype=np.intp).reshape(len(outputs), -1) if len(outputs)
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


def probabilities(u, occupation_in, outputs, kind: ParticleType) -> np.ndarray:
    """Transition probabilities from one input to every listed output.

    ``u`` is one (n, n) matrix, giving a (K,) array for K outputs, or a
    (B, n, n) stack, giving a (B, K) array. ``u``, the input and the outputs
    are checked once, here. The (matrix, output) pairs then go through the
    stack-aware permanent or determinant in stacks of at most :data:`CHUNK`
    scattering matrices, gathered by row and column indices.
    Every probability has the bits of a lone call on its own matrix.
    """
    u = as_complex_matrix(u, stack=True)
    stack = u if u.ndim == 3 else u[None]
    r, s = _check_outputs(stack, occupation_in, outputs, kind is ParticleType.FERMION)
    rows = _assignment0(r)
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
    result = _clamp_probability(result).reshape(len(stack), len(s))
    return result if u.ndim == 3 else result[0]


def prob_boson(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.BOSON)[0])


def prob_fermion(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.FERMION)[0])


def prob_distinguishable(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.DISTINGUISHABLE)[0])


# --- partial distinguishability -------------------------------------------

def validate_distinguishability(s_matrix, tol: float = 1e-12, psd_tol: float = 1e-10) -> np.ndarray:
    """Check the Gram-matrix contract: Hermitian, unit diagonal, entries in
    the unit disc, positive semidefinite up to ``psd_tol``."""
    s = as_complex_matrix(s_matrix)
    n = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise ValueError("distinguishability matrix must be square")
    if np.max(np.abs(s - s.conj().T)) > tol:
        raise ValueError("distinguishability matrix is not Hermitian")
    if np.max(np.abs(np.diagonal(s) - 1.0)) > tol:
        raise ValueError("distinguishability matrix diagonal must be all ones")
    if np.max(np.abs(s)) > 1.0 + tol:
        raise ValueError("distinguishability entries must satisfy |S_jk| <= 1")
    if float(np.min(np.linalg.eigvalsh((s + s.conj().T) / 2.0))) < -psd_tol:
        raise ValueError("distinguishability matrix is not positive semidefinite")
    return s


def repair_distinguishability(s_matrix) -> tuple[np.ndarray, bool]:
    """Project onto the valid set by clipping negative eigenvalues and
    renormalising the diagonal back to one.

    Returns the (possibly unchanged) matrix and whether a repair happened.
    """
    s = as_complex_matrix(s_matrix)
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


def prob_partial(u, occupation_in, occupation_out, s_matrix, kind: ParticleType) -> float:
    """Transition probability for partially distinguishable particles.

    Evaluates the double permutation sum

        P = 1/(prod r! prod s!) * sum_{sigma,rho} chi(sigma) chi(rho)
            * prod_a S[d_sigma(a)(r), d_rho(a)(r)]
            * conj(U[d_sigma(a)(r), d_a(s)]) * U[d_rho(a)(r), d_a(s)]

    with chi the signature for fermions and 1 for bosons. The all-ones S
    collapses it to the indistinguishable permanent/determinant rule; the
    identity S collapses it to the fully distinguishable rule. Fermions are
    restricted to singly occupied modes: a doubly occupied fermionic mode
    would already demand total distinguishability, so such inputs are
    rejected rather than reinterpreted.

    O((N!)^2) work; refuses N > 6.
    """
    if kind is ParticleType.FERMION:
        r = check_occupation(occupation_in, fermionic=True)
        s = check_occupation(occupation_out, fermionic=True)
    elif kind is ParticleType.BOSON:
        r = check_occupation(occupation_in)
        s = check_occupation(occupation_out)
    else:
        raise ValueError("partial distinguishability applies to bosons or fermions")
    u = as_complex_matrix(u)
    gram = validate_distinguishability(s_matrix)
    if gram.shape != u.shape:
        raise ValueError("distinguishability matrix must match the unitary size")
    n_particles = sum(r)
    if sum(s) != n_particles:
        raise ValueError("particle numbers differ between input and output")
    if n_particles > PARTIAL_MAX:
        raise ValueError(f"partial-distinguishability sum limited to N <= {PARTIAL_MAX}")
    if n_particles == 0:
        return 1.0

    d_in = _assignment0(r)
    d_out = _assignment0(s)
    perms = permutation_table(n_particles)
    rows = d_in[perms]  # (N!, N): input mode of slot a under each permutation
    amp = np.prod(np.conj(u[rows, d_out[None, :]]), axis=1)  # (N!,)
    if kind is ParticleType.FERMION:
        amp = amp * permutation_signs(n_particles)
    gram_prod = np.prod(gram[rows[:, None, :], rows[None, :, :]], axis=2)  # (N!, N!)
    value = complex(amp @ gram_prod @ np.conj(amp))
    if abs(value.imag) > 1e-10:
        raise ArithmeticError(f"partial probability has imaginary part {value.imag}")
    norm = prod(factorial(x) for x in r) * prod(factorial(x) for x in s)
    return float(_clamp_probability(value.real / norm))


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
        if self.mean_abs == 0.0:
            return np.zeros(shape, dtype=complex)
        if self.distribution == "ring":
            phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
            return self.mean_abs * np.exp(1j * phase)
        if self.distribution == "gaussian":
            z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            return z * (self.mean_abs / (np.sqrt(np.pi) / 2.0))  # E|z| = sqrt(pi)/2
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=shape))  # uniform over the disc
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        return radius * np.exp(1j * phase) * (self.mean_abs * 1.5)  # E radius = 2/3


def perturb_unitary(u, model: PerturbationModel, rng=None) -> np.ndarray:
    """Apply fresh entrywise deviations; the result is generally not unitary
    and is meant only for deviation studies."""
    u = as_complex_matrix(u)
    if rng is None:
        rng = np.random.default_rng(model.seed)
    return u * (1.0 + model.sample(u.shape, rng))
