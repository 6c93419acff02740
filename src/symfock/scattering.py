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

* The expansion, for the whole output lattice. The amplitudes of all
  outputs of one input are the coefficients of one product of linear forms,

      prod_j (sum_k U[d(j), k] x_k) = sum_s perm(M_s) / prod s_k! * x^s,

  (Scheel, quant-ph/0406127 (2004); Aaronson & Arkhipov, Theory of
  Computing 9, 143 (2013)), with anticommuting x_k for fermions (every
  N x N minor, det(M_T)) and |U|^2 in place of U for distinguishable
  particles. :func:`expansion` builds the product one particle at a time
  over the slots of the cached :func:`fock.lattice` table, one term per
  occupied mode of each output, sum_d min(d, n) * K_d multiply-adds in all,
  in row blocks whose terms hold at most :data:`BLOCK_ENTRIES` entries.
* One permanent or determinant per output: the scattering matrices,
  gathered by row and column index into stacks of at most :data:`CHUNK` (a
  module constant), go to the stack-aware permanent (Glynn's formula) or
  LU determinant, K * 2^(N-1) * N or K * N^3 work.

The expansion serves a list of outputs that is the lattice of N particles,
by value and in :func:`fock.output_array` order, where
:func:`expansion_pays`; the census, the DFT comparison and the verdict
tables list it so. Every other list (a lone output, as in the one-output
wrappers ``prob_boson``, ``prob_fermion`` and ``prob_distinguishable`` and
the robustness fits, a subset, a reordering, repeated rows) takes one
permanent or determinant per output, with the bits of a lone permanent or
LU call per output, and builds no lattice. Either way a probability's bits
depend on neither the stack it came in nor the block boundaries, nor on the
form of the list: the outputs are read through :func:`fock.output_rows`, so
integer rows in any dtype, such as the cached read-only rows that
:func:`fock.output_array` hands out in the lattice's dtype, are taken as
they are, with no copy, and a list becomes checked ``intp`` rows.

Partial distinguishability is handled by a Gram matrix S of internal states
on the n modes (all-ones = indistinguishable, identity = fully
distinguishable) through the single sum over permutations tau

    P = sum_tau w_tau * prod_j S[d(j), d(tau(j))] / (prod r! * prod s!),
    w_tau = chi(tau) * perm(conj(M) o M[tau, :]),

(Tichy, PRA 91, 022316 (2015); Shchesnovich, PRA 91, 013844 (2015)). The N!
weights depend on U, the input and the output only. :func:`prob_partial` is
two halves: :func:`partial_weights` checks U, the input and the output and
computes the weights, at N! * 2^(N-1) * N cost; :func:`partial_probabilities`
checks a Gram matrix or a stack of them and spends at most N! * N on each,
in blocks of :data:`BLOCK_ENTRIES` // N! matrices.
A caller with many Gram stacks for one transition, such as the
distinguishability fit, computes the weights once. Every Gram matrix is
checked by :func:`validate_distinguishability`, whose PSD test is one
stacked Cholesky factorisation of H + PSD_TOL * I (H the Hermitian part of
S) rather than an eigendecomposition.

Every probability here is exact for the matrices it is given: the module
draws no random number. The noise of the robustness fits, the entrywise
unitary perturbations and the random Gram matrices, lives in
:mod:`experiments`, beside the fits that draw it.
"""

from __future__ import annotations

from math import factorial, prod
from typing import NamedTuple

import numpy as np

from .fock import (
    ParticleType,
    check_occupation,
    lattice,
    lattice_size,
    odd_slots,
    output_rows,
    particle_modes,
    require_modes,
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
#: stays flat; a lone call takes about 0.03 s at N = 7 and 0.4 s at N = 8.
PARTIAL_MAX = 8

_NEGATIVE_FLOOR = -1e-12

#: Scattering matrices per stack. A constant, so a stack never grows with
#: the run: 512 matrices at N = 6 take 0.3 MB.
CHUNK = 512

#: Complex entries (128 KiB) of the largest work array of an expansion block
#: or a single-sum block, and of the Gram stacks the distinguishability fit
#: draws: a block holds as many rows or matrices as fit, at least one, so
#: its size follows the arrays it makes, not a count. Larger arrays come
#: from freshly mapped pages: the single sum at N = 5 takes 1.4 us per Gram
#: matrix in blocks of 68 and 5.0 us in blocks of 300 (2-core x86 host).
BLOCK_ENTRIES = 1 << 13


def _check_finite(value) -> None:
    if not np.isfinite(value).all():  # an overflow upstream: no probability to give
        raise ArithmeticError(f"probability {value[~np.isfinite(value)][0]} is not finite")


def _clamp_probability(value):
    _check_finite(value)
    if (value < _NEGATIVE_FLOOR).any():
        raise ArithmeticError(f"probability {np.min(value)} below the cancellation floor")
    return np.where(value < 0.0, 0.0, value)  # keeps -0.0, as max(-0.0, 0.0) does


def _check_outputs(u: np.ndarray, occupation_in, outputs, fermionic: bool):
    """Check one input and a list of outputs against ``u``; return the input
    occupation, the 0-based input mode d(j) of each of its particles
    (:func:`fock.particle_modes`) and the (K, n) array of output
    occupations, from :func:`fock.output_rows`: integer rows in their own
    dtype, uncopied. The rules of an occupation are :mod:`fock`'s; the
    particle numbers are checked here."""
    r = check_occupation(occupation_in, fermionic=fermionic)
    n_in, n_out = u.shape[-2:]
    require_modes(r, n_in)
    s = output_rows(outputs, n_out, fermionic)
    particles = sum(r)
    # intp sums with no intp copy of the rows: a product with ones casts them
    # all, and s.sum(axis=1) reduces each short row on its own, over twice
    # as slow on the 12-mode DFT lattice
    totals = np.einsum("ij->i", s, dtype=np.intp)
    if totals.min(initial=particles) != particles or totals.max(initial=particles) != particles:
        first = tuple(int(x) for x in s[totals != particles][0])
        raise ValueError(f"particle numbers differ: sum{r}={particles} vs sum{first}={sum(first)}")
    return r, particle_modes(np.array([r], dtype=np.intp))[0], s


def scattering_matrix(u, occupation_in, occupation_out) -> np.ndarray:
    """Submatrix of U with rows from occupied input modes and columns from
    occupied output modes, repeated per multiplicity."""
    u = as_complex_matrix(u)
    _, d, s = _check_outputs(u, occupation_in, [occupation_out], fermionic=False)
    return u[np.ix_(d, particle_modes(s)[0])]


def expansion_pays(n: int, particles: int, kind: ParticleType, single: bool = False) -> bool:
    """Whether :func:`probabilities` expands the product of the input's linear
    forms over the whole lattice of ``particles`` particles in ``n`` modes
    rather than computing one permanent or determinant per output.

    The rule prices the expansion at n * sum_{d<=N} K_d multiply-adds, K_d
    being the C(n+d-1, d) multisets of d particles, or the C(n, d) subsets
    when ``single`` (every output has at most one particle per mode, which
    fermion outputs always have). That is one term per mode; :func:`expansion`
    adds one per occupied mode only, sum_d min(d, n) * K_d, so the rule is
    conservative: it keeps the choices (and so the bits) it made when the
    expansion cost what it charges. One output costs 2^N * N by Ryser, N^3
    by LU, so K_N outputs cost K_N times that. The permanent is Glynn's
    loop, 2^(N-1) * N, but the rule keeps Ryser's price: at half the price
    some lattices would change branch, and so the bits of their
    probabilities. A lattice of one output always takes the
    permanent or the determinant, and so do more than
    :data:`linalg.RYSER_MAX` bosons or distinguishable particles, which the
    permanent refuses: the expansion accepts no input the permanent would
    not.
    """
    single = single or kind is ParticleType.FERMION
    outputs = lattice_size(n, particles, single)
    if outputs < 2 or (particles > RYSER_MAX and kind is not ParticleType.FERMION):
        return False
    every = sum(lattice_size(n, d, single) for d in range(particles + 1))
    per_output = particles ** 3 if kind is ParticleType.FERMION else 2 ** particles * particles
    return n * every < outputs * per_output


def expansion(weights: np.ndarray, rows: np.ndarray, single: bool = False,
              fermionic: bool = False) -> np.ndarray:
    """Coefficients of x^s in prod_j (sum_k W[rows[j], k] x_k), for a (B, R, n)
    stack of checked weights W, R linear forms over n modes, and the (N,)
    form ``rows[j]`` of each particle, for every output s of the lattice
    :func:`fock.lattice` (n, N, ``single`` or ``fermionic``) in its order: a
    (B, K_N) array. R need not be n, and a form may serve several particles
    or none.

    The coefficient of s is perm(W[rows][:, cols(s)]) / prod s_k!, cols(s)
    listing mode k s_k times: with W = U and the input modes as ``rows``,
    perm(M_s) / prod s_k!; with W = |U|^2, the distinguishable probability.
    With ``fermionic`` the linear forms anticommute and the coefficient of a
    0/1 output T is det(W[rows][:, T]), rows in ``rows`` order and columns
    ascending. The product is built one
    particle at a time, over all multisets of each degree, or over the 0/1
    outputs when ``single`` (fermions included),

        c_{d+1}(t) = sum_{k: t_k > 0} sign * W[rows[d], k] * c_d(t - e_k),

    sign = (-1)^(particles of t after mode k) for fermions, else 1: one term
    per occupied mode, at most min(d + 1, n), so sum_d min(d, n) * K_d
    multiply-adds in all. The terms come from the :class:`fock.Slots` of
    each degree of the cached lattice table; a padding slot takes the zero
    row appended to the weights and to c_d.

    Rows go through in blocks of :data:`BLOCK_ENTRIES` // (slots * B), at
    least one, so a block's (slots, rows, B) terms stay within the budget
    at every degree. Per block: one gather
    of parent coefficients and one of weights, one multiply, the fermion
    signs, and one sum over the slots in ascending mode order, so a
    coefficient's bits depend on neither B nor the block boundaries. Every
    nonzero term is added in the order of a sum over all n modes,
    k = 0..n-1, with a zero term for each empty mode, and the coefficients
    equal that sum's under ``==``: only an exactly zero coefficient may
    differ, in its sign, which no probability shows (|c|^2 is +0 either way,
    and distinguishable terms are never negative).
    """
    b, n = weights.shape[0], weights.shape[-1]
    table = lattice(n, len(rows), single or fermionic)
    coeffs = np.zeros((2, b), dtype=weights.dtype)  # degree 0: the constant 1, and the zero row
    coeffs[0] = 1.0
    w = np.zeros((n + 1, b), dtype=weights.dtype)  # weights of one particle, and the zero row
    for d, (row, slots) in enumerate(zip(rows, table.slots)):
        width, size = slots.parents.shape
        block = max(1, BLOCK_ENTRIES // max(width * b, 1))
        parent_coeffs, coeffs = coeffs, np.empty((size + 1, b), dtype=weights.dtype)
        coeffs[size] = 0.0
        w[:n] = weights[:, row, :].T
        flip = odd_slots(d + 1)[:, None, None] if fermionic else None
        for start in range(0, size, block):
            stop = min(start + block, size)
            terms = parent_coeffs.take(slots.parents[:, start:stop], axis=0)  # (slots, rows, B)
            terms *= w.take(slots.modes[:, start:stop], axis=0)
            if fermionic:
                np.negative(terms, out=terms, where=flip)
            _sum_slots(terms, coeffs[start:stop])
    return coeffs[:-1].T


def _sum_slots(terms: np.ndarray, out: np.ndarray) -> None:
    """out = terms[0] + terms[1] + ..., added in that order. ``np.add.reduce``
    over the leading axis adds whole rows in index order, except when a row
    is one number: its inner loop then sums the column pairwise, which
    groups the terms differently."""
    if out.size > 1:
        np.add.reduce(terms, axis=0, out=out)
    else:
        out[...] = terms[0]
        for term in terms[1:]:
            out += term


def probabilities(u, occupation_in, outputs, kind: ParticleType) -> np.ndarray:
    """Transition probabilities from one input to every listed output.

    ``u`` is one (n, n) matrix, giving a (K,) array for K outputs, or a
    (B, n, n) stack, giving a (B, K) array. ``u``, the input and the outputs
    are checked once, here; integer output rows are read in their own dtype,
    not copied. Outputs that are the whole lattice of N
    particles, K_N of them in :func:`fock.output_array` order (the 0/1
    lattice when every output is 0/1 or the kind is fermionic), come from
    one :func:`expansion` per matrix where :func:`expansion_pays`; the
    count is checked first, so a shorter list never builds the lattice.
    Any other list goes through the stack-aware permanent or determinant in
    stacks of at most :data:`CHUNK` scattering matrices, gathered by row and
    column indices. Either way every probability has the bits of a call on
    its own matrix with the same outputs; off the lattice, those of a lone
    call on its output too.
    """
    u = as_complex_matrix(u, stack=True)
    stack = u if u.ndim == 3 else u[None]
    fermionic = kind is ParticleType.FERMION
    r, rows, s = _check_outputs(stack, occupation_in, outputs, fermionic)
    n, single = s.shape[1], fermionic or s.max(initial=0) <= 1
    if (len(s) == lattice_size(n, len(rows), single) and expansion_pays(n, len(rows), kind, single)
            and np.array_equal(s, lattice(n, len(rows), single).top)):
        result = _expanded_probabilities(stack, r, rows, s, kind, single)
    else:
        result = _per_output_probabilities(stack, r, rows, s, kind)
    result = _clamp_probability(result)
    return result if u.ndim == 3 else result[0]


def _expanded_probabilities(stack, r, rows, s, kind: ParticleType, single: bool) -> np.ndarray:
    """The probabilities of :func:`probabilities` from :func:`expansion`, for
    outputs ``s`` that are the lattice (n, N, ``single``)."""
    if kind is ParticleType.DISTINGUISHABLE:
        return expansion(np.abs(stack) ** 2, rows, single)
    c = expansion(stack, rows, single, kind is ParticleType.FERMION)
    result = c.real ** 2 + c.imag ** 2
    if kind is ParticleType.BOSON:  # |perm M|^2 / (prod r! prod s!) = |c|^2 prod s! / prod r!
        factorials = np.array([float(factorial(k)) for k in range(len(rows) + 1)])
        norm = np.ones(len(s))
        for column in s.T:  # one mode at a time, with no (K, n) array: exact integers
            norm *= factorials.take(column)  # indexing by a uint8 column costs twice as much
        result *= norm / prod(factorials[list(r)])
    return result


def _per_output_probabilities(stack, r, rows, s, kind: ParticleType) -> np.ndarray:
    factorials = np.array([factorial(k) for k in range(len(rows) + 1)], dtype=object)
    input_norm = prod(factorials[list(r)]) if kind is ParticleType.BOSON else 1
    norms = (factorials[s].prod(axis=1) * input_norm).astype(float)  # exact, rounded once each
    n_pairs = len(stack) * len(s)
    result = np.empty(n_pairs)
    for start in range(0, n_pairs, CHUNK):
        pair = np.arange(start, min(start + CHUNK, n_pairs))
        b, k = np.divmod(pair, len(s))
        m = stack[b[:, None, None], rows[None, :, None], particle_modes(s[k])[:, None, :]]
        if kind is ParticleType.DISTINGUISHABLE:
            weights = np.abs(m) ** 2
            # squares of checked entries may overflow: the error of the
            # lattice path, before permanent_ryser refuses them as input
            _check_finite(weights)
            values = permanent_ryser(weights).real
        else:
            amp = determinant(m) if kind is ParticleType.FERMION else permanent_ryser(m)
            # Python's pow(|z|, 2), not numpy's |z| * |z|: they differ in the
            # last bit for about one value in a thousand
            values = np.array([abs(z) ** 2 for z in amp.tolist()])
        result[pair] = values / norms.take(k)
    return result.reshape(len(stack), len(s))


def prob_boson(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.BOSON)[0])


def prob_fermion(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.FERMION)[0])


def prob_distinguishable(u, occupation_in, occupation_out) -> float:
    return float(probabilities(u, occupation_in, [occupation_out], ParticleType.DISTINGUISHABLE)[0])


# --- partial distinguishability -------------------------------------------

#: Entrywise tolerance of the Gram-matrix checks (Hermitian, unit diagonal,
#: unit disc), and how far below zero the lowest eigenvalue may fall.
GRAM_TOL = 1e-12
PSD_TOL = 1e-10


def validate_distinguishability(s_matrix) -> np.ndarray:
    """Check the Gram-matrix contract: Hermitian, unit diagonal, entries in
    the unit disc (each up to :data:`GRAM_TOL`), positive semidefinite up to
    :data:`PSD_TOL`.

    Takes one (n, n) matrix or a (B, n, n) stack, checked as a whole. The PSD
    test is one stacked Cholesky factorisation of H + PSD_TOL * I, H the
    Hermitian part: the factor exists exactly when the lowest eigenvalue of H
    is above -PSD_TOL, and costs a fraction of an eigendecomposition.
    """
    s = as_complex_matrix(s_matrix, stack=True)
    if s.shape[-1] != s.shape[-2]:
        raise ValueError("distinguishability matrix must be square")
    if not s.size:
        return s
    adjoint = s.conj().swapaxes(-1, -2)
    work = s - adjoint
    if np.abs(work).max() > GRAM_TOL:
        raise ValueError("distinguishability matrix is not Hermitian")
    diagonal = np.arange(s.shape[-1])
    if np.abs(s[..., diagonal, diagonal] - 1.0).max() > GRAM_TOL:
        raise ValueError("distinguishability matrix diagonal must be all ones")
    if np.abs(s).max() > 1.0 + GRAM_TOL:
        raise ValueError("distinguishability entries must satisfy |S_jk| <= 1")
    shifted = np.add(s, adjoint, out=work)  # the Hermitian part, in the difference's buffer
    shifted /= 2.0
    shifted[..., diagonal, diagonal] += PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise ValueError("distinguishability matrix is not positive semidefinite") from None
    return s


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
    stack-aware permanent in stacks of :data:`CHUNK`, at N! * 2^(N-1) * N cost,
    once for any number of Gram matrices.

    Refuses N > :data:`PARTIAL_MAX` and kinds other than bosons and fermions.
    """
    if kind not in (ParticleType.BOSON, ParticleType.FERMION):
        raise ValueError("partial distinguishability applies to bosons or fermions")
    fermionic = kind is ParticleType.FERMION
    u = as_complex_matrix(u)
    r, d, s = _check_outputs(u, occupation_in, [occupation_out], fermionic)
    n_particles = sum(r)
    if n_particles > PARTIAL_MAX:
        raise ValueError(f"partial-distinguishability sum limited to N <= {PARTIAL_MAX}")
    m = u[np.ix_(d, particle_modes(s)[0])]
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
    ``terms`` on it, at most N! * N work per Gram matrix: a ``float`` for one
    matrix, a (B,) array for a stack.

    The whole stack is checked at once; the sum then runs in blocks of
    :data:`BLOCK_ENTRIES` // N! Gram matrices (at least one), so its (N!,
    block) arrays stay within the budget however long the stack. The sum
    works per Gram matrix: a value's bits depend on neither the stack nor
    the block boundaries.
    """
    gram = validate_distinguishability(s_matrix)
    if gram.shape[-2:] != (terms.modes, terms.modes):
        raise ValueError("distinguishability matrix must match the unitary size")
    stack = gram if gram.ndim == 3 else gram[None]
    value = np.empty(len(stack), dtype=complex)  # a (0, n, n) stack runs no block
    block = max(1, BLOCK_ENTRIES // len(terms.perms))
    for start in range(0, len(stack), block):
        value[start:start + block] = _single_sum(terms, stack[start:start + block])
    if (np.abs(value.imag) > 1e-10).any():
        raise ArithmeticError(
            f"partial probability has imaginary part {value.imag[np.argmax(np.abs(value.imag))]}")
    result = _clamp_probability(value.real / terms.norm)
    return result if gram.ndim == 3 else float(result[0])


def _single_sum(terms: PartialWeights, stack: np.ndarray) -> np.ndarray:
    """The complex single sum of ``terms`` on each checked Gram matrix of a
    (B, n, n) stack, before the norm: a (B,) array."""
    d, perms, n = terms.rows, terms.perms, len(terms.rows)
    deviation = stack[:, d[:, None], d[None, :]].transpose(1, 2, 0)  # (N, N, B)
    deviation -= 1.0  # D on the occupied input modes
    # e <- (e + factor) + e * factor on contiguous rows, one row per prefix
    # tau(0..j): the table is lexicographic, so the (N-1-j)! rows of a prefix
    # share its e, repeated once per extension before the next factor
    e = np.zeros((1, len(stack)), dtype=complex)
    for j in range(n):
        if j < n - 1:
            e = e.repeat(n - j, axis=0)
        factor = deviation[j].take(perms[::factorial(n - 1 - j), j], axis=0)
        product = e * factor
        e += factor
        e += product
    e = np.ascontiguousarray(e.T)  # (B, N!): the weights and the sum run along each row
    e *= terms.weights
    return terms.indistinguishable + e.sum(axis=1)


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
    weights (N! * 2^(N-1) * N work), the second checks the Gram matrices and
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
