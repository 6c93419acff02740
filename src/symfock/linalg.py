"""Dense complex linear algebra: permanents, determinants, unitarity, Haar sampling.

All matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``.
Inputs are validated for finiteness once, on entry; NaN/Inf never propagate
into the kernels.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

NAIVE_MAX = 10
#: One Ryser call doubles in time per extra row; at n = 20 it takes 6.3 s
#: (n = 16: 0.33 s, n = 18: 1.6 s, n = 22: 29 s, one matrix, 2-core x86-64).
RYSER_MAX = 20

#: Default tolerance for structural checks (unitarity, symmetry residuals).
STRUCT_TOL = 1e-12
#: Default tolerance for probability comparisons.
PROB_TOL = 1e-10


def as_complex_matrix(matrix, stack: bool = False) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries.

    With ``stack=True`` a 3-D stack of equally shaped matrices passes too.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ValueError(f"expected a 2-D matrix{' or a 3-D stack' if stack else ''}, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def _as_square(matrix) -> np.ndarray:
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _as_square_stack(matrix) -> tuple[np.ndarray, bool]:
    """A (B, n, n) stack, and whether the input was one matrix (B = 1)."""
    m = as_complex_matrix(matrix, stack=True)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m, False) if m.ndim == 3 else (m[None], True)


_PERM_TABLES: dict[int, np.ndarray] = {}
_SIGN_TABLES: dict[int, np.ndarray] = {}


def permutation_table(n: int) -> np.ndarray:
    """All permutations of range(n) as an (n!, n) int array, lexicographic."""
    if n not in _PERM_TABLES:
        _PERM_TABLES[n] = np.array(list(permutations(range(n))), dtype=np.intp).reshape(
            factorial(n), n
        )
    return _PERM_TABLES[n]


def permutation_signs(n: int) -> np.ndarray:
    """Signatures (+1/-1) aligned with :func:`permutation_table`."""
    if n not in _SIGN_TABLES:
        table = permutation_table(n)
        signs = np.empty(len(table), dtype=np.float64)
        for i, row in enumerate(table):
            seen = [False] * n
            transpositions = 0
            for start in range(n):
                if seen[start]:
                    continue
                j = start
                length = 0
                while not seen[j]:
                    seen[j] = True
                    j = row[j]
                    length += 1
                transpositions += length - 1
            signs[i] = -1.0 if transpositions % 2 else 1.0
        _SIGN_TABLES[n] = signs
    return _SIGN_TABLES[n]


def permanent_naive(matrix) -> complex:
    """Permanent by explicit enumeration of all n! permutations.

    Only sensible for n <= 10.
    """
    m = _as_square(matrix)
    n = m.shape[0]
    if n > NAIVE_MAX:
        raise ValueError(f"naive permanent limited to n <= {NAIVE_MAX}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    table = permutation_table(n)
    return complex(np.prod(m[np.arange(n)[None, :], table], axis=1).sum())


def permanent_ryser(matrix):
    """Permanent via Ryser's inclusion-exclusion with Gray-code subset order.

    One column add/subtract updates the running row sums per subset step,
    giving O(2^n * n) work per matrix. Agrees with :func:`permanent_naive`.

    One (n, n) matrix gives a ``complex``; a (B, n, n) stack gives a (B,)
    complex array. Each numpy call runs one step on all B matrices at once,
    in the order of the scalar loop, so every matrix of a stack gets the
    bits of a lone call.
    """
    stack, single = _as_square_stack(matrix)
    b, n = stack.shape[0], stack.shape[-1]
    if n > RYSER_MAX:
        raise ValueError(f"Ryser permanent limited to n <= {RYSER_MAX}, got {n}")
    cols = list(np.ascontiguousarray(stack.transpose(2, 0, 1)))  # cols[j]: column j of every matrix
    rowsums = np.zeros((b, n), dtype=complex)
    term, total = np.empty(b, dtype=complex), np.zeros(b, dtype=complex)
    add, sub, prod = np.add, np.subtract, np.multiply.reduce  # positional out: less call overhead
    gray = 0
    for k in range(1, 1 << n):
        bit = k & -k
        gray ^= bit
        (add if gray & bit else sub)(rowsums, cols[bit.bit_length() - 1], rowsums)
        prod(rowsums, 1, None, term)
        (sub if k & 1 else add)(total, term, total)  # odd subsets: sign -1
    if not n:
        total += 1
    elif n % 2:
        total = -total
    return complex(total[0]) if single else total


def determinant(matrix):
    """Determinant by LU elimination with partial pivoting.

    Row swaps flip the sign; a zero pivot column short-circuits to 0.
    Takes one (n, n) matrix or a (B, n, n) stack, like
    :func:`permanent_ryser`. The running product of the pivots is formed
    from real and imaginary parts exactly as Python multiplies two complex
    numbers, so a stack gives every matrix the bits of a lone call.
    """
    stack, single = _as_square_stack(matrix)
    stack = stack.copy()
    b, n = stack.shape[0], stack.shape[-1]
    batch = np.arange(b)
    det_re, det_im = np.ones(b), np.zeros(b)
    for col in range(n):
        pivot = col + np.argmax(np.abs(stack[:, col:, col]), axis=1)
        singular = stack[batch, pivot, col] == 0
        if singular.any():  # det is 0; an identity keeps the later steps finite
            det_re[singular] = det_im[singular] = 0.0
            stack[singular] = np.eye(n)
            pivot[singular] = col
        swapped = np.flatnonzero(pivot != col)
        if swapped.size:
            upper = stack[swapped, col].copy()
            stack[swapped, col] = stack[swapped, pivot[swapped]]
            stack[swapped, pivot[swapped]] = upper
            det_re[swapped] = -det_re[swapped]
            det_im[swapped] = -det_im[swapped]
        diag = stack[:, col, col]
        det_re, det_im = (det_re * diag.real - det_im * diag.imag,
                          det_re * diag.imag + det_im * diag.real)
        if col + 1 < n:
            factors = stack[:, col + 1 :, col] / diag[:, None]
            stack[:, col + 1 :, col:] -= factors[:, :, None] * stack[:, None, col, col:]
    det = np.empty(b, dtype=complex)
    det.real, det.imag = det_re, det_im
    return complex(det[0]) if single else det


def unitarity_residual(matrix) -> float:
    """Max-norm of M†M - 1 for one square matrix or a (B, n, n) stack, the
    largest over the stack."""
    m = as_complex_matrix(matrix, stack=True)
    gram = m.conj().swapaxes(-1, -2) @ m
    return float(np.max(np.abs(gram - np.eye(m.shape[-1])), initial=0.0))


def is_unitary(matrix, tol: float = STRUCT_TOL) -> bool:
    """True iff the max-norm of M†M - 1 is within ``tol``. Non-square is False."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    return unitarity_residual(m) <= tol


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from one (q, q) complex Ginibre matrix or a (B, q, q)
    stack of them: the Q factor of one (stacked) QR, each column's phase
    fixed by the R diagonal so the distribution is exactly Haar rather than
    QR-convention dependent. A stack gives every matrix the bits of a lone
    call."""
    qmat, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat, axis1=-2, axis2=-1).copy()
    diag /= np.abs(diag)
    return qmat * diag[..., None, :]


def haar_random_unitary(q: int, rng) -> np.ndarray:
    """Haar-distributed q x q unitary from QR of a complex Ginibre matrix.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; the same seed
    always reproduces the same matrix bit for bit. The matrix is
    :func:`haar_from_ginibre` of the real parts, then the imaginary parts,
    drawn in row-major order.
    """
    if q < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = (gen.standard_normal((q, q)) + 1j * gen.standard_normal((q, q))) / np.sqrt(2.0)
    return haar_from_ginibre(z)
