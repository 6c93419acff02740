"""Construction of the unitary class fixed by a mode-permutation symmetry.

Any eigenbasis A of the permutation operator, bracketed by diagonal phase
matrices, U = Theta A Sigma, satisfies P U = Z U D with Z collecting the
input phases. The eigenbasis freedom is exposed in two controlled ways:
Haar-random rotations inside each degenerate eigenspace (seeded) and an
explicit column reordering carried out in lockstep with the eigenvalue
diagonal. The DFT matrix is the closed-form member of this class for cyclic
mode shifts.

:func:`build_unitaries` builds a stack of members that differ only in their
rotation seeds, such as the eigenbases of a census: one eigenstructure, one
stacked QR and matmul per degenerate eigenspace, and one check of each
invariant over the whole stack. :func:`build_unitary` is its one-seed case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import STRUCT_TOL, haar_from_ginibre, unitarity_residual
from .permutations import (
    Permutation,
    RootOfUnity,
    eigenstructure,
    symmetry_residual,
)


class SymmetryError(RuntimeError):
    """A constructed object failed one of its structural invariants."""


@dataclass(frozen=True)
class UnitarySpec:
    """Recipe for one member of the symmetry class of a permutation.

    ``theta_phases``/``sigma_phases`` are the n phase angles of the input and
    output diagonal matrices (defaults: all zero). ``rotation_seed`` switches
    on Haar rotations of the degenerate eigenspaces. ``column_order`` lists,
    1-based, which canonical column lands at each position.
    """

    permutation: Permutation
    theta_phases: tuple[float, ...] | None = None
    sigma_phases: tuple[float, ...] | None = None
    rotation_seed: int | None = None
    column_order: tuple[int, ...] | None = None

    def phases(self, which: str) -> np.ndarray:
        raw = self.theta_phases if which == "theta" else self.sigma_phases
        if raw is None:
            return np.zeros(self.permutation.n)
        arr = np.asarray(raw, dtype=float)
        if arr.shape != (self.permutation.n,):
            raise ValueError(f"{which} phase list must have length {self.permutation.n}")
        return arr


@dataclass(frozen=True)
class ConstructedUnitary:
    """A concrete unitary of the class, with the eigenvalue of each column."""

    matrix: np.ndarray
    eigenvalues: tuple[RootOfUnity, ...]
    spec: UnitarySpec = field(repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _degenerate_groups(eigenvalues) -> list[list[int]]:
    groups: dict[RootOfUnity, list[int]] = {}
    for idx, value in enumerate(eigenvalues):
        groups.setdefault(value, []).append(idx)
    return list(groups.values())


@dataclass(frozen=True)
class UnitaryStack:
    """Members of one spec's class that differ only in their rotation seeds.

    ``matrices`` is the (B, n, n) stack, ``eigenvalues`` the eigenvalue of
    each column (the same for every member), and the two residuals are the
    largest over the stack of max|U†U - 1| and of the mode-exchange relation
    P U = Z U D.
    """

    matrices: np.ndarray
    eigenvalues: tuple[RootOfUnity, ...]
    unitarity_residual: float
    symmetry_residual: float


def _rotate(basis: np.ndarray, values, seeds: Sequence[int]) -> None:
    """Rotate each degenerate eigenspace of the (B, n, n) ``basis`` in place
    by a Haar unitary; basis i draws every block, in group order, from its
    own ``default_rng(seeds[i])``, real parts then imaginary parts."""
    groups = _degenerate_groups(values)
    sizes = [len(cols) ** 2 for cols in groups]
    # one draw per basis: consecutive standard_normal calls give these values
    draws = np.stack([np.random.default_rng(seed).standard_normal(2 * sum(sizes))
                      for seed in seeds])
    offset = 0
    for cols, size in zip(groups, sizes):
        shape = (len(seeds), len(cols), len(cols))
        real = draws[:, offset:offset + size].reshape(shape)
        imag = draws[:, offset + size:offset + 2 * size].reshape(shape)
        offset += 2 * size
        block = haar_from_ginibre((real + 1j * imag) / np.sqrt(2.0))
        basis[:, :, cols] = basis[:, :, cols] @ block


def build_unitaries(spec: UnitarySpec, rotation_seeds: Sequence[int] | None) -> UnitaryStack:
    """Materialise U = Theta A Sigma for every rotation seed, as one stack.

    ``spec`` gives the permutation, the phases and the column order; its own
    ``rotation_seed`` is not read. With ``rotation_seeds`` None the stack
    holds the one unrotated member. Degenerate blocks are located by exact
    eigenvalue equality, never by float binning, and each block is rotated
    as a whole so every column keeps its eigenvalue; each member has the
    bits of its own one-seed build. Every member is checked against both
    invariants (unitarity and the mode-exchange relation) before the stack
    leaves, and the worst residual of each is returned with it.
    """
    p = spec.permutation
    structure = eigenstructure(p)
    values = list(structure.eigenvalues)
    count = 1 if rotation_seeds is None else len(rotation_seeds)
    if not count:
        raise ValueError("need at least one rotation seed")
    basis = np.repeat(structure.eigenvectors[None], count, axis=0)
    if rotation_seeds is not None:
        _rotate(basis, values, rotation_seeds)

    if spec.column_order is not None:
        order = [c - 1 for c in spec.column_order]
        if sorted(order) != list(range(p.n)):
            raise ValueError(f"column_order is not a permutation of 1..{p.n}")
        basis = basis[:, :, order]
        values = [values[c] for c in order]

    theta = np.exp(1j * spec.phases("theta"))
    sigma = np.exp(1j * spec.phases("sigma"))
    matrices = theta[:, None] * basis * sigma[None, :]

    unitarity = unitarity_residual(matrices)
    if not unitarity <= STRUCT_TOL:
        raise SymmetryError("constructed matrix failed the unitarity check")
    residual = symmetry_residual(p, matrices, theta, values)
    if residual > STRUCT_TOL:
        raise SymmetryError(f"mode-exchange residual {residual} exceeds {STRUCT_TOL}")
    return UnitaryStack(matrices, tuple(values), unitarity, residual)


def build_unitary(spec: UnitarySpec) -> ConstructedUnitary:
    """Materialise U = Theta A Sigma for the given spec: the one-seed case of
    :func:`build_unitaries`, with the same checks and messages."""
    seeds = None if spec.rotation_seed is None else [spec.rotation_seed]
    built = build_unitaries(spec, seeds)
    return ConstructedUnitary(built.matrices[0], built.eigenvalues, spec)


def eigenvalue_sorted_order(eigenvalues) -> tuple[int, ...]:
    """1-based column order that sorts columns by ascending phase fraction.

    Stable, so columns sharing an eigenvalue keep their relative order.
    """
    return tuple(
        idx + 1 for idx in sorted(range(len(eigenvalues)), key=lambda i: eigenvalues[i])
    )


def fourier_unitary(n: int) -> np.ndarray:
    """DFT matrix U_jk = exp(i*2*pi*(j-1)*(k-1)/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("need at least one mode")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def fourier_symmetry(n: int, m: int) -> tuple[Permutation, tuple[RootOfUnity, ...]]:
    """Cyclic-shift symmetry of the n-mode DFT for each divisor m >= 2.

    The shift by n/m has order m; column k of the DFT is its eigenvector with
    eigenvalue exp(i*2*pi*(k-1)/m). The entrywise relation
    U[pi(j), k] = U[j, k] * lambda_k is verified here (the phase matrix Z is
    the identity for this family) before the pair is returned.
    """
    if m < 2:
        raise ValueError("symmetry order must be at least 2")
    if n % m != 0:
        raise ValueError(f"{m} does not divide {n}")
    shift = n // m
    perm = Permutation([(j + shift) % n for j in range(n)])
    values = tuple(RootOfUnity(k, m) for k in range(n))
    u = fourier_unitary(n)
    lam = np.array([v.to_complex() for v in values])
    residual = float(np.max(np.abs(u[list(perm.image), :] - u * lam[None, :])))
    if residual > STRUCT_TOL:
        raise SymmetryError(f"DFT symmetry residual {residual} exceeds {STRUCT_TOL}")
    return perm, values
