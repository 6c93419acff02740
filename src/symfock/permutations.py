"""Mode permutations: cycle algebra, the 0/1 operator matrix and its exact
eigenstructure.

Eigenvalues of a permutation operator are roots of unity and are kept as
exact reduced fractions of a full turn (:class:`RootOfUnity`); the complex
eigenvector matrix is derived from them, never the other way round. All
suppression predicates downstream compare these fractions with integer
arithmetic only.

Mode indices are 1-based in every user-facing notation (cycle strings,
one-line lists, cycle decompositions) and 0-based internally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm
from functools import total_ordering

import numpy as np

from .linalg import as_complex_matrix


@total_ordering
@dataclass(frozen=True)
class RootOfUnity:
    """The complex number exp(i*2*pi*num/den), stored as the exact fraction
    num/den of a full turn, fully reduced with 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        num = self.num % self.den
        g = gcd(num, self.den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", self.den // g)

    def to_complex(self) -> complex:
        return np.exp(2j * np.pi * self.num / self.den)

    def __lt__(self, other: "RootOfUnity") -> bool:
        return self.num * other.den < other.num * self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


class Permutation:
    """A bijection on n modes, held in one-line notation (0-based image)."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(int(j) for j in image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a bijection on 0..{len(image) - 1}: {image}")
        self.image = image

    @classmethod
    def from_one_line(cls, seq) -> "Permutation":
        """Build from the images of modes 1..n; a list that is not a
        bijection is named as given."""
        seq = [int(j) for j in seq]
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"not a bijection on 1..{len(seq)}: {seq}")
        return cls(j - 1 for j in seq)

    @classmethod
    def from_cycles(cls, cycles, n: int | None = None) -> "Permutation":
        """Build from cycles given with 1-based mode indices.

        Modes not mentioned are fixed points; ``n`` extends the domain past
        the largest mentioned index.
        """
        cycles = [tuple(int(j) for j in c) for c in cycles]
        mentioned = [j for c in cycles for j in c]
        if mentioned and min(mentioned) < 1:
            raise ValueError("cycle notation is 1-based; got an index < 1")
        if len(set(mentioned)) != len(mentioned):
            raise ValueError("repeated element across cycles")
        size = max(mentioned, default=0)
        if n is not None:
            if n < size:
                raise ValueError(f"n={n} smaller than largest cycle element {size}")
            size = n
        image = list(range(size))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a - 1] = b - 1
        return cls(image)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Parse cycle notation like ``"(1 2 3)(4 5 6)(7 8)"``.

        Elements may be separated by spaces or commas.
        """
        text = text.strip()
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = [
            [int(tok) for tok in re.split(r"[\s,]+", grp.strip())]
            for grp in re.findall(r"\(([^()]*)\)", text)
        ]
        return cls.from_cycles(cycles, n=n)

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        return self.image[j]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"

    def one_line(self):
        """The images of modes 1..n, 1-based."""
        return tuple(j + 1 for j in self.image)

    def cycles0(self):
        """Canonical cycles, 0-based: smallest element first, sorted by it."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            cycle = []
            j = start
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = self.image[j]
            out.append(tuple(cycle))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles0()))

    def cycle_string(self) -> str:
        return "".join(
            "(" + " ".join(str(j + 1) for j in c) + ")" for c in self.cycles0()
        )


def cycle_decompose(p: Permutation):
    """Canonical cycle decomposition with 1-based mode indices.

    Each cycle starts at its smallest element; cycles are sorted by that
    element and partition {1..n}.
    """
    return tuple(tuple(j + 1 for j in c) for c in p.cycles0())


@dataclass(frozen=True)
class EigenStructure:
    """Exact eigendata of a permutation operator.

    ``eigenvalues[k]`` is the root of unity attached to column k of
    ``eigenvectors``.
    """

    eigenvalues: tuple[RootOfUnity, ...]
    eigenvectors: np.ndarray


def eigenstructure(p: Permutation) -> EigenStructure:
    """Analytic eigendecomposition of the permutation operator.

    Every cycle (c_0,...,c_{l-1}) contributes, for k = 0..l-1, the eigenvalue
    exp(i*2*pi*k/l) with eigenvector v[c_j] = exp(i*2*pi*k*j/l)/sqrt(l) and
    zeros elsewhere. Columns are ordered by (cycle, k), which fixes a
    reproducible diagonal; any reordering or degenerate-subspace rotation is
    the caller's business.
    """
    n = p.n
    vectors = np.zeros((n, n), dtype=complex)
    values = []
    col = 0
    for cycle in p.cycles0():
        l = len(cycle)
        norm = 1.0 / np.sqrt(l)
        for k in range(l):
            values.append(RootOfUnity(k, l))
            for j, mode in enumerate(cycle):
                vectors[mode, col] = np.exp(2j * np.pi * k * j / l) * norm
            col += 1
    return EigenStructure(tuple(values), vectors)


def _diagonal_vector(diag, n: int) -> np.ndarray:
    """Accept a length-n diagonal or an n x n matrix that is diagonal."""
    arr = np.asarray(diag, dtype=complex)
    if arr.ndim == 1:
        if arr.shape[0] != n:
            raise ValueError(f"diagonal length {arr.shape[0]} != {n}")
        return arr
    if arr.shape != (n, n):
        raise ValueError(f"expected shape ({n},) or ({n},{n}), got {arr.shape}")
    if np.any(arr - np.diag(np.diagonal(arr))):
        raise ValueError("matrix argument is not diagonal")
    return np.diagonal(arr).copy()


def eigenvalues_to_complex(eigenvalues) -> np.ndarray:
    return np.array(
        [
            v.to_complex() if isinstance(v, RootOfUnity) else complex(v)
            for v in eigenvalues
        ],
        dtype=complex,
    )


def symmetry_residual(p: Permutation, u, theta, eigenvalues) -> float:
    """Max-norm residual of the mode-exchange relation P U = Z U D.

    Z = P Theta P† Theta† collects the local input phases; for Theta = 1 it
    is the identity and the relation reduces to P U = U D. A residual at
    float precision certifies that permuting the input modes of U only
    shuffles local phases.

    ``u`` is one (n, n) matrix or a (B, n, n) stack sharing ``theta`` and
    the eigenvalues; a stack gives the largest residual over its matrices.
    """
    u = as_complex_matrix(u, stack=True)
    n = p.n
    if u.shape[-2:] != (n, n):
        raise ValueError(f"unitary shape {u.shape} does not match n={n}")
    theta_diag = _diagonal_vector(theta, n)
    d_diag = eigenvalues_to_complex(eigenvalues)
    if d_diag.shape[0] != n:
        raise ValueError("eigenvalue diagonal has wrong length")
    permuted = u[..., list(p.image), :]
    z_diag = theta_diag[list(p.image)] * np.conj(theta_diag)
    rhs = z_diag[:, None] * u * d_diag[None, :]
    return float(np.max(np.abs(permuted - rhs), initial=0.0))
