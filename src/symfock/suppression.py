"""Algebraic suppression predicates and event classification.

Given the eigenvalue attached to each column of a symmetry-built unitary,
an output configuration maps to the multiset of eigenvalues of its occupied
modes. Two exact tests follow:

* bosons:   the product of that multiset differs from 1
* fermions: the multiset differs from the one fixed by the input

Either verdict certifies a transition probability of exactly zero for every
member of the unitary class. No float ever enters a verdict:
:func:`output_laws` decides every law for a whole (K, n) array of outputs
with int64 arithmetic only.

* Phases as integers. With L the lcm of the eigenvalue denominators, the
  eigenvalue num/den of column j is k_j = num * L / den L-ths of a turn, so
  the eigenvalue product over output s is exactly (s @ k) mod L L-ths of a
  turn. The boson law is (s @ k) % L != 0; the legacy DFT parity law
  compares the same number with (-1)^w, which is 0 or L/2.
* Multisets as counts. Over the D sorted distinct eigenvalues, s @ onehot
  counts how often each value is picked, and two multisets are equal iff
  their count rows are. The fermion law compares each count row with the
  input's. Each count row is keyed by its rank among the multisets of D
  values (:func:`fock.output_ranks`), offset past the multisets with fewer
  particles; one ``unique`` of the keys groups equal rows, and each group
  becomes one distribution tuple, shared by its rows.

Both are exact as long as no sum leaves int64: s @ k < N * L for N
particles, so :func:`output_laws` refuses N * L >= 2^63 up front. A key is
below C(D + N, N), the number of multisets of at most N of D values; where
that reaches 2^63 (dozens of distinct eigenvalues and particles at once)
the count rows are grouped by ``unique`` over whole rows instead. The
one-output predicates are wrappers over it.

:func:`verdict_table` is the one builder of verdict tables: it joins one
:func:`output_laws` call with the probabilities of the same outputs and
classifies every row at once into a column-oriented :class:`VerdictTable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from math import comb, lcm

import numpy as np

from .fock import ParticleType, check_occupation, output_ranks
from .permutations import Permutation, RootOfUnity, is_invariant

#: Probabilities below this are treated as zero when classifying events.
CLASSIFY_TOL = 1e-10

#: Multiset of eigenvalues, canonically sorted by phase fraction.
EigenvalueDistribution = tuple[RootOfUnity, ...]

#: Phase sums must stay below this, so int64 holds them exactly.
_INT64_LIMIT = 1 << 63


def _as_roots(values) -> tuple[RootOfUnity, ...]:
    out = []
    for v in values:
        if not isinstance(v, RootOfUnity):
            raise TypeError(f"expected RootOfUnity entries, got {type(v).__name__}")
        out.append(v)
    return tuple(out)


def initial_distribution(p: Permutation, occupation_in) -> EigenvalueDistribution:
    """Eigenvalue multiset fixed by a fermionic input: every populated cycle
    of length l contributes all l-th roots of unity.

    Requires single occupancy and invariance, which together force each cycle
    to be entirely filled or entirely empty.
    """
    r = check_occupation(occupation_in, fermionic=True)
    if not is_invariant(p, r):
        raise ValueError("input occupation is not invariant under the permutation")
    values: list[RootOfUnity] = []
    for cycle in p.cycles0():
        if r[cycle[0]]:
            values.extend(RootOfUnity(k, len(cycle)) for k in range(len(cycle)))
    return tuple(sorted(values))


@dataclass(frozen=True)
class OutputLaws:
    """Law verdicts for K outputs, one entry per output row.

    ``distributions`` holds each output's eigenvalue multiset; outputs with
    equal multisets share one tuple. ``fermion`` is set when a permutation
    and an input were given, ``parity`` when a witness ``w`` was.
    """

    boson: np.ndarray
    distributions: tuple[EigenvalueDistribution, ...]
    fermion: np.ndarray | None = None
    parity: np.ndarray | None = None


def output_laws(eigenvalues, outputs, permutation: Permutation | None = None,
                occupation_in=None, w: int | None = None) -> OutputLaws:
    """Decide the suppression laws for every row of a (K, n) output array.

    Always gives the boson law and the eigenvalue distributions. With the
    symmetry ``permutation`` and the fermionic ``occupation_in`` it also
    gives the fermion law (the outputs must then be singly occupied); with
    the parity witness ``w`` (:func:`transposition_count`) the legacy DFT
    law. Everything is checked once, here; the arithmetic is int64 only.
    """
    values = _as_roots(eigenvalues)
    n = len(values)
    s = (np.asarray(outputs, dtype=np.int64).reshape(len(outputs), -1) if len(outputs)
         else np.zeros((0, n), dtype=np.int64))
    if (s < 0).any():
        check_occupation(s[(s < 0).any(axis=1)][0])  # raises the usual message
    if s.shape[1] != n:
        raise ValueError(f"occupation over {s.shape[1]} modes but {n} eigenvalues")
    initial: EigenvalueDistribution = ()
    if (permutation is None) != (occupation_in is None):
        raise ValueError("the fermion law needs both the permutation and the input occupation")
    if permutation is not None:
        if (s > 1).any():
            check_occupation(s[(s > 1).any(axis=1)][0], fermionic=True)
        initial = initial_distribution(permutation, occupation_in)

    turn = lcm(*(v.den for v in values))  # L: phases count in L-ths of a turn
    sizes = s.sum(axis=1)
    n_particles = int(sizes.max(initial=0))
    if max(n_particles, 1) * turn >= _INT64_LIMIT:
        raise ValueError(f"phase sums overflow int64: {n_particles} particles times "
                         f"lcm of eigenvalue denominators {turn} >= 2^63")
    k = np.array([v.num * (turn // v.den) for v in values], dtype=np.int64)
    phase = (s @ k) % turn  # the output's eigenvalue product, exactly
    parity = None
    if w is not None:
        # (-1)^w is 0 or half a turn; an odd L never reaches half a turn
        target = 0 if w % 2 == 0 else (turn // 2 if turn % 2 == 0 else -1)
        parity = phase != target

    distinct = sorted(set(values) | set(initial))
    column = {v: c for c, v in enumerate(distinct)}
    onehot = np.zeros((n, len(distinct)), dtype=np.int64)
    onehot[np.arange(n), np.array([column[v] for v in values], dtype=np.intp)] = 1
    counts = s @ onehot
    fermion = None
    if permutation is not None:
        initial_counts = [0] * len(distinct)
        for v in initial:
            initial_counts[column[v]] += 1
        fermion = (counts != np.array(initial_counts, dtype=np.int64)).any(axis=1)

    # one group per distinct count row; one tuple per group, shared by its rows
    if comb(len(distinct) + n_particles, n_particles) < _INT64_LIMIT:
        offsets = np.array([comb(len(distinct) + size - 1, size - 1) if size else 0
                            for size in range(n_particles + 1)], dtype=np.int64)
        key = (output_ranks(counts) if len(distinct) else 0) + offsets[sizes]
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
    else:
        _, first, group = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    shared = [tuple(chain.from_iterable(map(repeat, distinct, row)))
              for row in counts[first].tolist()]
    return OutputLaws(phase != 0, tuple(map(shared.__getitem__, group.ravel().tolist())),
                      fermion, parity)


def final_distribution(eigenvalues, occupation_out) -> EigenvalueDistribution:
    """Eigenvalue multiset picked out by the occupied output modes."""
    return output_laws(eigenvalues, [occupation_out]).distributions[0]


def boson_suppressed(eigenvalues, occupation_out) -> bool:
    """True iff the eigenvalue product over the output differs from 1,
    certifying an exactly vanishing bosonic probability."""
    return bool(output_laws(eigenvalues, [occupation_out]).boson[0])


def fermion_suppressed(p: Permutation, occupation_in, eigenvalues, occupation_out) -> bool:
    """True iff the output eigenvalue multiset differs from the input one,
    certifying an exactly vanishing fermionic probability."""
    return bool(output_laws(eigenvalues, [occupation_out], p, occupation_in).fermion[0])


def transposition_count(p: Permutation, occupation_in) -> int:
    """Parity witness w for the legacy DFT law: particle number minus the
    number of populated cycles, i.e. the transpositions needed to realise the
    permutation restricted to the occupied modes."""
    r = check_occupation(occupation_in, fermionic=True)
    if not is_invariant(p, r):
        raise ValueError("input occupation is not invariant under the permutation")
    populated = sum(1 for cycle in p.cycles0() if r[cycle[0]])
    return sum(r) - populated


def old_fourier_fermion_suppressed(eigenvalues, occupation_out, w: int) -> bool:
    """The older DFT fermion criterion: product of the output eigenvalues
    differs from (-1)^w. Kept for comparison; it predicts only a subset of
    the events the multiset test catches."""
    return bool(output_laws(eigenvalues, [occupation_out], w=w).parity[0])


class EventClass(Enum):
    """Empirical event classes: IV is transmitted; I and II vanish through
    single-particle dynamics (II law-predicted, I not); III vanishes through
    genuine many-particle interference."""

    ALLOWED = "IV"
    CLASS_I = "I"
    CLASS_II = "II"
    CLASS_III = "III"


#: Event classes by the codes :func:`classify_event` computes.
_CLASS_BY_CODE = np.array([EventClass.ALLOWED, EventClass.CLASS_I, EventClass.CLASS_II,
                           EventClass.CLASS_III], dtype=object)


def classify_event(law_suppressed, p_particle, p_dist, tol: float = CLASSIFY_TOL):
    """Sort output events into classes I/II/III/IV.

    Law-suppressed events split on the distinguishable probability: above
    ``tol`` the vanishing needs many-particle interference (III), below it
    the single-particle dynamics already forbids the event (II). Events that
    vanish for both the coherent and the distinguishable case without a law
    verdict are class I; everything else is transmitted (IV).

    Scalars give one :class:`EventClass`; arrays (scalars broadcast) give an
    object array of them, one per event.
    """
    p_dist = np.asarray(p_dist)
    code = np.where(law_suppressed, np.where(p_dist > tol, 3, 2),
                    np.where((np.asarray(p_particle) <= tol) & (p_dist <= tol), 1, 0))
    return _CLASS_BY_CODE[code]


@dataclass(frozen=True, eq=False)
class VerdictTable:
    """Verdicts of K outputs for one particle kind, one array per column.

    ``outputs`` is the (K, n) occupation array and ``distributions`` each
    row's eigenvalue multiset (rows with equal multisets share one tuple).
    ``boson`` is the boson law, ``fermion`` the fermion law (fermion tables
    only) and ``parity`` the legacy DFT law (when a parity witness was
    given). ``p`` is the kind's probability, which for distinguishable
    particles is ``p_dist``; ``classes`` holds each row's :class:`EventClass`.
    """

    kind: ParticleType
    outputs: np.ndarray
    distributions: tuple[EigenvalueDistribution, ...]
    boson: np.ndarray
    p: np.ndarray
    p_dist: np.ndarray
    classes: np.ndarray
    fermion: np.ndarray | None = None
    parity: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.outputs)


def verdict_table(eigenvalues, outputs, kind: ParticleType, p, p_dist,
                  permutation: Permutation | None = None, occupation_in=None,
                  w: int | None = None) -> VerdictTable:
    """The verdict table of a (K, n) output array for one particle kind.

    ``p`` and ``p_dist`` hold each output's probability for ``kind`` and for
    distinguishable particles (a distinguishable table passes ``p_dist``
    twice). Fermion tables, and only they, take the symmetry ``permutation``
    and the input, plus the parity witness ``w`` for the legacy DFT law. One
    :func:`output_laws` call decides every law; each class follows from the
    row's own law (none for distinguishable particles) and probabilities.
    """
    if (kind is ParticleType.FERMION) != (permutation is not None):
        raise ValueError("fermion tables, and only they, take the permutation and the input")
    laws = output_laws(eigenvalues, outputs, permutation, occupation_in, w)
    p, p_dist = np.asarray(p, dtype=float), np.asarray(p_dist, dtype=float)
    if p.shape != laws.boson.shape or p_dist.shape != laws.boson.shape:
        raise ValueError(f"need one probability per output: {len(laws.boson)} outputs, "
                         f"{p.shape} and {p_dist.shape} probabilities")
    law = {ParticleType.BOSON: laws.boson, ParticleType.FERMION: laws.fermion}.get(kind, False)
    return VerdictTable(kind, np.asarray(outputs), laws.distributions, laws.boson, p, p_dist,
                        classify_event(law, p, p_dist), laws.fermion, laws.parity)
