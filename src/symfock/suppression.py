"""Algebraic suppression predicates and event classification.

Given the eigenvalue attached to each column of a symmetry-built unitary,
an output configuration maps to the multiset of eigenvalues of its occupied
modes. Two exact tests follow:

* bosons:   the product of that multiset differs from 1
* fermions: the multiset differs from the one fixed by the input

Either verdict certifies a transition probability of exactly zero for every
member of the unitary class. No float ever enters a verdict:
:func:`output_laws` decides every law for a whole (K, n) array of outputs
with int64 arithmetic only. The laws are one ordered mapping from the
verdict-CSV column name to its boolean column, decided here and read by
name everywhere else: ``boson_suppressed`` always, ``fermion_suppressed``
with a permutation and an input, and ``old_fermion_suppressed`` (the legacy
DFT parity law) with a parity witness.

* Phases as integers. With L the lcm of the eigenvalue denominators, the
  eigenvalue num/den is k = num * L / den L-ths of a turn, so the
  eigenvalue product over an output is exactly sum_c k_c * counts[c] mod L
  L-ths of a turn. The boson law is that number != 0; the legacy DFT
  parity law compares it with (-1)^w, which is 0 or L/2.
* Multisets as counts. A (D, K) array, one row add per mode, counts how
  often each output picks each of the D sorted distinct eigenvalues; equal
  multisets have equal columns, and the fermion law compares each column
  with the input's. With R = N + 1, the key size * R^D - sum_c counts[c] *
  R^(D-1-c) orders them by particle number, then in
  :func:`fock.enumerate_outputs` order. One int64 product with the counts
  gives the phase sums, another the key digits; one sort of the keys groups
  the columns. Each group keeps its count column and each row its group's
  index; no tuple of roots is built.

Both are exact while no sum leaves int64: a phase sum is below N * L for N
particles, so :func:`output_laws` refuses N * L >= 2^63 up front. A key is
below R^(D+1); where that reaches 2^63 (some 20 distinct eigenvalues and
particles) ``unique`` over the rows of (size, -counts) groups the columns
in the same order. The one-output predicates compute the law columns
only: no key digits, sort or groups.

:func:`verdict_table` makes every verdict table: it joins the
:class:`OutputLaws` of some outputs with their probabilities and classifies
every row at once, by the law column its particle kind names, into a
column-oriented :class:`VerdictTable`. Tables of the same outputs share
one :class:`OutputLaws`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import lcm

import numpy as np

from .fock import ParticleType, output_rows, require_invariant
from .permutations import Permutation, RootOfUnity

#: Probabilities below this are treated as zero when classifying events.
CLASSIFY_TOL = 1e-10

#: Multiset of eigenvalues, canonically sorted by phase fraction.
EigenvalueDistribution = tuple[RootOfUnity, ...]

#: Phase sums must stay below this, so int64 holds them exactly.
_INT64_LIMIT = 1 << 63


def _as_roots(values) -> tuple[RootOfUnity, ...]:
    values = tuple(values)
    for v in values:
        if not isinstance(v, RootOfUnity):
            raise TypeError(f"expected RootOfUnity entries, got {type(v).__name__}")
    return values


def initial_distribution(p: Permutation, occupation_in) -> EigenvalueDistribution:
    """Eigenvalue multiset fixed by a fermionic input: every populated cycle
    of length l contributes all l-th roots of unity.

    Requires single occupancy and invariance, which together force each cycle
    to be entirely filled or entirely empty.
    """
    r = require_invariant(p, occupation_in, fermionic=True)
    values: list[RootOfUnity] = []
    for cycle in p.cycles0():
        if r[cycle[0]]:
            values.extend(RootOfUnity(k, len(cycle)) for k in range(len(cycle)))
    return tuple(sorted(values))


@dataclass(frozen=True)
class OutputLaws:
    """Law verdicts for K outputs, one entry per output row.

    The distinct eigenvalue multisets of the outputs are kept as counts:
    ``roots`` holds the D sorted distinct roots and column g of the (D, G)
    ``root_counts`` how often multiset g holds each, and ``group`` each
    output's index into the G multisets, so row i's multiset holds
    ``root_counts[c, group[i]]`` of ``roots[c]``. ``columns`` maps each
    law's verdict-CSV column name to its boolean column, in this order:
    ``boson_suppressed`` always, then ``fermion_suppressed`` when a
    permutation and an input were given, then ``old_fermion_suppressed``
    (the legacy DFT parity law) when a witness ``w`` was.
    """

    roots: tuple[RootOfUnity, ...]
    root_counts: np.ndarray
    group: np.ndarray
    columns: dict[str, np.ndarray]


def _law_columns(eigenvalues, outputs, permutation: Permutation | None = None,
                 occupation_in=None, w: int | None = None) -> tuple:
    """:func:`output_laws` without its grouping, all that a one-output
    predicate reads: the law columns by name, then the sorted distinct
    roots, their (D, K) counts and the particle numbers."""
    values = _as_roots(eigenvalues)
    n = len(values)
    s = output_rows(outputs, n, fermionic=permutation is not None)
    initial: EigenvalueDistribution = ()
    if (permutation is None) != (occupation_in is None):
        raise ValueError("the fermion law needs both the permutation and the input occupation")
    if permutation is not None:
        if permutation.n != n:
            raise ValueError(f"permutation over {permutation.n} modes but {n} eigenvalues")
        initial = initial_distribution(permutation, occupation_in)

    turn = lcm(*(v.den for v in values))  # L: phases count in L-ths of a turn
    sight: dict[RootOfUnity, int] = {}  # each root hashed once, in order of first sight
    sighted = [sight.setdefault(v, len(sight)) for v in (*values, *initial)]
    seen = list(sight)
    by_value = sorted(range(len(seen)), key=seen.__getitem__)
    distinct = [seen[i] for i in by_value]
    row = sorted(range(len(seen)), key=by_value.__getitem__)  # by order of sight
    counts = np.zeros((len(seen), len(s)), dtype=np.int64)  # (D, K)
    views = list(counts)  # so that each row add is one ufunc call
    for i, modes in zip(sighted, s.T):  # the input's values come last
        views[row[i]] += modes
    sizes = counts.sum(axis=0)
    n_particles = int(sizes.max(initial=0))
    if max(n_particles, 1) * turn >= _INT64_LIMIT:
        raise ValueError(f"phase sums overflow int64: {n_particles} particles times "
                         f"lcm of eigenvalue denominators {turn} >= 2^63")
    # the output's eigenvalue product, exactly: one product of int64 weights
    phase = (np.array([v.num * (turn // v.den) for v in distinct], dtype=np.int64) @ counts) % turn
    columns = {"boson_suppressed": phase != 0}
    if permutation is not None:
        initial_counts = np.bincount([row[i] for i in sighted[n:]], minlength=len(distinct))
        columns["fermion_suppressed"] = (counts != initial_counts[:, None]).any(axis=0)
    if w is not None:
        # (-1)^w is 0 or half a turn; an odd L never reaches half a turn
        target = 0 if w % 2 == 0 else (turn // 2 if turn % 2 == 0 else -1)
        columns["old_fermion_suppressed"] = phase != target
    return columns, tuple(distinct), counts, sizes


def output_laws(eigenvalues, outputs, permutation: Permutation | None = None,
                occupation_in=None, w: int | None = None) -> OutputLaws:
    """Decide the suppression laws for every row of a (K, n) output array.

    Always gives the boson law and the eigenvalue distributions. With the
    symmetry ``permutation`` (over as many modes as there are eigenvalues)
    and the fermionic ``occupation_in`` it also gives the fermion law (the
    outputs must then be singly occupied); with the parity witness ``w``
    (:func:`transposition_count`) the legacy DFT law. Everything is checked
    once, here; the arithmetic is int64 only.
    """
    columns, roots, counts, sizes = _law_columns(eigenvalues, outputs, permutation,
                                                 occupation_in, w)
    # one group per distinct count column, fewer particles first, then in
    # enumerate_outputs order (the most of the smallest value first)
    radix, depth = int(sizes.max(initial=0)) + 1, len(roots)
    if radix ** (depth + 1) < _INT64_LIMIT:  # one argsort: np.unique costs more at any size
        digits = np.array([radix ** (depth - 1 - c) for c in range(depth)], dtype=np.int64)
        key = sizes * radix ** depth - digits @ counts
        order = np.argsort(key)
        ordered = key[order]
        new = np.ones(len(key), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        first = order[new]
        group = np.empty(len(key), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
    else:
        _, first, group = np.unique(np.vstack([sizes, -counts]).T, axis=0,
                                    return_index=True, return_inverse=True)
    return OutputLaws(roots, counts[:, first], group.ravel(), columns)


def boson_suppressed(eigenvalues, occupation_out) -> bool:
    """True iff the eigenvalue product over the output differs from 1,
    certifying an exactly vanishing bosonic probability."""
    return bool(_law_columns(eigenvalues, [occupation_out])[0]["boson_suppressed"][0])


def fermion_suppressed(p: Permutation, occupation_in, eigenvalues, occupation_out) -> bool:
    """True iff the output eigenvalue multiset differs from the input one,
    certifying an exactly vanishing fermionic probability."""
    columns = _law_columns(eigenvalues, [occupation_out], p, occupation_in)[0]
    return bool(columns["fermion_suppressed"][0])


def transposition_count(p: Permutation, occupation_in) -> int:
    """Parity witness w for the legacy DFT law: particle number minus the
    number of populated cycles, i.e. the transpositions needed to realise the
    permutation restricted to the occupied modes."""
    r = require_invariant(p, occupation_in, fermionic=True)
    populated = sum(1 for cycle in p.cycles0() if r[cycle[0]])
    return sum(r) - populated


class EventClass(Enum):
    """Empirical event classes: IV is transmitted; I and II vanish through
    single-particle dynamics (II law-predicted, I not); III vanishes through
    genuine many-particle interference."""

    ALLOWED = "IV"
    CLASS_I = "I"
    CLASS_II = "II"
    CLASS_III = "III"


#: Event classes by their codes, the members' places in :class:`EventClass`.
_CLASS_BY_CODE = np.array(list(EventClass), dtype=object)


def _class_codes(law_suppressed, p_particle, p_dist) -> np.ndarray:
    """The int8 code of each event's class, arrays and scalars broadcast.

    Law-suppressed events split on the distinguishable probability: above
    :data:`CLASSIFY_TOL` the vanishing needs many-particle interference (III),
    below it the single-particle dynamics already forbids the event (II).
    Events that vanish for both the coherent and the distinguishable case
    without a law verdict are class I; everything else is transmitted (IV).
    """
    p_dist = np.asarray(p_dist)
    return np.where(law_suppressed, np.where(p_dist > CLASSIFY_TOL, 3, 2), np.where(
        (np.asarray(p_particle) <= CLASSIFY_TOL) & (p_dist <= CLASSIFY_TOL), 1, 0)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class VerdictTable:
    """Verdicts of K outputs for one particle kind, one array per column.

    ``outputs`` is the (K, n) occupation array, the checked rows of
    :func:`fock.output_rows`: for outputs from :func:`fock.output_array`,
    the cached read-only lattice rows in their own dtype. ``laws`` is their
    :class:`OutputLaws`: the distinct eigenvalue multisets, each row's
    index into them and the law columns by name, which tables of the same
    outputs share. ``p`` is the kind's probability, which for
    distinguishable particles is ``p_dist``; ``codes`` holds each row's
    class as its int8 place in :class:`EventClass`, and ``classes`` the
    member.
    """

    kind: ParticleType
    outputs: np.ndarray
    laws: OutputLaws
    p: np.ndarray
    p_dist: np.ndarray
    codes: np.ndarray

    @property
    def classes(self) -> np.ndarray:
        """Each row's :class:`EventClass`, as an object array."""
        return _CLASS_BY_CODE[self.codes]

    def __len__(self) -> int:
        return len(self.outputs)


def verdict_table(laws: OutputLaws, outputs, kind: ParticleType, p, p_dist) -> VerdictTable:
    """The verdict table of a (K, n) output array for one particle kind.

    ``laws`` is the :func:`output_laws` of ``outputs``. ``p`` and ``p_dist``
    hold each output's probability for ``kind`` and for distinguishable
    particles (a distinguishable table passes ``p_dist`` twice). Fermion
    tables, and only they, carry law columns beyond ``boson_suppressed``:
    the fermion law, which they need, and the legacy DFT law, which they
    may have. Each class follows from the row's probabilities and the law
    column that decides ``kind`` (none for distinguishable particles).
    """
    if kind is ParticleType.FERMION:
        if "fermion_suppressed" not in laws.columns:
            raise ValueError(f"a fermion table needs fermion_suppressed, got {list(laws.columns)}")
    elif len(laws.columns) > 1:
        raise ValueError("boson and distinguishable tables carry only boson_suppressed, "
                         f"got {list(laws.columns)}")
    # the table keeps the checked rows, every one as wide as the first
    outputs = output_rows(outputs, np.shape(outputs[:1])[-1], kind is ParticleType.FERMION)
    p, p_dist = np.asarray(p, dtype=float), np.asarray(p_dist, dtype=float)
    rows = laws.columns["boson_suppressed"].shape
    if len(outputs) != rows[0]:
        raise ValueError(f"need the laws of the outputs: {rows[0]} law rows, {len(outputs)} outputs")
    if p.shape != rows or p_dist.shape != rows:
        raise ValueError(f"need one probability per output: {rows[0]} outputs, "
                         f"{p.shape} and {p_dist.shape} probabilities")
    # the law column that decides the class: none for distinguishable particles
    name = {ParticleType.BOSON: "boson_suppressed", ParticleType.FERMION: "fermion_suppressed"}
    law = laws.columns[name[kind]] if kind in name else False
    return VerdictTable(kind, outputs, laws, p, p_dist, _class_codes(law, p, p_dist))
