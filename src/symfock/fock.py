"""Fock-state combinatorics: occupation lists, particle modes, output
enumeration.

An occupation list gives the particle count per mode. :func:`particle_modes`
maps checked occupation rows to the 0-based mode of each particle,
ascending: the input's d(j) and the columns of every scattering matrix.
:func:`lattice_size` is the one count of an output lattice, which
:func:`output_array` holds to :data:`LATTICE_MAX` before it builds one.

:func:`enumerate_outputs` streams the outputs of one particle number as
tuples, the reference order. :func:`lattice` is the one cached table of an
output lattice, and the only source of the terms that the polynomial
expansion of ``scattering`` walks, built one particle number at a time:
the outputs of the top particle number and, for every particle number,
the :class:`Slots` of its outputs (each output's occupied modes, with the
rank in that order of the output with one particle removed there).
:func:`output_array`, the (K, n) outputs that verdict tables and
probability calls take, is the top group of the lattice table itself: the
cached read-only rows in the lattice's smallest unsigned dtype, not a copy;
no output goes through a tuple. :func:`output_rows` is the one conversion
of a caller's outputs into rows: integer arrays pass through in their own
dtype, anything else becomes checked ``intp`` rows.

This module holds the whole occupation contract, one message per rule:
integral entries, no negative entry, at most one fermion per mode (the
first bad row named as :func:`check_occupation` names it), the width
(:func:`require_modes`) and, for an input under a mode permutation, its
invariance (:func:`require_invariant`, which names the broken cycle). The
kernels, the laws, the runners and the command line call these and test
no occupation rule themselves.
"""

from __future__ import annotations

import math
import numbers
import operator
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Iterator, NamedTuple

import numpy as np

from .linalg import RYSER_MAX
from .permutations import Permutation, cycle_decompose

#: Most outputs of one particle number that :func:`output_array` builds a
#: lattice for. The cached table holds 58-92 bytes per top output (the
#: (16, 8) lattice: 34.7 MB for 490 314 outputs) and its build peaks at
#: about 2.5 times that; a boson ``verdicts`` run on the 3 268 760 outputs
#: of 10 particles in 16 modes takes 6 s and 1.5 GB (2-core x86-64 host).
LATTICE_MAX = 1 << 22


class ParticleType(Enum):
    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "dist"

    @classmethod
    def parse(cls, text: str) -> "ParticleType":
        for member in cls:
            if member.value == text or member.name.lower() == text.lower():
                return member
        raise ValueError(f"unknown particle type {text!r}")


def _entry(x) -> int:
    """One occupation entry as an int: an integer or an integral real
    number. Bools, strings and every other value are refused, not
    truncated."""
    if type(x) is int:  # the common case, first; type(True) is bool, not int
        return x
    if not isinstance(x, (bool, np.bool_)):
        try:
            return operator.index(x)
        except TypeError:
            if isinstance(x, numbers.Real) and math.isfinite(x) and x == int(x):
                return int(x)
    raise ValueError(f"occupation entries must be integers, got {x!r}")


def check_occupation(occupation, fermionic: bool = False) -> tuple[int, ...]:
    occ = tuple(map(_entry, occupation))
    if any(x < 0 for x in occ):
        raise ValueError(f"negative occupation in {occ}")
    if fermionic and any(x > 1 for x in occ):
        raise ValueError(f"fermionic occupation exceeds 1 in {occ}")
    return occ


def require_modes(occupation, n: int) -> None:
    """Raise unless the occupation spans exactly ``n`` modes."""
    if len(occupation) != n:
        raise ValueError(f"occupation over {len(occupation)} modes, expected {n}")


def require_invariant(p: Permutation, occupation, fermionic: bool = False) -> tuple[int, ...]:
    """The checked occupation of an input over the modes of ``p``, refused
    with the broken cycle named unless ``p`` leaves it unchanged."""
    occ = check_occupation(occupation, fermionic)
    require_modes(occ, p.n)
    if any(occ[image] != x for image, x in zip(p.image, occ)):
        cycle = next(c for c in cycle_decompose(p) if len({occ[mode - 1] for mode in c}) > 1)
        raise ValueError(f"input state not invariant under cycle {cycle}")
    return occ


def particle_count(occupation) -> int:
    return sum(check_occupation(occupation))


def particle_modes(rows: np.ndarray) -> np.ndarray:
    """The 0-based mode of every particle of K >= 1 checked occupation rows
    of N particles each, ascending: a (K, N) ``intp`` array, mode k repeated
    rows[i, k] times. [[0,2,0,1,1,1,0,0]] -> [[1,1,3,4,5]]."""
    k, n = rows.shape
    return np.repeat(np.tile(np.arange(n), k), rows.ravel()).reshape(k, -1)


def lattice_size(n: int, particles: int, single: bool) -> int:
    """K_N: the C(n+N-1, N) multisets of N particles in n modes, or the
    C(n, N) subsets when ``single``."""
    return math.comb(n, particles) if single else math.comb(n + particles - 1, particles)


def _check_output_count(n: int, particles: int, kind: ParticleType) -> None:
    if n < 1:
        raise ValueError("need at least one mode")
    if particles < 0:
        raise ValueError("negative particle number")
    if kind is ParticleType.FERMION and particles > n:
        raise ValueError(f"cannot place {particles} fermions in {n} modes")


def enumerate_outputs(n: int, particles: int, kind: ParticleType) -> Iterator[tuple[int, ...]]:
    """Stream every output occupation for ``particles`` particles in ``n`` modes.

    Bosons and distinguishable particles range over all multisets,
    C(n+N-1, N) of them; fermions over all 0/1 lists, C(n, N). The order is
    lexicographic in the ascending list of the particles' modes, so it is
    deterministic and duplicate free.
    """
    _check_output_count(n, particles, kind)
    if kind is ParticleType.FERMION:
        assignments = combinations(range(1, n + 1), particles)
    else:
        assignments = combinations_with_replacement(range(1, n + 1), particles)
    # the modes come from range(1, n + 1), so no range check per particle
    for assignment in assignments:
        counts = [0] * n
        for mode in assignment:
            counts[mode - 1] += 1
        yield tuple(counts)


def output_array(n: int, particles: int, kind: ParticleType) -> np.ndarray:
    """Every output of :func:`enumerate_outputs` as one (K, n) array, in its
    order, with the same checks: the top group of the :func:`lattice` table
    itself, read-only, in the smallest unsigned dtype that holds
    ``particles`` and not copied, which probability calls on it then reuse.
    More than :data:`linalg.RYSER_MAX` particles of any kind are refused
    first: every table's distinguishable reference is a permanent of that
    size. Then more than :data:`LATTICE_MAX` outputs are refused, before
    anything of that size is built."""
    _check_output_count(n, particles, kind)
    if particles > RYSER_MAX:
        raise ValueError(f"Ryser permanent limited to n <= {RYSER_MAX}, got {particles}")
    single = kind is ParticleType.FERMION
    size = lattice_size(n, particles, single)
    if size > LATTICE_MAX:
        raise ValueError(f"{size} outputs of {particles} particles in {n} modes exceed "
                         f"the lattice bound of {LATTICE_MAX}")
    return lattice(n, particles, single).top


def output_rows(outputs, n: int, fermionic: bool = False) -> np.ndarray:
    """A list of K outputs as (K, n) integer rows, (0, n) for no output,
    under the whole row contract: integral entries, exactly ``n`` columns,
    no negative entry and, when ``fermionic``, none above 1. A sign or 0/1
    fault names the first bad row as :func:`check_occupation` does. A
    (K, n) array of an integer dtype that casts safely to ``intp`` passes
    through as it is, not copied, so the cached rows of
    :func:`output_array` stay what they are. A list, or an array of any
    other dtype, becomes ``intp`` rows. The caller checks particle numbers;
    arithmetic on the rows must hold in any integer dtype, and may
    accumulate in ``intp``."""
    if not len(outputs):
        return np.zeros((0, n), dtype=np.intp)
    if (isinstance(outputs, np.ndarray) and outputs.dtype.kind in "iu"
            and np.can_cast(outputs.dtype, np.intp)):
        s = outputs if outputs.ndim == 2 else outputs.reshape(len(outputs), -1)
        require_modes(s[0], n)
    else:
        rows = [tuple(map(_entry, row)) for row in outputs]
        for row in rows:  # every row: a list may be ragged
            require_modes(row, n)
        s = np.array(rows, dtype=np.intp)
    # reductions first; the per-row masks only to name the first bad row
    if s.min(initial=0) < 0 or (fermionic and s.max(initial=0) > 1):
        bad = (s < 0) | (s > 1) if fermionic else s < 0
        check_occupation(s[bad.any(axis=1)][0], fermionic)  # raises the usual message
    return s


def _generations(n: int, particles: int, fermionic: bool):
    """The outputs of 1, 2, ..., ``particles`` particles in ``n`` modes, one
    particle number at a time, each in :func:`enumerate_outputs` order, in
    the smallest unsigned dtype that holds ``particles``; with each the
    index ``parent`` of every output among those of one particle fewer, the
    mode ``k`` it adds to that parent, and ``offset``: the rank of the child
    t + e_k of the i-th output t of one particle fewer is offset[i] + k.

    Each group is built from the last: the outputs of d + 1 particles are
    those of d particles, in order, each followed by its children t + e_k
    for every mode k from the last occupied mode of t on (past it for
    fermions), in mode order.
    """
    last = np.zeros((1, n), dtype=np.min_scalar_type(particles))
    first = np.zeros(1, dtype=np.intp)  # lowest mode a child may fill
    for _ in range(particles):
        counts = n - first
        offset = np.cumsum(counts) - counts - first
        parent = np.repeat(np.arange(len(last)), counts)
        k = np.arange(len(parent)) - offset[parent]
        group = last.take(parent, axis=0)
        group[np.arange(len(group)), k] += 1
        yield group, parent, k, offset
        last, first = group, k + fermionic


class Slots(NamedTuple):
    """The outputs of one particle number d of a :func:`lattice` in the form
    the expansion of ``scattering`` walks.

    Both arrays are (S, K) for K outputs, S = min(d, n) slots each. Slot j
    of output t is its j-th occupied mode in ascending order, ``modes[j]``,
    and ``parents[j]`` is the :func:`enumerate_outputs` rank of t - e_k, k
    that mode, among the outputs of d - 1 particles. An output with fewer
    occupied modes than slots (bosons only) ends in padding slots of mode -1
    and parent -1, which the expansion points at zero rows. ``modes`` takes
    the smallest signed dtype that holds n, ``parents`` the smallest that
    holds the number of outputs of d - 1 particles.
    """

    parents: np.ndarray
    modes: np.ndarray


def odd_slots(particles: int) -> np.ndarray:
    """The fermion sign flip of each slot of a 0/1 output of ``particles``
    particles: slot j has particles - 1 - j particles after its mode, and
    the term of its parent changes sign where that number is odd. The same
    for every 0/1 output, which has no padding; a (particles,) mask."""
    return (particles - 1 - np.arange(particles)) % 2 == 1


class Lattice(NamedTuple):
    """The output lattice of 1..N particles in n modes, from :func:`lattice`.

    ``top`` holds the outputs of N particles in :func:`enumerate_outputs`
    order (the one all-zero output for N = 0), in the smallest unsigned
    dtype that holds N, an eighth of the memory of ``intp`` for up to 255
    particles. ``slots`` holds the :class:`Slots` of every
    particle number 1..N, Σ_d min(d, n) * K_d entries against the n * L of
    a dense table of parents. All read-only.
    """

    top: np.ndarray
    slots: tuple[Slots, ...]


@lru_cache(maxsize=4)
def lattice(n: int, particles: int, single: bool) -> Lattice:
    """The :class:`Lattice` of every output of 1..``particles`` particles in
    ``n`` modes, 0/1 outputs only when ``single``. It depends on (n, N,
    single) only, so :func:`output_array`, every basis of a census and
    every particle kind on the same outputs share one table. Only the top
    group of outputs is kept.

    The slots come with the outputs, one particle number at a time: a child
    t + e_k of parent t has the slots of t, whose parents t - e_m become
    t - e_m + e_k, ranked by the ``offset`` of :func:`_generations`, and
    the slot of mode k, whose parent is t: a new slot after those of t,
    unless k is already the last occupied mode of t. So no rank is computed
    from the occupations.
    """
    top = np.zeros((1, n), dtype=np.min_scalar_type(particles))
    slots = []
    # the output of no particles: no slot, no occupied mode
    parents = modes = np.zeros((0, 1), dtype=np.int8)
    used = np.zeros(1, dtype=np.intp)  # occupied modes of each output
    offset_before = last_mode = np.zeros(1, dtype=np.intp)
    for d, (top, parent, k, offset) in enumerate(_generations(n, particles, single)):
        inherited = parents.take(parent, axis=1)  # the ranks of t - e_m
        dtype = np.min_scalar_type(-max(len(used), n) - 1)  # ranks, offsets, -1
        child_parents = np.full((min(d + 1, n), len(parent)), -1, dtype=dtype)
        kept = child_parents[:len(inherited)]
        # into place, with no temporaries: "wrap" reads padding (-1) from
        # the last offset, and the copyto puts it back
        np.take(offset_before.astype(dtype), inherited, out=kept, mode="wrap")
        np.add(kept, k, out=kept, casting="unsafe")
        np.copyto(kept, -1, where=inherited < 0)
        child_modes = np.full(child_parents.shape, -1, dtype=np.min_scalar_type(-n))
        np.take(modes, parent, axis=1, out=child_modes[:len(inherited)], mode="wrap")
        # the slot of mode k: after those of t, or the last of them when t
        # already holds a boson there (its last occupied mode, the k of t)
        slot = used.take(parent)
        if d and not single:
            slot -= k == last_mode.take(parent)
        columns = np.arange(len(parent))
        child_parents[slot, columns] = parent
        child_modes[slot, columns] = k
        for array in (child_parents, child_modes):
            array.flags.writeable = False
        slots.append(Slots(child_parents, child_modes))
        parents, modes, used, offset_before, last_mode = child_parents, child_modes, slot + 1, offset, k
    top.flags.writeable = False
    return Lattice(top, tuple(slots))
