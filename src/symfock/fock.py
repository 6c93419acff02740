"""Fock-state combinatorics: occupation lists, assignment lists, output
enumeration.

An occupation list gives the particle count per mode; the matching
assignment list names the mode of each particle, sorted non-decreasing.
Assignment lists are 1-based like every user-facing mode index.

:func:`enumerate_outputs` streams the outputs of one particle number as
tuples, the reference order. :func:`outputs_up_to` and
:func:`removal_ranks` are its array forms: every output of each particle
number up to a bound as one array, and where each output with one particle
removed sits among the outputs of one particle fewer, by its rank in that
order. :func:`lattice` is the one cached table of
an output lattice that the polynomial expansion of ``scattering`` walks:
the outputs of the top particle number and the parents of every output of
every particle number, from one :func:`outputs_up_to` run.
:func:`output_array`, the (K, n) outputs that verdict tables and
probability calls take, is the top group of that table; no output goes
through a tuple.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Iterator, NamedTuple

import numpy as np


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


def check_occupation(occupation, fermionic: bool = False) -> tuple[int, ...]:
    occ = tuple(int(x) for x in occupation)
    if any(x < 0 for x in occ):
        raise ValueError(f"negative occupation in {occ}")
    if fermionic and any(x > 1 for x in occ):
        raise ValueError(f"fermionic occupation exceeds 1 in {occ}")
    return occ


def particle_count(occupation) -> int:
    return sum(check_occupation(occupation))


def occupation_to_assignment(occupation) -> tuple[int, ...]:
    """Expand an occupation list into the sorted per-particle mode list.

    (0,2,0,1,1,1,0,0) -> (2,2,4,5,6).
    """
    occ = check_occupation(occupation)
    return tuple(
        mode for mode, count in enumerate(occ, start=1) for _ in range(count)
    )


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
    lexicographic in the assignment list, so it is deterministic and
    duplicate free.
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
    order, with the same checks: a fresh copy of the top group of the
    :func:`lattice` table, which probability calls on it then reuse."""
    _check_output_count(n, particles, kind)
    return lattice(n, particles, kind is ParticleType.FERMION).top.astype(np.intp)


def outputs_up_to(n: int, particles: int, fermionic: bool = False) -> tuple[np.ndarray, list[int]]:
    """Every output of 1, 2, ..., ``particles`` particles in ``n`` modes as one
    (L, n) array, grouped by particle number, each group in
    :func:`enumerate_outputs` order; with the start of each group (and L).
    The array takes the smallest unsigned dtype that holds ``particles``,
    an eighth of the memory of ``intp`` for up to 255 particles.

    Each group is built from the last: the outputs of d + 1 particles are
    those of d particles, in order, each followed by its children t + e_k
    for every mode k from the last occupied mode of t on (past it for
    fermions), in mode order.
    """
    sizes = [comb(n, d) if fermionic else comb(n + d - 1, d) for d in range(1, particles + 1)]
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + size)
    dtype = np.min_scalar_type(particles)
    occ = np.zeros((starts[-1], n), dtype=dtype)
    last = np.zeros((1, n), dtype=dtype)
    first = np.zeros(1, dtype=np.intp)  # lowest mode a child may fill
    for d in range(particles):
        counts = n - first
        parent = np.repeat(np.arange(len(last)), counts)
        k = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent] + first[parent]
        group = occ[starts[d]:starts[d + 1]]
        np.take(last, parent, axis=0, out=group)
        group[np.arange(len(group)), k] += 1
        last, first = group, k + fermionic
    return occ, starts


@lru_cache(maxsize=32)
def _rank_terms(n: int, top: int, fermionic: bool) -> np.ndarray:
    """term(m, R) of :func:`removal_ranks` for R = 0..top, flattened by mode."""
    if fermionic:
        table = [[comb(n - 1 - m, x - 1) if x else 0 for x in range(top + 1)] for m in range(n)]
    else:
        table = [[comb(n - 2 - m + x, x - 1) if x else 0 for x in range(top + 1)] for m in range(n)]
    flat = np.array(table, dtype=np.int64).ravel()
    flat.flags.writeable = False
    return flat


def removal_ranks(outputs, fermionic: bool = False) -> np.ndarray:
    """Where each output with one particle removed sits among the outputs of
    one particle fewer.

    ``outputs`` is a (K, n) array of occupations (0/1 for ``fermionic``),
    of one or several particle numbers. Returns the (K, n) int64 array whose
    entry (i, k) is the :func:`enumerate_outputs` rank of s_i - e_k among
    the outputs of its particle number, or -1 where mode k of s_i is empty.

    No loop over outputs. The rank of t is sum_m term(m, R_m, t_m), with R_m
    the particles in the modes after m and term the number of outputs that
    agree with t before mode m and put more particles on it: C(n-2-m+R, R-1)
    for bosons; for fermions C(n-1-m, R-1) on an empty mode and 0 on an
    occupied one. Removing a particle from mode k lowers R_m by one for
    every m < k and t_k by one.
    """
    s = np.array(np.asarray(outputs).T, dtype=np.int64, order="C")  # (n, K): one row per mode
    n = len(s)
    after = np.zeros_like(s)  # R_m; running sums over rows beat cumsum here
    for m in range(n - 2, -1, -1):
        np.add(after[m + 1], s[m + 1], out=after[m])
    top = int((after[0] + s[0]).max(initial=0))
    flat = _rank_terms(n, top, fermionic)
    index = after + (top + 1) * np.arange(n)[:, None]  # of term(m, R_m) in flat
    here = flat.take(index)
    # for the emptied mode k, here is term(k, R_k, t_k - 1)
    step = flat.take(index - 1) - here  # term(m, R_m - 1) - term(m, R_m); wraps only where unused
    if fermionic:
        empty = 1 - s
        step *= empty
        total = (here * empty).sum(axis=0)
    else:
        total = here.sum(axis=0)
    ranks = np.empty_like(s)  # rank(t - e_k) = total + sum_{m<k} step_m (+ here_k, fermions)
    ranks[0] = total
    for m in range(1, n):
        np.add(ranks[m - 1], step[m - 1], out=ranks[m])
    if fermionic:
        ranks += here
    np.copyto(ranks, -1, where=s == 0)
    return ranks.T


def odd_after(outputs: np.ndarray) -> np.ndarray:
    """(n, K) mask of an odd number of particles after mode k, for a (K, n)
    array of 0/1 outputs: the sign of a fermion's parent in the expansion."""
    after = outputs[:, ::-1].cumsum(axis=1)[:, ::-1] - outputs
    return (after % 2 == 1).T


#: Outputs per block while :func:`lattice` ranks its rows, so the int64
#: temporaries of :func:`removal_ranks` stay small.
_RANK_BLOCK = 512


class Lattice(NamedTuple):
    """The output lattice of 1..N particles in n modes, from :func:`lattice`.

    ``top`` holds the outputs of N particles in :func:`enumerate_outputs`
    order (the one all-zero output for N = 0), in the dtype of
    :func:`outputs_up_to`. ``starts`` gives the first row of each particle number 1..N in
    the lattice, and its size L. ``parents`` is the (n, L) array of
    :func:`removal_ranks`, transposed, and ``odd`` the (n, L) masks of
    :func:`odd_after` for a 0/1 lattice ((n, 0) otherwise). All read-only.
    """

    top: np.ndarray
    starts: tuple[int, ...]
    parents: np.ndarray
    odd: np.ndarray

    @property
    def particles(self) -> int:
        return len(self.starts) - 1


@lru_cache(maxsize=4)
def lattice(n: int, particles: int, single: bool) -> Lattice:
    """The :class:`Lattice` of every output of 1..``particles`` particles in
    ``n`` modes, 0/1 outputs only when ``single``: one
    :func:`outputs_up_to` run, ranked in blocks. It depends on (n, N,
    single) only, so :func:`output_array`, every basis of a census and
    every particle kind on the same outputs share one table. Only the top
    group of outputs is kept; the parents take the smallest signed dtype
    that holds the lattice size."""
    occ, starts = outputs_up_to(n, particles, single)
    parents = np.empty((n, len(occ)), dtype=np.min_scalar_type(-len(occ) - 1))
    odd = np.empty((n, len(occ) if single else 0), dtype=bool)
    for start in range(0, len(occ), _RANK_BLOCK):
        t = occ[start:start + _RANK_BLOCK]
        parents[:, start:start + _RANK_BLOCK] = removal_ranks(t, single).T
        if single:
            odd[:, start:start + _RANK_BLOCK] = odd_after(t)
    top = occ[starts[-2]:].copy() if particles else np.zeros((1, n), dtype=occ.dtype)
    for array in (top, parents, odd):
        array.flags.writeable = False
    return Lattice(top, tuple(starts), parents, odd)
