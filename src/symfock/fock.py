"""Fock-state combinatorics: occupation lists, assignment lists, output
enumeration.

An occupation list gives the particle count per mode; the matching
assignment list names the mode of each particle, sorted non-decreasing.
Assignment lists are 1-based like every user-facing mode index.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, combinations_with_replacement
from typing import Iterator


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


def assignment_to_occupation(assignment, n: int) -> tuple[int, ...]:
    """Count particles per mode; inverse of :func:`occupation_to_assignment`."""
    counts = [0] * n
    for mode in assignment:
        if not 1 <= mode <= n:
            raise ValueError(f"mode index {mode} outside 1..{n}")
        counts[mode - 1] += 1
    return tuple(counts)


def enumerate_outputs(n: int, particles: int, kind: ParticleType) -> Iterator[tuple[int, ...]]:
    """Stream every output occupation for ``particles`` particles in ``n`` modes.

    Bosons and distinguishable particles range over all multisets,
    C(n+N-1, N) of them; fermions over all 0/1 lists, C(n, N). The order is
    lexicographic in the assignment list, so it is deterministic and
    duplicate free.
    """
    if n < 1:
        raise ValueError("need at least one mode")
    if particles < 0:
        raise ValueError("negative particle number")
    if kind is ParticleType.FERMION:
        if particles > n:
            raise ValueError(f"cannot place {particles} fermions in {n} modes")
        assignments = combinations(range(1, n + 1), particles)
    else:
        assignments = combinations_with_replacement(range(1, n + 1), particles)
    # the modes come from range(1, n + 1), so no range check per particle
    for assignment in assignments:
        counts = [0] * n
        for mode in assignment:
            counts[mode - 1] += 1
        yield tuple(counts)
