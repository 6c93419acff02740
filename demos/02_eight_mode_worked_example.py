#!/usr/bin/env python3
"""An 8-mode walkthrough: from a permutation to exact suppression verdicts.

Five particles enter eight modes as (1,1,1,0,0,0,1,1), which is invariant
under (1 2 3)(4 5 6)(7 8). Each cycle of length l contributes all l-th
roots of unity to the operator spectrum; reading the eigenvalues of the
occupied output modes then decides suppression by exact fraction
arithmetic. Everything here is integer math until the final probability
check.
"""

from fractions import Fraction

from symfock import (
    ParticleType,
    Permutation,
    UnitarySpec,
    build_unitary,
    cycle_decompose,
    initial_distribution,
    fermion_suppressed,
    occupation_to_assignment,
    output_laws,
    prob_boson,
    prob_fermion,
)
from symfock.fock import output_array

perm = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
r = (1, 1, 1, 0, 0, 0, 1, 1)

print("permutation:", perm.cycle_string())
print("cycles:", cycle_decompose(perm), "order:", perm.order())

# order the diagonal by grouped eigenvalue: 1,1,1, w,w, w^2,w^2, -1
built = build_unitary(UnitarySpec(perm, column_order=(1, 4, 7, 2, 5, 3, 6, 8)))
print("column eigenvalues:", ", ".join(str(v) for v in built.eigenvalues))
print("input:", r, "-> initial distribution",
      [str(v) for v in initial_distribution(perm, r)])
print()

s = (0, 2, 0, 1, 1, 1, 0, 0)
assignment = occupation_to_assignment(s)
laws = output_laws(built.eigenvalues, [s])  # the multiset as counts of each distinct root
final = [v for v, count in zip(laws.roots, laws.root_counts[:, laws.group[0]].tolist())
         for _ in range(count)]
total = sum((Fraction(v.num, v.den) for v in final), Fraction(0)) % 1
print(f"output {s}: assignment list {assignment}")
print("final distribution:", [str(v) for v in final])
print(f"phase sum = {total} of a turn -> "
      f"{'suppressed' if total else 'allowed'} for bosons")
print()

# the verdicts are certificates: exact zeros for every member of the class
rotated = build_unitary(UnitarySpec(perm, rotation_seed=12345,
                                    column_order=(1, 4, 7, 2, 5, 3, 6, 8)))
print("with a randomly rotated degenerate eigenbasis:")
print(f"  P_B{r} -> {s} = {prob_boson(rotated.matrix, r, s):.3e}")

s_fermi = (1, 1, 1, 1, 1, 0, 0, 0)
verdict = fermion_suppressed(perm, r, rotated.eigenvalues, s_fermi)
print(f"  fermionic output {s_fermi}: multisets differ = {verdict},",
      f"P_F = {prob_fermion(rotated.matrix, r, s_fermi):.3e}")

laws = output_laws(built.eigenvalues, output_array(8, 5, ParticleType.BOSON))
boson_zeros = int(laws.columns["boson_suppressed"].sum())
print(f"\nthe law certifies {boson_zeros} of 792 bosonic outputs as exact zeros")
