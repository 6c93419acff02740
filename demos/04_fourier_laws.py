#!/usr/bin/env python3
"""The DFT as a special case, and a strictly stronger fermionic test.

The discrete Fourier transform obeys a cyclic mode-shift symmetry, so its
suppression rules drop out of the general framework: for bosons the
eigenvalue-product test reproduces the classic zero-transmission law
exactly, while for fermions the multiset test catches outputs the older
parity criterion misses. At n=8 with a shift of order 2 the witnesses can
be listed and checked against exact determinants.
"""

from symfock import ParticleType
from symfock.experiments import run_fourier_comparison

print("n=6 bosons, shift of order 3, input (1,0,1,0,1,0)")
comparison = run_fourier_comparison(6, 3, (1, 0, 1, 0, 1, 0))
boson = comparison.tables[ParticleType.BOSON]
agree = bool((boson.laws.columns["boson_suppressed"] == (boson.p <= 1e-20)).all())
print(f"  verdict == (permanent vanishes) on all {len(boson)} outputs: {agree}")
counts = comparison.metadata["counts"]
print(f"  fermion counts: multiset law {counts['fermion_new_law']}, "
      f"parity law {counts['fermion_old_law']} (identical sets here)")
print()

print("n=8 fermions, shift of order 2, input (1,0,1,0,1,0,1,0)")
comparison = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0))
counts = comparison.metadata["counts"]
fermion = comparison.tables[ParticleType.FERMION]
laws = fermion.laws  # the eigenvalue multisets as counts of each distinct root
print(f"  multiset law suppresses {counts['fermion_new_law']} of {len(fermion)} outputs")
print(f"  parity law suppresses   {counts['fermion_old_law']}")
print(f"  strictly new: {counts['fermion_new_not_old']}")
rows = {tuple(s): i for i, s in enumerate(fermion.outputs.tolist())}
for witness in map(tuple, comparison.metadata["witnesses"]):
    i = rows[witness]
    column = laws.root_counts[:, laws.group[i]].tolist()
    multiset = [str(v) for v, count in zip(laws.roots, column) for _ in range(count)]
    print(f"    witness {witness}: eigenvalue multiset {multiset}, exact P_F = {fermion.p[i]:.2e}")
print()
print("both witnesses keep the eigenvalue product at +1, which is all the")
print("parity test sees; the multiset test notices the wrong multiplicities")
