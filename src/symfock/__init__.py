"""Exact many-particle transition probabilities through n-mode unitaries and
the permutation-symmetry suppression laws that predict their zeros."""

__version__ = "0.1.0"

from .fock import (
    ParticleType,
    assignment_to_occupation,
    enumerate_outputs,
    occupation_to_assignment,
)
from .linalg import (
    determinant,
    haar_random_unitary,
    is_unitary,
    permanent_naive,
    permanent_ryser,
)
from .permutations import (
    EigenStructure,
    Permutation,
    RootOfUnity,
    cycle_decompose,
    eigenstructure,
    is_invariant,
    operator_matrix,
    symmetry_residual,
)
from .scattering import (
    PerturbationModel,
    perturb_unitary,
    prob_boson,
    prob_distinguishable,
    prob_fermion,
    prob_partial,
    scattering_matrix,
)
from .suppression import (
    EventClass,
    VerdictTable,
    boson_suppressed,
    classify_event,
    fermion_suppressed,
    final_distribution,
    initial_distribution,
    old_fourier_fermion_suppressed,
    output_laws,
    verdict_table,
)
from .unitaries import (
    ConstructedUnitary,
    UnitarySpec,
    UnitaryStack,
    build_unitaries,
    build_unitary,
    fourier_symmetry,
    fourier_unitary,
)

__all__ = [
    "ParticleType",
    "assignment_to_occupation",
    "enumerate_outputs",
    "occupation_to_assignment",
    "determinant",
    "haar_random_unitary",
    "is_unitary",
    "permanent_naive",
    "permanent_ryser",
    "EigenStructure",
    "Permutation",
    "RootOfUnity",
    "cycle_decompose",
    "eigenstructure",
    "is_invariant",
    "operator_matrix",
    "symmetry_residual",
    "PerturbationModel",
    "perturb_unitary",
    "prob_boson",
    "prob_distinguishable",
    "prob_fermion",
    "prob_partial",
    "scattering_matrix",
    "EventClass",
    "VerdictTable",
    "boson_suppressed",
    "classify_event",
    "fermion_suppressed",
    "final_distribution",
    "initial_distribution",
    "old_fourier_fermion_suppressed",
    "output_laws",
    "verdict_table",
    "ConstructedUnitary",
    "UnitarySpec",
    "UnitaryStack",
    "build_unitaries",
    "build_unitary",
    "fourier_symmetry",
    "fourier_unitary",
    "__version__",
]
