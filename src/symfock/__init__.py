"""Exact many-particle transition probabilities through n-mode unitaries and
the permutation-symmetry suppression laws that predict their zeros."""

__version__ = "0.1.0"

from .experiments import PerturbationModel
from .fock import (
    ParticleType,
    enumerate_outputs,
    occupation_to_assignment,
)
from .linalg import (
    determinant,
    permanent_ryser,
)
from .permutations import (
    EigenStructure,
    Permutation,
    RootOfUnity,
    cycle_decompose,
    eigenstructure,
    symmetry_residual,
)
from .scattering import (
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
    fermion_suppressed,
    initial_distribution,
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
    "enumerate_outputs",
    "occupation_to_assignment",
    "determinant",
    "permanent_ryser",
    "EigenStructure",
    "Permutation",
    "RootOfUnity",
    "cycle_decompose",
    "eigenstructure",
    "symmetry_residual",
    "PerturbationModel",
    "prob_boson",
    "prob_distinguishable",
    "prob_fermion",
    "prob_partial",
    "scattering_matrix",
    "EventClass",
    "VerdictTable",
    "boson_suppressed",
    "fermion_suppressed",
    "initial_distribution",
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
