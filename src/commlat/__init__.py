"""Commutator multiplications on finite lattices and the types they force.

The package decides, for a finite modular lattice, whether every commutator
multiplication on it is forced to be of abelian, nilpotent, or solvable
type, and whether the lattice has the non-splitting shape tied to
supernilpotency - with exhaustive small-scale oracles validating each
criterion.
"""

from .classify import (
    ForcingReport,
    analyze,
    forces_abelian_type,
    forces_nilpotent_type,
    forces_solvable_type,
    supernilpotency_shape,
)
from .commutator import (
    CommutatorTable,
    SeriesReport,
    construct_pullback,
    construct_splitting,
    construct_sublattice,
    enumerate_commutators,
    largest_commutator,
    residuation,
    series,
)
from .errors import CommlatError, InputError, VerificationError
from .lattice import (
    FiniteLattice,
    LatticeMap,
    LatticePartition,
    SublatticeEmbedding,
    all_congruences,
    congruence_generated,
    is_simple,
    quotient,
)
from .projectivity import (
    JoinIrreducible,
    MeetIrreducible,
    PrimeInterval,
    ProjectivityClasses,
    SplittingPair,
    is_completely_meet_prime,
    join_irreducibles,
    meet_irreducibles,
    projective_ceiling,
    projectivity_classes,
    separating_congruence,
    splitting_pairs,
    two_element_quotient,
)

__version__ = "0.1.0"
