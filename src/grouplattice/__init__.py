"""Finite-group computation engine: subgroup graphs, degree bounds, and
exhaustive verification of degree-threshold classifications."""

from .arith import abelian_type_list, divisors, factorize, is_prime, partitions, primes_upto
from .bounds import (
    BoundReport,
    CandidateOrders,
    candidate_orders,
    cww_b,
    edge_bound,
    herzog_manz_c,
    lemma_2_1,
    lemma_2_3_check,
    lemma_2_3_scan,
    newton_d,
    newton_e,
    wall_a,
)
from .classify import (
    FamilyTag,
    Recognition,
    VerificationReport,
    has_large_degree_vertex,
    recognize,
    verify_corollary_1_2,
    verify_corollary_1_3,
    verify_theorem_1_1,
    verify_theorem_A,
    verify_wall,
)
from .core import (
    DEFAULT_CONSTRUCTION_CAP,
    FiniteGroup,
    Subgroup,
    coset_indices,
    dumps_group,
    from_cayley_table,
    from_permutation_generators,
    loads_group,
    quotient_group,
    quotient_is_elementary_abelian_2,
    read_group,
    sylow_p_elements_form_subgroup,
    write_group,
)
from .errors import (
    ActionOrderMismatch,
    CheckFailed,
    GroupError,
    GroupTooLarge,
    InputError,
    NoIdentity,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotAutomorphism,
    NotCentralInvolution,
    NotLatinSquare,
    NotNormal,
    NotPrime,
    NotSolvable,
    NotSubgroup,
    PrimesNotDistinct,
    TrivialGroup,
    UsageError,
)
from .families import (
    CatalogEntry,
    abelian,
    alternating,
    catalog,
    central_product,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_dihedral,
    heisenberg,
    semidirect,
    semidirect_C2,
    symmetric,
    trivial,
    wall_H,
    wall_S,
    wall_T,
)
from .iso import DEFAULT_ISO_CAP, Isomorphism, is_isomorphic
from .lattice import DEFAULT_LATTICE_CAP, DEFAULT_MAX_SUBGROUPS, DegreeProfile, SubgroupLattice, all_subgroups

__version__ = "0.1.0"
