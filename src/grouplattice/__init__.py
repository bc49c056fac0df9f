"""Finite-group computation engine: subgroup graphs, degree bounds, and
exhaustive verification of degree-threshold classifications.

The names below are imported from their submodule on first access (PEP
562), so `import grouplattice` loads no layer, and a process loads and
compiles only the layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_EXPORTS = {
    "arith": ("abelian_type_list", "divisors", "factorize", "is_prime", "partitions", "primes_upto"),
    "bounds": (
        "BoundReport",
        "CandidateOrders",
        "candidate_orders",
        "cww_b",
        "edge_bound",
        "herzog_manz_c",
        "lemma_2_1",
        "lemma_2_3_check",
        "lemma_2_3_scan",
        "newton_d",
        "newton_e",
        "quotient_is_elementary_abelian_2",
        "wall_a",
    ),
    "classify": (
        "Recognition",
        "VerificationReport",
        "has_large_degree_vertex",
        "recognize",
        "sylow_p_elements_form_subgroup",
        "verify_corollary_1_2",
        "verify_corollary_1_3",
        "verify_theorem_1_1",
        "verify_theorem_A",
        "verify_wall",
    ),
    "core": (
        "DEFAULT_CONSTRUCTION_CAP",
        "FiniteGroup",
        "Subgroup",
        "dumps_group",
        "from_cayley_table",
        "loads_group",
        "quotient_group",
        "read_group",
        "write_group",
    ),
    "errors": (
        "ActionOrderMismatch",
        "CheckFailed",
        "GroupError",
        "GroupTooLarge",
        "InputError",
        "NoIdentity",
        "NoInverse",
        "NotAbelian",
        "NotAssociative",
        "NotAutomorphism",
        "NotCentralInvolution",
        "NotLatinSquare",
        "NotNormal",
        "NotPrime",
        "NotSolvable",
        "NotSubgroup",
        "PrimesNotDistinct",
        "TrivialGroup",
        "UsageError",
    ),
    "families": (
        "CatalogEntry",
        "abelian",
        "alternating",
        "catalog",
        "central_product",
        "cyclic",
        "dicyclic",
        "dihedral",
        "direct_product",
        "elementary_abelian",
        "from_permutation_generators",
        "generalized_dihedral",
        "heisenberg",
        "semidirect",
        "symmetric",
        "trivial",
        "wall_H",
        "wall_S",
        "wall_T",
    ),
    "iso": ("DEFAULT_ISO_CAP", "Isomorphism", "is_isomorphic"),
    "lattice": ("DEFAULT_LATTICE_CAP", "DegreeProfile", "OrbitProfile", "SubgroupLattice", "all_subgroups"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it as a package attribute
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
