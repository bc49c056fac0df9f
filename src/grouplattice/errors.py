"""Exception types raised by group construction and analysis.

Every exception carries a concrete witness in its message (the offending
row, element, or value) so failures are diagnosable without a debugger.
"""


class GroupError(Exception):
    """Base class for all errors raised by this package."""


class NotLatinSquare(GroupError):
    """A Cayley table row or column repeats or omits an element."""


class NotAssociative(GroupError):
    """A Cayley table violates (a*b)*c == a*(b*c) somewhere."""


class NoIdentity(GroupError):
    """A Cayley table has no two-sided identity element."""


class NoInverse(GroupError):
    """Some element of a Cayley table has no two-sided inverse."""


class GroupTooLarge(GroupError):
    """A construction or search exceeded its configured size cap."""


class NotAbelian(GroupError):
    """An abelian group was required but the argument is not abelian."""


class NotAutomorphism(GroupError):
    """A claimed automorphism is not a bijective homomorphism."""


class ActionOrderMismatch(GroupError):
    """A semidirect-product action does not have the required order."""


class NotCentralInvolution(GroupError):
    """A central product identification point is not a central involution."""


class NotSubgroup(GroupError):
    """A claimed member set is not a subgroup of its parent group."""


class NotNormal(GroupError):
    """A quotient was requested by a non-normal subgroup."""


class NotSolvable(GroupError):
    """A bound or verifier defined only for solvable groups got a
    non-solvable argument."""


class TrivialGroup(GroupError):
    """An operation is undefined on the trivial group."""


class PrimesNotDistinct(GroupError):
    """A squarefree-support check received repeated primes."""


class NotPrime(GroupError):
    """A prime parameter is not prime."""


class CheckFailed(Exception):
    """A checked mathematical statement or internal invariant does not hold:
    a counterexample or a bug, never bad input. Raised explicitly, so the
    check also runs under python -O."""


class UsageError(Exception):
    """Bad command-line arguments: unknown command, wrong arity, bad flag."""


class InputError(Exception):
    """Unreadable or malformed input file."""
