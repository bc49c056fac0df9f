"""Degree and maximal-subgroup bounds, each returned as a BoundReport.

Every limit is an exact rational num/den. Whether a computed count meets
it is decided in integers, by comparing computed * den with num, so no
comparison touches floating point or builds a Fraction; the report gives
the limit as the same exact Fraction. The bounds hold for every solvable
group, so a violation here is a bug detector for the lattice code, not a
mathematical event.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple, Optional

from .arith import divisors, factorize, is_prime, require_int, require_prime, split_power
from .core import FiniteGroup, Subgroup
from .errors import CheckFailed, GroupError, GroupTooLarge, NotNormal, NotSolvable, PrimesNotDistinct, TrivialGroup
from .lattice import SubgroupLattice

# lemma_2_3_scan refuses a scan of more checks than this
LEMMA_2_3_MAX_CHECKS = 1_000_000


class BoundReport(NamedTuple):
    """One checked inequality: computed quantity vs exact limit."""

    bound_name: str
    computed: int
    limit: Fraction
    holds: bool
    equality: bool
    equality_condition: Optional[bool] = None


def _make_report(
    name: str,
    computed: int,
    num: int,
    den: int = 1,
    equality_condition: Optional[bool] = None,
) -> BoundReport:
    """The report of computed <= num/den, for den > 0."""
    scaled = computed * den
    return BoundReport(name, computed, Fraction(num, den), scaled <= num, scaled == num, equality_condition)


def _require_solvable(g: FiniteGroup) -> None:
    if not g.is_solvable:
        raise NotSolvable(f"{g.name} is not solvable")


def _require_nontrivial(g: FiniteGroup) -> None:
    if g.order == 1:
        raise TrivialGroup(f"{g.name} is trivial")


def quotient_is_elementary_abelian_2(g: FiniteGroup, h: Subgroup) -> bool:
    """True iff g^2 in H for all g and [g1, g2] in H for all g1, g2.

    No quotient table is built; the commutator condition is equivalent to
    containing the derived subgroup.
    """
    if not h.is_normal:
        raise NotNormal(f"subgroup of order {h.order} is not normal in {g.name}")
    rows = g.table
    mask = h.mask
    if any(not mask >> rows[a][a] & 1 for a in range(g.order)):
        return False
    return g.derived_mask & ~mask == 0


def lemma_2_1(lattice: SubgroupLattice, h) -> BoundReport:
    """Vertex degree of a subgroup of order d is at most d + n/d - 2,
    with equality exactly when H is normal and H and G/H are both
    elementary abelian 2-groups."""
    g = lattice.parent
    _require_solvable(g)
    d = h.order
    n = g.order
    computed = lattice.degree(h)
    limit = d + n // d - 2
    condition = (
        h.is_normal
        and h.is_elementary_abelian_2
        and quotient_is_elementary_abelian_2(g, h)
    )
    report = _make_report("lemma_2_1", computed, limit, equality_condition=condition)
    if report.equality != condition:
        raise CheckFailed(
            f"equality characterization failed for {g.name}, |H|={d}: "
            f"degree {computed}, limit {limit}, condition {condition}"
        )
    return report


def wall_a(lattice: SubgroupLattice) -> BoundReport:
    """|Max(G)| <= |G| - 1."""
    g = lattice.parent
    _require_solvable(g)
    _require_nontrivial(g)
    computed = len(lattice.maximal_subgroups())
    return _make_report("wall_a", computed, g.order - 1)


def cww_b(lattice: SubgroupLattice) -> BoundReport:
    """|Max(G)| <= (|G| - 1)/(p - 1) for p the smallest prime divisor,
    with equality exactly for elementary abelian groups."""
    g = lattice.parent
    _require_solvable(g)
    _require_nontrivial(g)
    computed = len(lattice.maximal_subgroups())
    p = min(factorize(g.order))
    condition = g.is_abelian and is_prime(g.exponent)
    return _make_report("cww_b", computed, g.order - 1, p - 1, condition)


def herzog_manz_c(lattice: SubgroupLattice) -> BoundReport:
    """|Max(G)| <= (q|G/Phi(G)| - p)/(p(q - 1)) for p, q the smallest and
    largest prime divisors."""
    g = lattice.parent
    _require_solvable(g)
    _require_nontrivial(g)
    computed = len(lattice.maximal_subgroups())
    primes = factorize(g.order)
    p, q = min(primes), max(primes)
    frattini_index = g.order // lattice.frattini().order
    return _make_report("herzog_manz_c", computed, q * frattini_index - p, p * (q - 1))


def newton_d(lattice: SubgroupLattice, p: int) -> tuple[BoundReport, ...]:
    """Bounds on |Max_p(G)| for |G| = p^k m with p not dividing m: the
    general limit (p^r-1)/(p-1) + (p^(k-r+1)-p)/(p-1) where p^r is the
    index of the smallest normal subgroup of p-power index, plus the
    sharper limit (p^k-1)/(p-1) as a second report when that normal
    subgroup is proper."""
    g = lattice.parent
    _require_solvable(g)
    require_prime(p)
    if g.order % p != 0:
        raise GroupError(f"{p} does not divide |{g.name}| = {g.order}")
    k, _ = split_power(g.order, p)
    residual = lattice.o_p(p)
    r, _ = split_power(g.order // residual.order, p)
    computed = len(lattice.max_p(p))
    main_limit = p ** r - 1 + p ** (k - r + 1) - p
    reports = [_make_report("newton_d_main", computed, main_limit, p - 1)]
    if residual.order < g.order:
        reports.append(_make_report("newton_d_sharp", computed, p ** k - 1, p - 1))
    return tuple(reports)


def newton_e(lattice: SubgroupLattice) -> BoundReport:
    """|Max(G)| <= (p1^n1 - 1)/(p1 - 1) + sum over the other prime-power
    parts of (p^(n+1) - p)/(p - 1), with p1^n1 the smallest part."""
    g = lattice.parent
    _require_solvable(g)
    _require_nontrivial(g)
    computed = len(lattice.maximal_subgroups())
    parts = sorted((p ** e, p, e) for p, e in factorize(g.order).items())
    part1, p1, _ = parts[0]
    # every term is a geometric sum, so an integer
    limit = (part1 - 1) // (p1 - 1)
    for _, p, e in parts[1:]:
        limit += (p ** (e + 1) - p) // (p - 1)
    return _make_report("newton_e", computed, limit)


def _lemma_2_3_terms(p: int, exponents) -> list[tuple[int, int]]:
    """((p^(e+1) - p)/(p - 1), p^e) for each exponent e: one prime's
    share of the sum and of the product in Lemma 2.3."""
    return [((p ** (e + 1) - p) // (p - 1), p ** e) for e in exponents]


def _lemma_2_3_report(computed: int, prod: int) -> BoundReport:
    twice = 2 * computed
    return BoundReport("lemma_2_3", computed, Fraction(prod, 2), twice <= prod, twice == prod)


def lemma_2_3_check(p1: int, p2: int, p3: int, n1: int, n2: int, n3: int) -> BoundReport:
    """For three distinct primes, sum of (p^(n+1) - p)/(p - 1) is at most
    half the product of the p^n."""
    for p in (p1, p2, p3):
        require_prime(p)
    if len({p1, p2, p3}) != 3:
        raise PrimesNotDistinct(f"primes must be distinct, got {(p1, p2, p3)}")
    for n, name in ((n1, "n1"), (n2, "n2"), (n3, "n3")):
        require_int(n, name, 1)
    (s1, q1), (s2, q2), (s3, q3) = (_lemma_2_3_terms(p, (e,))[0] for p, e in ((p1, n1), (p2, n2), (p3, n3)))
    return _lemma_2_3_report(s1 + s2 + s3, q1 * q2 * q3)


def lemma_2_3_scan(prime_bound: int, exp_bound: int) -> list[BoundReport]:
    """Evaluate the three-prime inequality for every distinct prime triple
    up to prime_bound and every exponent tuple up to exp_bound, in the
    order and with the reports of lemma_2_3_check.

    The scan makes C(k, 3) * exp_bound^3 checks for the k primes up to
    prime_bound. It raises GroupTooLarge, before any check, when that is
    more than LEMMA_2_3_MAX_CHECKS (10^6): the count is updated as each
    prime is listed, so the refusal comes as soon as it passes the budget.
    A scan near the budget holds its reports in memory: 788,900 checks
    peak at about 191 MB in `verify lemma23`, which writes their lines
    one at a time.

    The inputs are checked once, not per check: the primes are listed
    ascending by is_prime, so each triple holds three distinct primes, and
    exp_bound is an int >= 1. Each prime's terms are computed once.
    """
    require_int(exp_bound, "exp_bound", 1)
    per_triple = exp_bound ** 3
    primes: list[int] = []
    for p in range(2, require_int(prime_bound, "prime_bound") + 1):
        if not is_prime(p):
            continue
        primes.append(p)
        k = len(primes)
        checks = k * (k - 1) * (k - 2) // 6 * per_triple
        if checks > LEMMA_2_3_MAX_CHECKS:
            raise GroupTooLarge(
                f"lemma 2.3 scan to prime {prime_bound}, exponent {exp_bound} needs at least "
                f"{checks} checks (primes up to {p}), over the budget of {LEMMA_2_3_MAX_CHECKS}"
            )
    if len(primes) < 3:
        return []
    exponents = range(1, exp_bound + 1)
    terms = {p: _lemma_2_3_terms(p, exponents) for p in primes}
    return [
        _lemma_2_3_report(s1 + s2 + s3, q1 * q2 * q3)
        for p1, p2, p3 in combinations(primes, 3)
        for (s1, q1), (s2, q2), (s3, q3) in product(terms[p1], terms[p2], terms[p3])
    ]


class CandidateOrders(NamedTuple):
    """Divisors d of n that can carry a vertex of degree > n/2 - 1 as the
    order of a maximal subgroup, per the quadratic divisor analysis; n at
    most 11 short-circuits to the small-order case."""

    n: int
    small_case: bool
    divisors: Optional[frozenset[int]]


def candidate_orders(n: int) -> CandidateOrders:
    require_int(n, "n", 1)
    if n <= 11:
        return CandidateOrders(n=n, small_case=True, divisors=None)
    allowed = frozenset(d for d in divisors(n) if 2 * d * d - (n + 2) * d + 2 * n > 0)
    targets = {1, 2, n}
    if n % 2 == 0:
        targets.add(n // 2)
    if not allowed <= targets:
        raise CheckFailed(f"candidate divisors {sorted(allowed)} escape {sorted(targets)} for n={n}")
    return CandidateOrders(n=n, small_case=False, divisors=allowed)


def edge_bound(lattice: SubgroupLattice) -> BoundReport:
    """|E| <= |V|(|G| - 1)/2, from the per-vertex degree bound."""
    g = lattice.parent
    _require_solvable(g)
    computed = lattice.edge_count
    return _make_report("edge_bound", computed, len(lattice) * (g.order - 1), 2)
