"""Small integer helpers: primality, factorization, partitions.

Everything here operates on group orders, which stay in the low thousands,
so trial division is plenty.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import GroupError, NotPrime


def is_prime(n: int) -> bool:
    """Trial-division primality test of an int."""
    if type(n) is not int:
        require_int(n, "n")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_int(value, name: str, least: int | None = None) -> int:
    """Return value, raising GroupError, which names the parameter, unless
    it is an int (not a bool or a float) and at least least."""
    if type(value) is not int:
        raise GroupError(f"{name} must be an integer, got {value!r:.40}")
    if least is not None and value < least:
        raise GroupError(f"{name} must be >= {least}, got {value}")
    return value


def require_prime(p: int) -> int:
    """Return p, raising NotPrime if it is not a prime int."""
    if type(p) is not int or not is_prime(p):
        raise NotPrime(f"{p!r:.40} is not prime")
    return p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, keys ascending."""
    require_int(n, "n", 1)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def split_power(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p^e * m and p not dividing m, for n >= 1."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    require_int(n, "n", 1)
    small = [d for d in range(1, math.isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def divisor_lists(limit: int) -> list[list[int]]:
    """divisors(n) at index n for each 1 <= n <= limit (index 0 empty),
    from one sieve: each d is appended to the lists of its multiples."""
    require_int(limit, "limit", 0)
    out: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in out[d::d]:
            multiple.append(d)
    return out


def primes_upto(n: int) -> list[int]:
    """All primes <= n, ascending."""
    require_int(n, "n")
    return [p for p in range(2, n + 1) if is_prime(p)]


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of k as descending tuples, lexicographically descending.

    partitions(0) is ((),): the single empty partition.
    """
    if k == 0:
        return ((),)
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(k, k, ())
    return tuple(out)


def abelian_type_list(n: int) -> list[tuple[int, ...]]:
    """Isomorphism types of abelian groups of order n.

    Each type is a tuple of prime-power cyclic factor orders, sorted
    ascending, one tuple per type. Types are returned sorted.
    """
    types: list[list[int]] = [[]]
    for p, e in factorize(n).items():
        grown = []
        for lam in partitions(e):
            factors = [p ** part for part in lam]
            for base in types:
                grown.append(base + factors)
        types = grown
    result = sorted(tuple(sorted(t)) for t in types)
    return result
