"""Number-theory helpers."""

import pytest
from hypothesis import given, strategies as st

from grouplattice.arith import (
    abelian_type_list,
    divisors,
    factorize,
    is_prime,
    partitions,
    primes_upto,
    require_prime,
    split_power,
)
from grouplattice.errors import NotPrime


@given(st.integers(1, 10_000), st.sampled_from([2, 3, 5, 7]))
def test_split_power(n, p):
    e, m = split_power(n, p)
    assert p ** e * m == n and m % p != 0


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_require_prime_accepts_and_rejects():
    require_prime(2)
    require_prime(31)
    with pytest.raises(NotPrime):
        require_prime(1)
    with pytest.raises(NotPrime):
        require_prime(36)


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_primes_upto():
    assert primes_upto(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert primes_upto(1) == []


def test_partitions_of_four():
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_abelian_type_list_order_eight():
    assert abelian_type_list(8) == [(2, 2, 2), (2, 4), (8,)]


def test_abelian_type_list_order_twelve():
    # cyclic factor lists up to isomorphism, prime-power parts ascending
    assert abelian_type_list(12) == [(2, 2, 3), (3, 4)]
    assert abelian_type_list(1) == [()]


@given(st.integers(min_value=1, max_value=3000))
def test_factorize_reconstructs(n):
    total = 1
    for p, k in factorize(n).items():
        assert is_prime(p)
        total *= p**k
    assert total == n


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_divide_and_are_complete(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert all(n % d == 0 for d in ds)
    assert set(ds) == {d for d in range(1, n + 1) if n % d == 0}


@given(st.integers(min_value=2, max_value=500))
def test_prime_iff_two_divisors(n):
    assert is_prime(n) == (len(divisors(n)) == 2)
