"""Sieve and trial-division pre-pass tests."""

import math
import random

import pytest

import oracles
from rhorace.sieve import BLOCK_SIZE, MEMORY_CAP, PrimeTable, sieve, trial_divide


def test_sieve_tiny_limits():
    assert sieve(0).primes == []
    assert sieve(1).primes == []
    assert sieve(2).primes == [2]
    assert sieve(10).primes == [2, 3, 5, 7]


def test_sieve_thirty():
    assert sieve(30).primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_includes_limit_when_prime():
    assert 97 in sieve(97).primes
    # 25 = 5*5 must be marked even though 5*5 == limit
    assert 25 not in sieve(25).primes


def test_sieve_matches_trial_division_exhaustively():
    primes = set(sieve(10**5).primes)
    for n in range(10**5 + 1):
        assert (n in primes) == oracles.trial_is_prime(n), f"disagreement at {n}"


def test_sieve_prefix_property():
    full = sieve(10**5).primes
    for limit in [0, 1, 2, 3, 10, 97, 541, 1000, 65537, 99991]:
        assert sieve(limit).primes == [p for p in full if p <= limit]


def test_sieve_rejects_bad_limits():
    with pytest.raises(ValueError):
        sieve(-1)
    with pytest.raises(ValueError):
        sieve(MEMORY_CAP + 1)


def test_prime_table_membership():
    table = sieve(100)
    assert 97 in table
    assert 91 not in table
    assert 0 not in table


def test_trial_divide_one():
    table = sieve(100)
    assert trial_divide(1, table) == ({}, 1)


def test_trial_divide_smooth_number(table_1e6):
    assert trial_divide(144, table_1e6) == ({2: 4, 3: 2}, 1)
    assert trial_divide(8051, table_1e6) == ({83: 1, 97: 1}, 1)


def test_trial_divide_leaves_rough_cofactor(table_1e6):
    n = 1000003 * 1000033  # both primes just above the table limit
    assert trial_divide(n, table_1e6) == ({}, n)
    mixed = 2**3 * 1000003
    assert trial_divide(mixed, table_1e6) == ({2: 3}, 1000003)


def test_trial_divide_emits_prime_cofactor_under_limit(table_1e6):
    # After the early break the remainder is prime; when it fits under the
    # table limit it must come back as a factor, not as a cofactor.
    assert trial_divide(999983, table_1e6) == ({999983: 1}, 1)


def test_trial_divide_random_reconstruction(table_1e6):
    rng = random.Random(55)
    small_primes = sieve(10**4).primes
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        factors, cofactor = trial_divide(n, table_1e6)
        prod = cofactor
        for p, k in factors.items():
            assert p in table_1e6
            prod *= p**k
        assert prod == n
        if cofactor > 1:
            for p in small_primes:
                assert cofactor % p != 0


def test_trial_divide_rejects_nonpositive(table_1e6):
    with pytest.raises(ValueError):
        trial_divide(0, table_1e6)


def test_trial_divide_with_empty_table():
    empty = PrimeTable(1, [])
    assert trial_divide(97, empty) == ({}, 97)


def test_prime_table_blocks_cover_the_primes(table_1e6):
    primes = table_1e6.primes
    starts = [start for start, _ in table_1e6.blocks]
    assert starts == list(range(0, len(primes), BLOCK_SIZE))
    for start, product in table_1e6.blocks:
        expected = 1
        for p in primes[start : start + BLOCK_SIZE]:
            expected *= p
        assert product == expected


def test_prime_table_blocks_stay_out_of_repr_and_equality():
    assert PrimeTable(1, []).blocks == []
    table = PrimeTable(10, [2, 3, 5, 7])
    assert table.blocks == [(0, 210)]
    assert "blocks" not in repr(table)
    assert sieve(10) == table
    assert sieve(2000).blocks[-1][0] == BLOCK_SIZE  # 303 primes: a short last block


def _scan_matches(n, table):
    factors, cofactor = trial_divide(n, table)
    expected = oracles.trial_divide_scan(n, table.primes)
    assert (factors, cofactor) == expected, f"n={n}"
    # Same order as a scan in ascending primes.
    assert list(factors) == sorted(factors), f"n={n}"


def test_trial_divide_matches_full_scan_random(table_1e6):
    rng = random.Random(4040)
    primes = table_1e6.primes
    for _ in range(120):
        _scan_matches(rng.randrange(1, 10**40), table_1e6)
    for _ in range(60):
        # smooth part from anywhere in the table times a rough or prime rest
        n = rng.randrange(1, 10**20)
        for _ in range(rng.randint(1, 6)):
            n *= rng.choice(primes) ** rng.randint(1, 4)
        _scan_matches(n, table_1e6)


def test_trial_divide_matches_full_scan_constructed(table_1e6):
    P = table_1e6.primes
    big = 1000003  # prime just above the limit
    last = len(P) - 1
    tail = len(P) - len(P) % BLOCK_SIZE  # first prime of the short last block
    edges = [0, 1, 255, 256, 257, 511, 512, 767, 768, tail - 1, tail, last - 1, last]
    cases = [P[i] for i in edges]
    cases += [P[i] * P[j] for i in edges for j in edges if i <= j]
    cases += [P[i] * big for i in edges]
    cases += [P[i] * P[j] * big**2 for i, j in zip(edges, edges[1:])]
    # high powers, and a prime cofactor under the limit left by the early exit
    cases += [
        2**200,
        3**100 * 999983**5,
        P[255] ** 7 * P[256] ** 3,
        P[511] ** 9 * big,
        2**61 * 3**38 * 5**20 * 7**10 * 999983**3,
        999983**12,
        big**4 * 999979**2,
        999983,
        2 * 999983,
        997 * 999983,
        999979 * 999983,
    ]
    for n in cases:
        _scan_matches(n, table_1e6)


def test_trial_divide_matches_full_scan_partial_last_block():
    table = sieve(2000)
    assert len(table.primes) % BLOCK_SIZE != 0
    rng = random.Random(2000)
    P = table.primes
    cases = list(range(1, 5000))
    cases += [P[i] * P[j] for i in (254, 255, 256, len(P) - 1) for j in range(len(P))]
    cases += [rng.randrange(1, 10**30) for _ in range(300)]
    cases += [P[-1] ** 5, P[-1] * 2003, 1999 * 2003 * 2011, math.prod(P[250:])]
    for n in cases:
        _scan_matches(n, table)
