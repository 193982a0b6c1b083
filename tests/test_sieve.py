"""Sieve and trial-division pre-pass tests."""

import math
import random

import pytest

import oracles
from rhorace.sieve import BLOCK_SIZE, CHUNK_BITS, MEMORY_CAP, PrimeTable, sieve, trial_divide


def test_sieve_tiny_limits():
    assert sieve(0).primes == []
    assert sieve(1).primes == []
    assert sieve(2).primes == [2]
    assert sieve(3).primes == [2, 3]
    assert sieve(4).primes == [2, 3]
    assert sieve(5).primes == [2, 3, 5]
    assert sieve(6).primes == [2, 3, 5]
    assert sieve(7).primes == [2, 3, 5, 7]
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
    assert 97 in table.primes
    assert 91 not in table.primes
    assert 0 not in table.primes


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
            assert p in table_1e6.primes
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


def _table_with_a_short_last_block():
    table = sieve(25000)  # 2762 primes: one full block and a short one
    assert BLOCK_SIZE < len(table.primes) < 2 * BLOCK_SIZE
    return table


def test_prime_table_blocks_cover_the_primes(table_1e6):
    for table in (_table_with_a_short_last_block(), table_1e6):
        primes = table.primes
        assert len(primes) % BLOCK_SIZE != 0
        starts = [start for start, _ in table.blocks]
        assert starts == list(range(0, len(primes), BLOCK_SIZE))
        assert table.width == max(len(chunks) for _, chunks in table.blocks)
        for start, chunks in table.blocks:
            expected = 1
            for p in primes[start : start + BLOCK_SIZE]:
                expected *= p
            assert all(0 <= c < 2**CHUNK_BITS for c in chunks[:-1])
            reassembled = 0
            for c in reversed(chunks):
                reassembled = (reassembled << CHUNK_BITS) + c
            assert reassembled == expected


def test_prime_table_blocks_stay_out_of_repr_and_equality():
    assert PrimeTable(1, []).blocks == []
    assert PrimeTable(1, []).width == 0
    table = PrimeTable(10, [2, 3, 5, 7])
    assert table.blocks == [(0, [210])]
    assert table.width == 1
    assert "blocks" not in repr(table)
    assert "width" not in repr(table)
    assert sieve(10) == table
    assert _table_with_a_short_last_block().blocks[-1][0] == BLOCK_SIZE


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
    B = BLOCK_SIZE
    edges = [0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B - 1, 3 * B]
    edges += [tail - 1, tail, last - 1, last]
    cases = [P[i] for i in edges]
    cases += [P[i] * P[j] for i in edges for j in edges if i <= j]
    cases += [P[i] * big for i in edges]
    cases += [P[i] * P[j] * big**2 for i, j in zip(edges, edges[1:])]
    # high powers, and a prime cofactor under the limit left by the early exit
    cases += [
        2**200,
        3**100 * 999983**5,
        P[B - 1] ** 7 * P[B] ** 3,
        P[2 * B - 1] ** 9 * big,
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


def test_trial_divide_matches_full_scan_within_one_block(table_1e6):
    # Two and three primes from one block.  Its scan peels the lowest of
    # them; the rest of the gcd is one prime once it is below the square of
    # the block's first prime (every single prime of a block but the first
    # is), and two or more primes, at least that square, are scanned on.
    P = table_1e6.primes
    big = 1000003  # prime just above the limit
    blocks = table_1e6.blocks
    cases = [3 * big, 6 * big, 30 * big, 2 * P[BLOCK_SIZE - 1] * big]  # block 0: the square is 4
    for start, _ in [blocks[1], blocks[2], blocks[len(blocks) // 2], blocks[-2], blocks[-1]]:
        block = P[start : start + BLOCK_SIZE]
        first, second, third, last = block[0], block[1], block[2], block[-1]
        # The rest of the gcd after the first prime's peel: the last prime is
        # the largest one below the square, second * third the least above it.
        assert second * third > first * first > last
        cases += [
            first * last,
            first * second * big,
            first * second * third * big,
            first * second * last * big,
            first**3 * last**2 * big,
            second * last * big**2,
            block[len(block) // 2] * last,
        ]
    # A peel that shrinks m, then later blocks that work on powers of two
    # reduced mod that smaller m: a 200-digit n whose block-0 part is most
    # of it, and a peel in each block on the way to the last one.
    B = BLOCK_SIZE
    cases += [
        2**600 * 3**50 * P[B + 3] * P[5 * B + 7] * P[-1] * big,
        P[B - 1] ** 40 * P[B] * P[2 * B - 1] * P[20 * B] * P[-1] ** 2,
        math.prod(P[start] * P[start + 1] for start, _ in table_1e6.blocks) * big,
        P[0] ** 300 * P[-2] * P[-1] * big,
    ]
    for n in cases:
        _scan_matches(n, table_1e6)


def test_trial_divide_matches_full_scan_partial_last_block():
    table = _table_with_a_short_last_block()
    assert len(table.primes) % BLOCK_SIZE != 0
    rng = random.Random(2000)
    P = table.primes
    B = BLOCK_SIZE
    limit = table.limit
    above = [25013, 25031]  # the first primes past the limit
    # Every n below 1000 and around the limit, and a sample of the rest up
    # to 2.5 times the limit: every n that far would cost a 2762-prime
    # oracle scan each.
    cases = [*range(1, 1000), *range(limit - 200, limit + 200), *range(5 * limit // 2 - 100, 5 * limit // 2)]
    cases += rng.sample(range(1000, 5 * limit // 2), 1000)
    partners = [0, 1, 2, B - 2, B - 1, B, B + 1, len(P) - 2, len(P) - 1]
    partners += rng.sample(range(len(P)), 100)
    cases += [P[i] * P[j] for i in (B - 2, B - 1, B, len(P) - 1) for j in partners]
    cases += [rng.randrange(1, 10**30) for _ in range(300)]
    cases += [P[-1] ** 5, P[-1] * above[0], P[-1] * above[0] * above[1], math.prod(P[B - 6 :])]
    for n in cases:
        _scan_matches(n, table)


def test_trial_divide_matches_full_scan_paper_sizes(table_1e6):
    # 200-digit inputs, the paper's largest class: every block's gcd runs
    # against a residue built from powers of two mod n, and peeling shrinks
    # the cofactor far below n before the later blocks are reached.
    rng = random.Random(200)
    P = table_1e6.primes
    starts = [start for start, _ in table_1e6.blocks]
    big = 1000003
    cases = []
    for _ in range(12):
        n = 1
        for start in rng.sample(starts, 5):
            block = P[start : start + BLOCK_SIZE]
            n *= rng.choice(block) ** rng.randint(1, 3) * rng.choice(block)
        cases.append(n * rng.randrange(10**199 // n, 10**200 // n))
        cases.append(n * big ** (200 // 6 - len(str(n)) // 6))
    cases += [
        2**600 * P[BLOCK_SIZE] ** 40 * P[3 * BLOCK_SIZE + 5] ** 30 * big,
        3**300 * P[-1] ** 20 * 999983**10,
        math.prod(p**2 for p in P[:: BLOCK_SIZE // 2]) * big**10,
        P[2 * BLOCK_SIZE] ** 35,
        10**199 + 1,
        1,
    ]
    for n in cases:
        _scan_matches(n, table_1e6)
    assert trial_divide(1, table_1e6) == ({}, 1)
    empty = PrimeTable(1, [])
    for n in cases:
        assert trial_divide(n, empty) == ({}, n) == oracles.trial_divide_scan(n, empty.primes)
