"""Integer primitive tests: gcd, Miller-Rabin, wire format."""

import random

import pytest

import oracles
from rhorace.numeric import gcd, is_probable_prime, parse_natural, render_natural


def test_gcd_known_values():
    assert gcd(12, 18) == 6
    assert gcd(0, 8051) == 8051
    assert gcd(2813, 8051) == 97
    assert 97 * 83 == 8051  # so the case above extracts a genuine prime divisor


def test_gcd_matches_euclid_reference():
    rng = random.Random(101)
    for _ in range(500):
        a = rng.getrandbits(rng.randint(1, 130))
        b = rng.getrandbits(rng.randint(1, 130))
        g = gcd(a, b)
        assert g == oracles.euclid_gcd(a, b)
        if g:
            assert a % g == 0 and b % g == 0


def test_probable_prime_small_values():
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert not is_probable_prime(0)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael number
    assert is_probable_prime(7919)
    assert oracles.trial_is_prime(7919)


def test_probable_prime_agrees_with_trial_division_exhaustively(table_1e6):
    # The sieve is validated against raw trial division in test_sieve; here
    # it serves as the prime oracle for the full range up to 1e6.
    flags = bytearray(10**6 + 1)
    for p in table_1e6.primes:
        flags[p] = 1
    for n in range(10**6 + 1):
        assert is_probable_prime(n) == bool(flags[n]), f"disagreement at {n}"


def test_probable_prime_large_inputs():
    m89 = 2**89 - 1  # Mersenne prime, above the deterministic-base bound
    assert is_probable_prime(m89)
    assert not is_probable_prime(m89 * 1000003)
    assert not is_probable_prime(10**30 + 1)


def test_probable_prime_is_deterministic():
    n = (2**89 - 1) * (2**107 - 1)
    assert [is_probable_prime(n) for _ in range(3)] == [False] * 3
    p = 2**127 - 1
    assert [is_probable_prime(p) for _ in range(3)] == [True] * 3


def test_parse_natural_accepts_canonical_strings():
    assert parse_natural("0") == 0
    assert parse_natural("8051") == 8051
    assert parse_natural("1" + "0" * 99) == 10**99


@pytest.mark.parametrize(
    "text", ["", "+5", "-5", " 5", "5 ", "07", "12a", "1_000", "١٢٣"]
)
def test_parse_natural_rejects_noncanonical_strings(text):
    with pytest.raises(ValueError):
        parse_natural(text)


def test_render_parse_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randrange(10 ** rng.randint(1, 400))
        assert parse_natural(render_natural(n)) == n


def test_render_rejects_negatives():
    with pytest.raises(ValueError):
        render_natural(-1)
