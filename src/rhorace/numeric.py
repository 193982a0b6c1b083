"""Arbitrary-precision integer helpers shared by every stage of the factorizer.

Python ints are already arbitrary precision, so most of this module is thin
glue: it pins down the decimal wire format used at the package boundary and
the number-theory primitives (gcd, Miller-Rabin) everything else builds
on.
"""

from __future__ import annotations

import math
import random

gcd = math.gcd

# Below this bound the fixed 12-base Miller-Rabin test is exact.
_MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981
_MR_EXACT_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_RANDOM_ROUNDS = 25  # seeded random bases at and above the bound

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_DIGITS = frozenset("0123456789")


def _mr_witness(a: int, d: int, s: int, n: int) -> bool:
    """True when base a proves n composite."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Exact for n below ~3.3e24 (fixed base set); beyond that it runs 25
    random bases drawn from a generator seeded with n itself, so repeated
    calls on the same input always agree.  A composite slips through with
    probability at most 4**-25.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_EXACT_BOUND:
        bases = _MR_EXACT_BASES
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(_MR_RANDOM_ROUNDS))
    return not any(_mr_witness(a, d, s, n) for a in bases)


def parse_natural(text: str) -> int:
    """Canonical decimal string -> int.

    Rejects signs, whitespace, non-ASCII digits, the empty string, and
    leading zeros (except "0" itself).
    """
    if not text or not all(ch in _DIGITS for ch in text):
        raise ValueError(f"not a decimal natural: {text!r}")
    if len(text) > 1 and text[0] == "0":
        raise ValueError(f"leading zeros are not canonical: {text!r}")
    return int(text)


def render_natural(value: int) -> str:
    """Int -> canonical decimal string (inverse of parse_natural)."""
    if value < 0:
        raise ValueError("naturals are non-negative")
    return str(value)
