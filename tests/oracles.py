"""Independent reference implementations used only to check the package.

Nothing here imports rhorace.  The arithmetic oracles avoid the operations
they are checking: schoolbook_mulmod multiplies limb by limb with small-int
operations instead of big-int multiply, euclid_gcd is the bare subtraction-
free Euclid loop, and the factorization/primality oracles are plain trial
division.
"""

from __future__ import annotations

_LIMB_DIGITS = 4
_LIMB_BASE = 10**_LIMB_DIGITS


def euclid_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _to_limbs(x: int) -> list[int]:
    """Little-endian base-10^4 limbs, derived from the decimal string."""
    text = str(x)
    limbs = []
    for end in range(len(text), 0, -_LIMB_DIGITS):
        limbs.append(int(text[max(0, end - _LIMB_DIGITS) : end]))
    return limbs


def schoolbook_mulmod(a: int, b: int, n: int) -> int:
    """(a * b) % n with the product built limb by limb.

    Every partial product fits machine integers, so a bug in big-int
    multiplication cannot hide here; only the final Horner reduction leans
    on built-in arithmetic, and only with one small scalar per step.
    """
    aa, bb = _to_limbs(a), _to_limbs(b)
    prod = [0] * (len(aa) + len(bb))
    for i, ai in enumerate(aa):
        carry = 0
        for j, bj in enumerate(bb):
            cur = prod[i + j] + ai * bj + carry
            prod[i + j] = cur % _LIMB_BASE
            carry = cur // _LIMB_BASE
        k = i + len(bb)
        while carry:
            cur = prod[k] + carry
            prod[k] = cur % _LIMB_BASE
            carry = cur // _LIMB_BASE
            k += 1
    r = 0
    for limb in reversed(prod):
        r = (r * _LIMB_BASE + limb) % n
    return r


def trial_is_prime(n: int) -> bool:
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


def trial_factorize(n: int) -> dict[int, int]:
    """Complete factorization by trial division; fine up to ~1e12."""
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def trial_divide_scan(n: int, primes: list[int]) -> tuple[dict[int, int], int]:
    """(factors, cofactor) of n over the given primes, trying every one.

    No early exit and no batching: each prime is tried by `%` in turn, so
    the cofactor is whatever is left once all of them are divided out.
    """
    factors: dict[int, int] = {}
    m = n
    for p in primes:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    return factors, m


def primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_is_prime(n)]


def floyd_index_by_enumeration(f, x0: int, cap: int = 10**6) -> int:
    """Smallest i >= 1 with x_i == x_{2i}, found by materializing the orbit."""
    xs = [x0]
    for _ in range(2 * cap):
        xs.append(f(xs[-1]))
    for i in range(1, cap + 1):
        if xs[i] == xs[2 * i]:
            return i
    raise AssertionError(f"no meeting index within {cap} steps")
