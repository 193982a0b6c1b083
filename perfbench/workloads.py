"""Seeded input generators for the benchmark workloads.

Each input is built from primes the generator picks itself, so the
benchmark knows the exact prime multiset factorize must return.  Input i of
a workload depends only on (workload, seed, i): a run can stop after any
number of inputs and a rerun with the same seed sees the same prefix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rhorace import is_probable_prime

PREPASS_LIMIT = 10**6  # the pipeline's trial-division limit


@dataclass(frozen=True)
class Input:
    n: int
    planted: tuple[int, ...]  # ascending, with multiplicity


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """A probable prime drawn from [lo, hi]."""
    while True:
        cand = rng.randrange(lo, hi + 1)
        if is_probable_prime(cand):
            return cand


def _digits(rng: random.Random, d: int) -> int:
    return _prime_in(rng, 10 ** (d - 1), 10**d - 1)


# Rationale for each workload is its "why" in BENCHMARK.json; the sizes below
# are what that text relies on.


def _semiprime_race(rng: random.Random, i: int) -> list[int]:
    # Both primes above the pre-pass limit: all the work is one race.  p is
    # held to the low end of 10 digits: a narrower spread of sqrt(p) and a
    # shorter race per input buy more inputs per run, hence steadier medians.
    return [_prime_in(rng, 10**9, 2 * 10**9), _digits(rng, 11)]


def _smooth_prepass(rng: random.Random, i: int) -> list[int]:
    # A full trial-division scan every time, then either a single primality
    # test or one short race: rho iterations are negligible here.  Two
    # inputs in three end in a prime, so the median lies inside that group
    # (pre-pass cost) and p90 inside the racing one (race start-up cost);
    # an even split would put the median in the gap between the two.
    parts = [_prime_in(rng, 2, PREPASS_LIMIT) for _ in range(rng.randint(2, 4))]
    if i % 3:
        parts.append(_digits(rng, 20))
    else:
        parts += [_digits(rng, 7), _digits(rng, 13)]
    return parts


def _gen_multi(rng: random.Random, i: int) -> list[int]:
    # The construction of rhorace.bench.gen_input(40, 7), redone here so the
    # benchmark knows the planted primes and owns its inputs.  The fills are
    # held to the low end of 10 digits, as in semiprime-race.
    digits, small = 40, 7
    fill = small + 3
    parts = [_digits(rng, small)]
    prod = parts[0]
    while digits - len(str(prod)) >= 2 * fill:
        parts.append(_prime_in(rng, 10 ** (fill - 1), 2 * 10 ** (fill - 1)))
        prod *= parts[-1]
    lo = -(-(10 ** (digits - 1)) // prod)
    hi = (10**digits - 1) // prod
    parts.append(_prime_in(rng, lo, hi))
    return parts


MAKERS = {
    "semiprime-race": _semiprime_race,
    "smooth-prepass": _smooth_prepass,
    "gen-multi": _gen_multi,
}


def make_input(workload: str, seed: int, i: int) -> Input:
    """Input i of a workload under a seed."""
    rng = random.Random(f"{workload}:{seed}:{i}")
    parts = MAKERS[workload](rng, i)
    return Input(math.prod(parts), tuple(sorted(parts)))
