"""The work of the race at workers=1, pinned: a trace digest.

Three seeded input streams, shaped like the three perfbench workloads, are
factored at workers=1, and each race's trace must equal the committed one
in trace_digest.py: the factor, the rounds, the winner, and each worker's
outcome kind and iterations.  Iteration counts depend on no hardware, so a
change that must not change the work (a refactor, a change to forking)
leaves the file as it is.  A change that alters the work on purpose
regenerates the file and states the new totals:

    PYTHONPATH=src python tests/test_trace_digest.py > tests/trace_digest.py
"""

import math
import random

from rhorace import RaceConfig, factorize, is_probable_prime

DIGEST_SEED = 424242
INPUTS_PER_STREAM = 40
PREPASS_LIMIT = 10**6


def _prime_in(rng, lo, hi):
    while True:
        cand = rng.randrange(lo, hi + 1)
        if is_probable_prime(cand):
            return cand


def _digits(rng, d):
    return _prime_in(rng, 10 ** (d - 1), 10**d - 1)


def _semiprime_race(rng, i):
    # One race: a 10-digit prime times an 11-digit one.
    return [_prime_in(rng, 10**9, 2 * 10**9), _digits(rng, 11)]


def _smooth_prepass(rng, i):
    # Two to four primes under the pre-pass limit, then a 20-digit prime or
    # a 7-digit times a 13-digit prime: one race at most.
    parts = [_prime_in(rng, 2, PREPASS_LIMIT) for _ in range(rng.randint(2, 4))]
    if i % 3:
        parts.append(_digits(rng, 20))
    else:
        parts += [_digits(rng, 7), _digits(rng, 13)]
    return parts


def _gen_multi(rng, i):
    # gen_input(40, 7)'s shape: a 7-digit prime, two 10-digit fills and a
    # last prime that lands the product on 40 digits; three races.
    parts = [_digits(rng, 7)]
    prod = parts[0]
    while 40 - len(str(prod)) >= 20:
        parts.append(_prime_in(rng, 10**9, 2 * 10**9))
        prod *= parts[-1]
    parts.append(_prime_in(rng, -(-(10**39) // prod), (10**40 - 1) // prod))
    return parts


STREAMS = {
    "semiprime-race": _semiprime_race,
    "smooth-prepass": _smooth_prepass,
    "gen-multi": _gen_multi,
}


def stream_inputs(stream):
    """The stream's seeded inputs, each with its primes in ascending order."""
    for i in range(INPUTS_PER_STREAM):
        parts = STREAMS[stream](random.Random(f"{stream}:{DIGEST_SEED}:{i}"), i)
        yield math.prod(parts), sorted(parts)


def traces(stream):
    """(input index, factor, rounds, winner, ((kind, iterations), ...)) of
    every race of the stream at workers=1, in the order run."""
    rows = []
    for i, (n, primes) in enumerate(stream_inputs(stream)):
        result = factorize(n, RaceConfig(workers=1, seed=i))
        assert sorted(p for p, k in result.factors.items() for _ in range(k)) == primes, n
        for race in result.stats.races:
            workers = tuple((o.kind, o.iterations) for o in race.worker_outcomes)
            rows.append((i, race.factor, race.rounds, race.winner, workers))
    return rows


def iterations(rows):
    return sum(it for *_, workers in rows for _, it in workers)


def test_race_traces_at_one_worker_match_the_digest(capsys):
    import trace_digest  # here, so that this module can regenerate it

    totals = {}
    for stream in STREAMS:
        rows = traces(stream)
        assert rows == trace_digest.TRACES[stream], stream
        totals[stream] = (len(rows), iterations(rows))
    with capsys.disabled():
        for stream, (races, iters) in totals.items():
            print(f"[digest] {stream}: {INPUTS_PER_STREAM} inputs, {races} races, {iters} iterations")


if __name__ == "__main__":
    print('"""Race traces at workers=1, written by test_trace_digest.py; do not edit.\n')
    print("Per stream, one row per race: (input index, factor, rounds, winner,")
    print('((kind, iterations) of each worker)).  The same module regenerates it."""\n')
    print("TRACES = {")
    for stream in STREAMS:
        rows = traces(stream)
        print(f"    # {len(rows)} races, {iterations(rows)} iterations")
        print(f"    {stream!r}: [")
        for row in rows:
            print(f"        {row!r},")
        print("    ],")
    print("}")
