"""End-to-end factorization tests: pre-pass, recursion, verification."""

import os
import random

import pytest

import oracles
from rhorace import pipeline, race, rho
from rhorace.bench import _random_prime_digits, gen_input
from rhorace.cli import _oracle_factorize
from rhorace.numeric import is_probable_prime
from rhorace.pipeline import (
    Factorization,
    FactorizationIncomplete,
    factorize,
    verify,
)
from rhorace.race import RaceConfig
from rhorace.rho import CANCELLED, RhoOutcome, resume
from rhorace.sieve import sieve
from test_race import _CountingFork, _assert_no_child, _deadline

CFG1 = RaceConfig(workers=1, seed=0)


def _multiset(factors: dict[int, int]) -> list[int]:
    return sorted(p for p, k in factors.items() for _ in range(k))


def test_factorize_one_is_empty():
    result = factorize(1, CFG1)
    assert result.factors == {}
    assert result.product() == 1
    assert verify(result)


def test_factorize_smooth_number(table_1e6):
    result = factorize(144, CFG1, table_1e6)
    assert result.factors == {2: 4, 3: 2}
    assert result.ordered() == [(2, 4), (3, 2)]


def test_factorize_semiprime_needs_no_race(table_1e6):
    result = factorize(8051, CFG1, table_1e6)
    assert result.factors == {83: 1, 97: 1}
    assert result.stats.races == []  # the pre-pass alone settles it


def test_factorize_beyond_the_table_races(table_1e6):
    n = 1000003 * 1000033
    result = factorize(n, CFG1, table_1e6)
    assert result.factors == {1000003: 1, 1000033: 1}
    assert len(result.stats.races) >= 1
    assert verify(result)


def test_factorize_five_ten_digit_primes(table_1e6):
    rng = random.Random(77)
    primes = [_random_prime_digits(rng, 10) for _ in range(5)]
    n = 1
    for p in primes:
        n *= p
    result = factorize(n, RaceConfig(workers=1, seed=5), table_1e6)
    assert _multiset(result.factors) == sorted(primes)
    assert verify(result)


def test_factorize_prime_power(table_1e6):
    p = 1000003
    result = factorize(p**3, CFG1, table_1e6)
    assert result.factors == {p: 3}


def test_factorize_large_prime_input(table_1e6):
    p = 10**15 + 37
    assert oracles.trial_is_prime(10**5 + 3)  # sanity for the oracle itself
    result = factorize(p, CFG1, table_1e6)
    assert result.factors == {p: 1}


def test_factorize_splits_the_12_base_pseudoprime(table_1e6):
    # psi_12 passes Miller-Rabin to every prime base up to 37; it must be
    # raced apart, not reported as a prime.
    p, q = 399165290221, 798330580441
    assert factorize(p * q, CFG1, table_1e6).factors == {p: 1, q: 1}
    result = factorize(3 * p * q, CFG1, table_1e6)
    assert result.factors == {3: 1, p: 1, q: 1}
    assert verify(result)


def test_factorize_matches_oracle_sample(table_1e6):
    for n in range(1, 2001):
        assert factorize(n, CFG1, table_1e6).factors == _oracle_factorize(n)


def test_factorize_matches_oracle_through_the_race(monkeypatch):
    # With a table of just 2, the pre-pass leaves every odd part to
    # Miller-Rabin and the race, which the 10**6 table never reaches for
    # n <= 10**5.  An odd part with k prime factors (with multiplicity)
    # takes k - 1 races and 2k - 1 primality checks.
    checks = []

    def counting(m):
        checks.append(m)
        return is_probable_prime(m)

    monkeypatch.setattr(pipeline, "is_probable_prime", counting)
    table = sieve(2)
    races = want_races = want_checks = 0
    for n in range(1, 10**4 + 1):
        result = factorize(n, CFG1, table)
        want = _oracle_factorize(n)
        assert result.factors == want, n
        races += len(result.stats.races)
        k = sum(want.values()) - want.get(2, 0)
        if k:
            want_races += k - 1
            want_checks += 2 * k - 1
    assert races == want_races == 12_004
    assert len(checks) == want_checks == 33_994


def test_factorize_round_trip_constructed(table_1e6):
    # Products of 2-6 probable primes of 5-20 digits; every prime except the
    # largest stays small enough that each race finishes in well under a
    # second.  The recursion must return the exact construction multiset.
    rng = random.Random(2024)
    for i in range(500):
        count = rng.randint(2, 6)
        sizes = [rng.randint(5, 9) for _ in range(count - 1)] + [rng.randint(5, 20)]
        primes = sorted(_random_prime_digits(rng, s) for s in sizes)
        n = 1
        for p in primes:
            n *= p
        result = factorize(n, RaceConfig(workers=1, seed=i), table_1e6)
        assert _multiset(result.factors) == primes, f"input {n}"
        assert verify(result)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0, CFG1)
    with pytest.raises(ValueError):
        factorize(-8051, CFG1)


def test_factorize_incomplete_carries_partial(table_1e6, monkeypatch):
    # Strangle the race budget so the two 7-digit primes cannot be split.
    monkeypatch.setattr(race, "MAX_ROUNDS", 2)
    n = 2**5 * 10000019 * 10000079
    config = RaceConfig(workers=1, seed=0, max_iters=4, gcd_batch=4)
    with pytest.raises(FactorizationIncomplete) as exc_info:
        factorize(n, config, table_1e6)
    err = exc_info.value
    assert err.partial.factors == {2: 5}
    assert err.stubborn == 10000019 * 10000079
    prod = err.partial.product()
    for m in err.pending:
        prod *= m
    assert prod == n
    stats = err.partial.stats
    assert stats.race_s > 0
    assert stats.trial_division_s + stats.primality_s + stats.race_s <= stats.total_s * 1.05


def test_stats_time_accounting(table_1e6):
    n = 1000003 * 1000033
    result = factorize(n, CFG1, table_1e6)
    stats = result.stats
    assert stats.total_s > 0
    assert stats.trial_division_s >= 0
    assert stats.race_s > 0
    parts = stats.trial_division_s + stats.primality_s + stats.race_s
    assert parts <= stats.total_s * 1.05


def test_verify_accepts_and_rejects_hand_built():
    assert verify(Factorization(10, {2: 1, 5: 1}))
    assert not verify(Factorization(10, {2: 1, 3: 1}))  # product mismatch
    assert not verify(Factorization(12, {12: 1}))  # base not prime
    assert not verify(Factorization(4, {2: 1}))  # wrong multiplicity
    assert not verify(Factorization(2, {2: 0}))  # zero multiplicity
    assert verify(Factorization(1, {}))


def test_verify_checks_primality_not_provenance():
    # verify recomputes from scratch, so even a correctly-multiplying entry
    # with a composite base must fail.
    assert not verify(Factorization(8051 * 2, {2: 1, 8051: 1}))


def _record_races(monkeypatch):
    """(m, walks, outcome) of every race factorize runs, in order."""
    races = []
    real = pipeline.race_factor

    def recording(m, config, walks=None, **crew):
        outcome = real(m, config, walks, **crew)
        races.append((m, walks, outcome))
        return outcome

    monkeypatch.setattr(pipeline, "race_factor", recording)
    return races


def _three_primes(seed, digits):
    rng = random.Random(seed)
    primes = sorted(_random_prime_digits(rng, digits) for _ in range(3))
    return primes, primes[0] * primes[1] * primes[2]


@pytest.mark.parametrize("detector", rho.DETECTORS)
def test_factorize_resumes_the_walk_on_the_cofactor(monkeypatch, table_1e6, detector):
    races = _record_races(monkeypatch)
    primes, n = _three_primes(8, 8)
    config = RaceConfig(workers=1, seed=0, detector=detector)
    result = factorize(n, config, table_1e6)
    assert _multiset(result.factors) == primes
    (m1, walks1, first), (m2, walks2, second) = races
    assert (m1, walks1) == (n, None)
    assert m2 == n // first.factor
    # Race 2's worker 0 starts where race 1's walk stopped, reduced mod m2,
    # and walks on exactly as a direct resume of that walk does.
    assert walks2 == [first.worker_outcomes[0].walk.over(m2)]
    assert second.worker_outcomes == [resume(m2, walks2[0])]
    assert second.worker_outcomes[0].walk.walked == walks2[0].walked + second.per_worker_iterations[0]
    # Single-worker runs stay reproducible down to their races.
    again = factorize(n, config, table_1e6)
    assert [r.worker_outcomes for r in again.stats.races] == [r.worker_outcomes for r in result.stats.races]


def test_factorize_resumes_the_forked_workers_walk(monkeypatch, table_1e6):
    monkeypatch.setattr(race, "SOLO_STEPS", 0)  # both workers walk in every race
    races = _record_races(monkeypatch)
    primes, n = _three_primes(5, 10)
    result = factorize(n, RaceConfig(workers=2, seed=0), table_1e6)
    assert _multiset(result.factors) == primes
    (_, _, first), (m2, walks2, second) = races
    assert first.worker_outcomes[1].walk.walked > 0
    assert walks2[1] == first.worker_outcomes[1].walk.over(m2)
    assert second.worker_outcomes[1].walk.walked == walks2[1].walked + second.per_worker_iterations[1]
    _assert_no_child()


def test_factorize_carries_a_never_forked_workers_walk(monkeypatch, table_1e6):
    # Worker 0 wins race 1 before the mark, so worker 1 is never forked: its
    # untouched walk goes on over the cofactor, as a walked one would.
    counting = _CountingFork(monkeypatch)
    races = _record_races(monkeypatch)
    primes, n = _three_primes(1, 7)
    result = factorize(n, RaceConfig(workers=2, seed=0), table_1e6)
    assert _multiset(result.factors) == primes
    assert counting.starts == 0
    (_, _, first), (m2, walks2, second) = races
    untouched = first.worker_outcomes[1]
    assert untouched == RhoOutcome(CANCELLED, 0)
    assert (untouched.walk.params.c, untouched.walk.walked) == (2, 0)
    assert walks2[1] == untouched.walk.over(m2)
    assert walks2[1].walked == 0
    assert second.worker_outcomes[1].walk.params == walks2[1].params
    _assert_no_child()


def test_factorize_races_a_composite_factor_from_fresh_constants(monkeypatch, table_1e6):
    # One batch of 4096 steps sees two of the three 7-digit primes collide.
    races = _record_races(monkeypatch)
    primes, n = _three_primes(3, 7)
    result = factorize(n, RaceConfig(workers=1, seed=0, gcd_batch=4096), table_1e6)
    assert _multiset(result.factors) == primes
    (m1, _, first), (m2, walks2, _) = races
    assert not is_probable_prime(first.factor)
    assert (m2, walks2) == (first.factor, None)
    _assert_no_child()


@pytest.mark.parametrize("workers", [2, 3])
def test_factorize_forks_its_workers_once_for_all_of_its_races(monkeypatch, workers):
    # Three races, each past the mark or handed its walks at once: one crew.
    counting = _CountingFork(monkeypatch)
    n = gen_input(40, 7, 0)
    result = factorize(n, RaceConfig(workers=workers))
    assert verify(result) and result.input == n
    assert len(result.stats.races) == 3
    assert counting.starts == workers - 1
    _assert_no_child()


def test_factorize_leaves_no_child_when_a_later_race_gives_up(monkeypatch, table_1e6):
    # The first race forks the crew; from the second on, MAX_ROUNDS = 0.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    counting = _CountingFork(monkeypatch)
    real = pipeline.race_factor

    def then_no_rounds(*args, **crew):
        outcome = real(*args, **crew)
        monkeypatch.setattr(race, "MAX_ROUNDS", 0)
        return outcome

    monkeypatch.setattr(pipeline, "race_factor", then_no_rounds)
    _, n = _three_primes(5, 10)
    with _deadline(10), pytest.raises(FactorizationIncomplete) as exc_info:
        factorize(n, RaceConfig(workers=3, seed=0), table_1e6)
    assert len(exc_info.value.partial.stats.races) == 1
    assert counting.starts == 2
    _assert_no_child()


def test_factorize_leaves_no_child_when_interrupted_in_a_later_race(monkeypatch, table_1e6):
    # Worker 0 hands the crew its walks in the second race, then Ctrl-C.
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    counting = _CountingFork(monkeypatch)
    coordinator = os.getpid()
    races = []

    def interrupted_in_the_second_race(n, walk, cancel=None):
        if os.getpid() == coordinator:
            races.append(n)
            if len(races) == 2:
                cancel(0)
                raise KeyboardInterrupt
        return resume(n, walk, cancel)

    monkeypatch.setattr(rho, "resume", interrupted_in_the_second_race)
    _, n = _three_primes(5, 10)
    with _deadline(10), pytest.raises(KeyboardInterrupt):
        factorize(n, RaceConfig(workers=3, seed=0), table_1e6)
    assert len(races) == 2
    assert counting.starts == 2
    _assert_no_child()
