"""Acceptance suite: one test per exit criterion, one printed line each.

Every test prints a `[criterion N] name: PASS/FAIL/SKIP` line straight to
the terminal (capture suspended) so a plain pytest run shows the verdicts,
then asserts.  Tolerances and sizes are pinned in the constants below.
"""

import math
import os
import random
import statistics
import time

import pytest

from reference_times import reference_records
from rhorace import race, rho
from rhorace.bench import BenchSuite, _random_prime_digits, _random_prime_range, run_suite, summarize
from rhorace.cli import _oracle_factorize
from rhorace.pipeline import factorize, verify
from rhorace.race import RaceConfig
from rhorace.rho import CANCELLED, FACTOR, RhoParams, rho_attempt
from test_race import _assert_no_child

ORACLE_SWEEP_LIMIT = 100_000
ORACLE_SWEEP_BUDGET_S = 60.0
ROUND_TRIP_COUNT = 100
ROUND_TRIP_BUDGET_S = 300.0
QUAD_RATIO_TOLERANCE = 0.01
QUAD_OVER_SINGLE_MAX = 0.75
MEDIAN_RATIO_WINDOW = (5.0, 20.0)
FUZZ_ATTEMPTS = 10_000
SCHEDULE_INPUTS = 50
WORKER_COUNTS = (1, 2, 4)
ITERATION_SPEEDUP_INPUTS = 150
# Seeds 1-12 (not the test's seed) read 1.96-2.15 for Brent (mean 2.05,
# sd 0.057) and 1.93-2.05 for Floyd (mean 1.98, sd 0.042) at the default
# gcd batch; 0.25 covers the worst of them with room to spare, while walks
# that were not independent would read near 1.
ITERATION_SPEEDUP_TOLERANCE = 0.25


def _report(capsys, number: int, name: str, verdict: str, detail: str = ""):
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[criterion {number}] {name}: {verdict}{suffix}", flush=True)


def _multiset(factors: dict[int, int]) -> list[int]:
    return sorted(p for p, k in factors.items() for _ in range(k))


def test_criterion_1_oracle_equivalence(capsys, table_1e6):
    """factorize agrees with trial division on every n up to 1e5, quickly."""
    config = RaceConfig(workers=1, seed=0)
    start = time.perf_counter()
    mismatches = []
    for n in range(1, ORACLE_SWEEP_LIMIT + 1):
        got = factorize(n, config, table_1e6).factors
        want = _oracle_factorize(n)
        if got != want:
            mismatches.append(n)
            if len(mismatches) > 3:
                break
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < ORACLE_SWEEP_BUDGET_S
    _report(
        capsys, 1, "oracle equivalence to 1e5", "PASS" if ok else "FAIL",
        f"{len(mismatches)} mismatches, {elapsed:.1f}s of {ORACLE_SWEEP_BUDGET_S:.0f}s",
    )
    assert mismatches == []
    assert elapsed < ORACLE_SWEEP_BUDGET_S


def test_criterion_2_round_trip_constructed(capsys, table_1e6):
    """100 seeded products of 2-5 probable primes (5-25 digits) round-trip."""
    rng = random.Random(20260814)
    start = time.perf_counter()
    for i in range(ROUND_TRIP_COUNT):
        count = rng.randint(2, 5)
        # all but the largest prime stay small enough that every race
        # resolves in well under a second; the largest spans 5-25 digits
        sizes = [rng.randint(5, 11) for _ in range(count - 1)] + [rng.randint(5, 25)]
        primes = sorted(_random_prime_digits(rng, s) for s in sizes)
        n = 1
        for p in primes:
            n *= p
        result = factorize(n, RaceConfig(workers=2, seed=i), table_1e6)
        assert _multiset(result.factors) == primes, f"multiset mismatch for {n}"
        assert verify(result)
    elapsed = time.perf_counter() - start
    ok = elapsed < ROUND_TRIP_BUDGET_S
    _report(
        capsys, 2, "constructed round trips", "PASS" if ok else "FAIL",
        f"{ROUND_TRIP_COUNT} composites, {elapsed:.1f}s of {ROUND_TRIP_BUDGET_S:.0f}s",
    )
    assert elapsed < ROUND_TRIP_BUDGET_S


def test_criterion_3_reference_speedup_ratios(capsys):
    """summarize reproduces the reference quad-vs-single ratios exactly."""
    rows = {(r.digit_class, r.workers): r for r in summarize(reference_records())}
    expected = {50: 2.46, 100: 2.26, 200: 2.17}
    ratios = {digits: rows[(digits, 4)].speedup_vs_1 for digits in expected}
    ok = all(abs(ratios[d] - expected[d]) <= QUAD_RATIO_TOLERANCE for d in expected)
    decreasing = ratios[50] > ratios[100] > ratios[200]
    _report(
        capsys, 3, "reference table speedups", "PASS" if ok and decreasing else "FAIL",
        "quad/single " + ", ".join(f"{d}d={ratios[d]:.4f}" for d in sorted(ratios)),
    )
    for digits, want in expected.items():
        assert ratios[digits] == pytest.approx(want, abs=QUAD_RATIO_TOLERANCE)
    assert decreasing


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"needs >= 4 cores, machine has {os.cpu_count()}",
)
def test_criterion_4_measured_speedup_trend(capsys):
    """On >= 4 cores, 30-digit inputs get faster with 2 and 4 workers."""
    suite = BenchSuite([30], 5, list(WORKER_COUNTS), seed=1, small_factor_digits=8)
    records = run_suite(suite, RaceConfig(seed=1))
    rows = {r.workers: r for r in summarize(records)}
    t1, t2, t4 = (rows[w].mean_time_s for w in WORKER_COUNTS)
    ok = t1 > t2 > t4 and t4 / t1 < QUAD_OVER_SINGLE_MAX
    _report(
        capsys, 4, "measured speedup trend", "PASS" if ok else "FAIL",
        f"means {t1:.3f}/{t2:.3f}/{t4:.3f}s, quad/single {t4 / t1:.2f}",
    )
    assert t1 > t2 > t4
    assert t4 / t1 < QUAD_OVER_SINGLE_MAX


def test_criterion_4_environment_note(capsys):
    # Companion line so the report always mentions criterion 4's status.
    cores = os.cpu_count() or 1
    if cores < 4:
        _report(capsys, 4, "measured speedup trend", "SKIP", f"{cores} core(s) available, needs 4")
    else:
        _report(capsys, 4, "measured speedup trend", "RUNS", f"{cores} cores available")


def test_criterion_4_iteration_speedup(capsys):
    """On any core count: the minimum of 4 walks takes ~1/sqrt(4) the iterations.

    Each input runs 8 inline attempts of the default detector with the
    constants 1..8, the ones a race of 8 workers starts on; the single-walk
    cost is the mean of all 8, the 4-worker cost the mean of min(walks 0-3)
    and min(walks 4-7).
    """
    detector = RaceConfig().detector
    rng = random.Random(2024)
    single = quad = 0.0
    for _ in range(ITERATION_SPEEDUP_INPUTS):
        p = _random_prime_range(rng, 10**6, 2 * 10**6)
        q = _random_prime_range(rng, 10**9, 2 * 10**9)
        n = p * q
        iters = []
        for c in range(1, 9):
            out = rho.resume(n, rho.start(detector, RhoParams.make(n, c, x0=rng.randrange(n))))
            assert out.found, f"c={c} found no factor of {n}: {out}"
            iters.append(out.iterations)
        single += sum(iters) / 8
        quad += (min(iters[:4]) + min(iters[4:])) / 2
    measured = single / quad
    predicted = math.sqrt(4)
    rows = {(r.digit_class, r.workers): r for r in summarize(reference_records())}
    reference = "/".join(f"{rows[(d, 4)].speedup_vs_1:.2f}" for d in (50, 100, 200))
    ok = abs(measured - predicted) <= ITERATION_SPEEDUP_TOLERANCE
    _report(
        capsys, 4, "iteration speedup at 4 walks", "PASS" if ok else "FAIL",
        f"predicted {predicted:.2f}, reference quad/single {reference} at 50/100/200 digits, "
        f"measured {measured:.2f} over {ITERATION_SPEEDUP_INPUTS} inputs",
    )
    assert measured == pytest.approx(predicted, abs=ITERATION_SPEEDUP_TOLERANCE)


def test_criterion_5_birthday_scaling(capsys):
    """Median collision time grows like sqrt(p): 100x primes, ~10x medians."""

    def cohort_median(p_lo, p_hi, count, seed):
        rng = random.Random(seed)
        iters = []
        while len(iters) < count:
            p = _random_prime_range(rng, p_lo, p_hi)
            q = _random_prime_range(rng, 10**9, 2 * 10**9)
            n = p * q
            params = RhoParams.make(
                n, c=rng.randrange(1, 10**6), x0=rng.randrange(n), gcd_batch=1
            )
            out = rho_attempt(n, params)
            if out.found:
                iters.append(out.iterations)
        return statistics.median(iters)

    median_small = cohort_median(10**4, 2 * 10**4, 200, seed=11)
    median_large = cohort_median(10**6, 2 * 10**6, 200, seed=22)
    ratio = median_large / median_small
    lo, hi = MEDIAN_RATIO_WINDOW
    ok = lo <= ratio <= hi
    _report(
        capsys, 5, "birthday-paradox scaling", "PASS" if ok else "FAIL",
        f"medians {median_small:.0f} vs {median_large:.0f}, ratio {ratio:.2f} in [{lo:.0f}, {hi:.0f}]",
    )
    assert lo <= ratio <= hi


def test_criterion_6_monte_carlo_validity(capsys):
    """10k fuzz attempts: factors always divide; primes never factor."""
    rng = random.Random(6)
    primes = [_random_prime_digits(rng, rng.randint(5, 12)) for _ in range(300)]
    found = 0
    prime_attempts = 0
    for i in range(FUZZ_ATTEMPTS):
        kind = i % 5
        if kind == 0:
            n = primes[rng.randrange(len(primes))]
            is_prime_input = True
        else:
            a = primes[rng.randrange(len(primes))]
            b = primes[rng.randrange(len(primes))]
            n = a * b if kind < 3 else a * rng.randrange(3, 10**4, 2)
            is_prime_input = False
        if n % 2 == 0 or n < 5:
            continue
        params = RhoParams.make(
            n,
            c=rng.randrange(1, n - 2),
            x0=rng.randrange(n),
            max_iters=2000,
            gcd_batch=16,
        )
        out = rho_attempt(n, params)
        if is_prime_input:
            prime_attempts += 1
            assert out.kind != FACTOR, f"factor reported for prime {n}"
        elif out.kind == FACTOR:
            found += 1
            assert n % out.factor == 0, f"non-divisor {out.factor} for {n}"
            assert 1 < out.factor < n, f"trivial factor {out.factor} for {n}"
    ok = found > 0 and prime_attempts > 1000
    _report(
        capsys, 6, "monte-carlo validity", "PASS" if ok else "FAIL",
        f"{FUZZ_ATTEMPTS} attempts, {found} factors, {prime_attempts} prime inputs, 0 violations",
    )
    assert found > 0
    assert prime_attempts > 1000


def test_criterion_7_determinism_and_schedule_independence(capsys, table_1e6):
    """Same seed, workers=1: identical runs.  Any workers: same multiset."""
    rng = random.Random(77)
    inputs = []
    for _ in range(SCHEDULE_INPUTS):
        count = rng.randint(2, 3)
        n = 1
        for _ in range(count):
            n *= _random_prime_digits(rng, rng.randint(7, 9))
        if rng.random() < 0.3:
            n *= rng.choice([2, 3, 5]) ** rng.randint(1, 4)
        inputs.append(n)

    # bit-reproducibility at one worker: same factors, same race traces
    for n in inputs[:10]:
        first = factorize(n, RaceConfig(workers=1, seed=3), table_1e6)
        second = factorize(n, RaceConfig(workers=1, seed=3), table_1e6)
        assert first.factors == second.factors
        trace = lambda f: [
            (r.factor, r.rounds, r.per_worker_iterations) for r in f.stats.races
        ]
        assert trace(first) == trace(second)

    # schedule independence: the multiset does not depend on worker count
    for i, n in enumerate(inputs):
        results = {
            w: factorize(n, RaceConfig(workers=w, seed=i), table_1e6)
            for w in WORKER_COUNTS
        }
        baseline = results[1].factors
        for w, result in results.items():
            assert result.factors == baseline, f"workers={w} changed the multiset for {n}"
            assert verify(result)
    _report(
        capsys, 7, "determinism and schedule independence", "PASS",
        f"{SCHEDULE_INPUTS} inputs x workers {WORKER_COUNTS}, 10 repeat runs",
    )


def test_criterion_8_cancellation_latency(capsys, monkeypatch):
    """Losers stop within batch granularity of the winner, not at budget.

    The losers are forked at once: with worker 0's head start, a winner in
    its first batch would otherwise leave no child to cancel.
    """
    monkeypatch.setattr(race, "SOLO_STEPS", 0)
    rng = random.Random(20260814)
    p = _random_prime_digits(rng, 12)
    r = _random_prime_digits(rng, 100)
    n = p * r**15  # ~1500 digits: one iteration costs ~0.2-0.3 ms
    batch = 16
    budget = 1_000_000
    # worker 0 is a planted winner: from x0=0 with c=2p the whole orbit is
    # 0 mod p, so its first batch gcd already yields p.  The losers' honest
    # search for p would need ~sqrt(p) ~ 5e5 iterations.
    walks = [
        rho.start("floyd", RhoParams.make(n, c, x0=0, max_iters=budget, gcd_batch=batch))
        for c in (2 * p, 1, 2, 3)
    ]
    outcomes, winner = race._run_round(n, walks)
    assert winner == 0
    winner_out = outcomes[0]
    assert winner_out.kind == FACTOR
    assert winner_out.factor == p
    assert winner_out.iterations == batch  # first batch boundary
    loser_iters = []
    slack = 64 * batch  # generous allowance for single-core scheduling skew
    for idx, out in enumerate(outcomes):
        if idx == winner:
            continue
        assert out.kind == CANCELLED, f"loser {idx} ended as {out.kind}"
        assert out.iterations % batch == 0
        assert out.iterations <= winner_out.iterations + slack, (
            f"loser {idx} ran {out.iterations} iterations"
        )
        assert out.iterations < budget // 100
        loser_iters.append(out.iterations)
    _assert_no_child()
    _report(
        capsys, 8, "cancellation latency", "PASS",
        f"winner at {winner_out.iterations} iters, losers at {loser_iters} "
        f"(budget {budget})",
    )
