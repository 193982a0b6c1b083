"""Single-attempt tests: both rho variants and their recorded outcomes."""

import math
import random

import pytest

import golden_attempts
import oracles
from rhorace.bench import gen_input
from rhorace.pipeline import factorize
from rhorace.race import RaceConfig
from rhorace.rho import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    FACTOR,
    NO_FACTOR_CYCLE,
    RhoOutcome,
    RhoParams,
    Walk,
    resume,
    rho_attempt,
    start,
)


def brent_attempt(n, params, cancel=None):
    """One Brent attempt on n: resume of a fresh Brent walk."""
    return resume(n, start("brent", params), cancel)


def _params(n, c, x0, max_iters=None, gcd_batch=1):
    return RhoParams.make(n, c=c, x0=x0, max_iters=max_iters, gcd_batch=gcd_batch)


def _random_semiprime(rng, lo=10**3, hi=10**6):
    def draw_prime():
        while True:
            cand = rng.randrange(lo, hi) | 1
            if oracles.trial_is_prime(cand):
                return cand

    return draw_prime() * draw_prime()


def test_rho_8051_classic_walk():
    # Hand walk with c=1, x0=2: diffs 21, 7448, 194; gcd(194, 8051) = 97.
    out = rho_attempt(8051, _params(8051, c=1, x0=2))
    assert out.kind == FACTOR
    assert out.factor == 97
    assert out.iterations == 3
    assert out.found


def test_rho_91_immediate_factor():
    # First diff is 21 and gcd(21, 91) = 7.
    out = rho_attempt(91, _params(91, c=1, x0=2))
    assert (out.kind, out.factor, out.iterations) == (FACTOR, 7, 1)


def test_rho_batched_replay_recovers_mid_batch_factor():
    # With a batch larger than the full cycle, both prime orbits collapse
    # inside batch one, the batch gcd is n, and the single-step replay must
    # recover the same factor the unbatched walk finds.
    out = rho_attempt(8051, _params(8051, c=1, x0=2, gcd_batch=10**5))
    assert out.kind == FACTOR
    assert out.factor == 97
    assert out.iterations == 18  # meet at step 15, replay finds 97 three steps in


def test_rho_prime_input_reports_cycle_not_factor():
    out = rho_attempt(101, _params(101, c=1, x0=2, max_iters=10**4))
    assert out.kind in (NO_FACTOR_CYCLE, BUDGET_EXHAUSTED)
    assert out.factor is None


def test_rho_budget_exhaustion_charges_exact_iterations():
    n = 1000003 * 1000033
    out = rho_attempt(n, _params(n, c=1, x0=2, max_iters=50, gcd_batch=16))
    assert out.kind == BUDGET_EXHAUSTED
    assert out.iterations == 50


def test_rho_determinism():
    n = 1000003 * 1000033
    params = _params(n, c=5, x0=12345, gcd_batch=64)
    assert rho_attempt(n, params) == rho_attempt(n, params)


def test_rho_batching_never_changes_the_answer():
    # Batched gcd accumulation is an optimization: for any batch size the
    # attempt must find the same factor (or the same honest failure) as the
    # step-by-step walk, typically at a coarser iteration count.
    rng = random.Random(23)
    for _ in range(300):
        n = _random_semiprime(rng)
        c = rng.randrange(1, n - 2)
        if c % n in (0, n - 2):
            continue
        x0 = rng.randrange(n)
        fine = rho_attempt(n, _params(n, c=c, x0=x0, gcd_batch=1))
        coarse = rho_attempt(n, _params(n, c=c, x0=x0, gcd_batch=128))
        assert fine.kind == coarse.kind
        assert fine.factor == coarse.factor
        if fine.kind == FACTOR:
            assert n % fine.factor == 0
            assert 1 < fine.factor < n


def test_rho_found_factors_always_divide(table_1e6):
    rng = random.Random(29)
    found = 0
    for _ in range(500):
        n = _random_semiprime(rng)
        out = rho_attempt(
            n, _params(n, c=rng.randrange(1, n - 2), x0=rng.randrange(n), gcd_batch=8)
        )
        if out.found:
            found += 1
            assert n % out.factor == 0
            assert 1 < out.factor < n
    assert found > 400  # semiprimes this small should almost always crack


def test_rho_cancel_checked_before_work():
    out = rho_attempt(8051, _params(8051, c=1, x0=2, gcd_batch=4))
    assert out.found  # no cancel given: normal result
    out = rho_attempt(8051, _params(8051, c=1, x0=2, gcd_batch=4), cancel=lambda steps: True)
    assert out.kind == CANCELLED
    assert out.iterations == 0
    assert out.factor is None


@pytest.mark.parametrize("detector", ["floyd", "brent"])
def test_unbudgeted_walk_on_a_prime_ends_at_its_cycle(detector):
    # With no budget the cycle is a walk's only end short of a factor or a
    # cancel: on a prime p it comes within a few sqrt(p) steps.
    p = 1000003
    for c in range(1, 11):
        out = resume(p, start(detector, RhoParams.make(p, c, x0=2)))
        assert out.kind == NO_FACTOR_CYCLE, c
        assert out.iterations < 8 * math.isqrt(p), c


def _race_traces(result):
    return [
        (race.factor, race.rounds, race.winner, [(o.kind, o.iterations) for o in race.worker_outcomes])
        for race in result.stats.races
    ]


def test_no_budget_races_as_an_unreachable_budget(table_1e6):
    # No seeded composite's walk comes near a budget, so dropping the
    # budget changes no race: the same factors, rounds, winners and steps.
    for seed in range(4):
        n = gen_input(30, 7, seed)
        unbudgeted = factorize(n, RaceConfig(workers=1), table_1e6)
        budgeted = factorize(n, RaceConfig(workers=1, max_iters=10**30), table_1e6)
        assert _race_traces(unbudgeted) == _race_traces(budgeted) != []


def test_params_validation():
    with pytest.raises(ValueError):
        RhoParams.make(8051, c=0, x0=2)
    with pytest.raises(ValueError):
        RhoParams.make(8051, c=8051 - 2, x0=2)  # c == n-2 is the other ban
    with pytest.raises(ValueError):
        RhoParams.make(8051, c=8051, x0=2)  # reduces to 0 mod n
    with pytest.raises(ValueError):
        RhoParams(c=1, x0=9000, max_iters=10, gcd_batch=1).validate_for(8051)
    with pytest.raises(ValueError):
        RhoParams.make(8051, c=1, x0=2, gcd_batch=0)
    with pytest.raises(ValueError):
        RhoParams.make(8051, c=1, x0=2, max_iters=0)


def test_records_are_immutable_and_outcomes_compare_without_their_walk():
    params = RhoParams.make(8051, c=1, x0=2)
    walk = start("brent", params)
    out = resume(8051, walk)
    for record, name in ((params, "c"), (walk, "walked"), (out, "kind"), (out, "walk")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert params._replace(c=3) == RhoParams(3, 2, None)
    assert walk._replace(walked=5).walked == 5 and walk.walked == 0
    bare = RhoOutcome(out.kind, out.iterations, out.factor)
    assert out == bare and not out != bare and hash(out) == hash(bare)
    assert out != RhoOutcome(out.kind, out.iterations + 1, out.factor, out.walk)
    assert repr(out) == repr(bare) == f"RhoOutcome(kind='factor', iterations={out.iterations}, factor={out.factor})"


def test_attempts_reject_bad_n():
    params = RhoParams(c=1, x0=2, max_iters=100, gcd_batch=1)
    for bad in (1, 2, 9**0, 100):
        with pytest.raises(ValueError):
            rho_attempt(bad, params)
        with pytest.raises(ValueError):
            brent_attempt(bad, params)


def test_brent_8051():
    out = brent_attempt(8051, _params(8051, c=1, x0=2))
    assert out.kind == FACTOR
    assert out.factor in (83, 97)
    out_batched = brent_attempt(8051, _params(8051, c=1, x0=2, gcd_batch=128))
    assert out_batched.kind == FACTOR
    assert out_batched.factor in (83, 97)


def test_brent_prime_input_never_factors():
    for n in (101, 7919, 104729):
        out = brent_attempt(n, _params(n, c=1, x0=2, max_iters=10**4))
        assert out.kind in (NO_FACTOR_CYCLE, BUDGET_EXHAUSTED)
        assert out.factor is None


def test_brent_determinism_and_validity():
    rng = random.Random(31)
    for _ in range(100):
        n = _random_semiprime(rng)
        params = _params(n, c=rng.randrange(2, n - 3), x0=rng.randrange(n), gcd_batch=32)
        first = brent_attempt(n, params)
        assert first == brent_attempt(n, params)
        if first.found:
            assert n % first.factor == 0
            assert 1 < first.factor < n


def test_brent_budget_and_cancel():
    n = 1000003 * 1000033
    out = brent_attempt(n, _params(n, c=1, x0=2, max_iters=40, gcd_batch=16))
    assert out.kind == BUDGET_EXHAUSTED
    out = brent_attempt(n, _params(n, c=1, x0=2, gcd_batch=16), cancel=lambda steps: True)
    assert out.kind == CANCELLED
    assert out.iterations == 0


class _CancelAfter:
    """A cancel that stops the walk from poll `polls` + 1 on."""

    def __init__(self, polls):
        self.polls = polls

    def __call__(self, steps):
        self.polls -= 1
        return self.polls < 0


@pytest.mark.parametrize(
    "attempt, grid",
    [(rho_attempt, golden_attempts.FLOYD), (brent_attempt, golden_attempts.BRENT)],
    ids=["floyd", "brent"],
)
def test_attempts_match_recorded_outcomes(attempt, grid):
    # Budget, cancel cadence, batch gcd and collapsed-batch replay all show
    # in (kind, iterations, factor); the grid holds every kind.
    assert len(grid) >= 200
    assert {row[6] for row in grid} == {FACTOR, NO_FACTOR_CYCLE, BUDGET_EXHAUSTED, CANCELLED}
    for n, c, x0, max_iters, gcd_batch, cancel_after, *want in grid:
        cancel = None if cancel_after is None else _CancelAfter(cancel_after)
        out = attempt(n, RhoParams(c, x0, max_iters, gcd_batch), cancel)
        assert [out.kind, out.iterations, out.factor] == want, (n, c, x0, max_iters, gcd_batch)


@pytest.mark.parametrize("attempt", [rho_attempt, brent_attempt], ids=["floyd", "brent"])
def test_resumed_walk_matches_one_uninterrupted_walk(attempt):
    # Stop a walk at a batch boundary, resume it: the same outcome, the
    # same end state and, over both calls, the same steps as one walk.
    rng = random.Random(20261018)
    stopped = 0
    for _ in range(60):
        n = _random_semiprime(rng)
        batch = rng.choice([1, 3, 16, 128])
        params = _params(n, c=rng.randrange(1, n - 2), x0=rng.randrange(n), gcd_batch=batch)
        whole = attempt(n, params)
        first = attempt(n, params, _CancelAfter(rng.randrange(1, 8)))
        if first.kind != CANCELLED:
            assert first == whole
            continue
        stopped += 1
        assert first.walk.walked == first.iterations
        rest = resume(n, first.walk)
        assert (rest.kind, rest.factor) == (whole.kind, whole.factor)
        assert first.iterations + rest.iterations == whole.iterations
        assert rest.walk == whole.walk
    assert stopped >= 20


@pytest.mark.parametrize("attempt", [rho_attempt, brent_attempt], ids=["floyd", "brent"])
def test_resumed_walk_spends_only_what_is_left_of_its_budget(attempt):
    n = 1000000000000037 * 3000000000000037  # no factor within the budget
    params = RhoParams.make(n, c=1, x0=2, max_iters=1000, gcd_batch=16)
    first = attempt(n, params, _CancelAfter(10))
    assert first.kind == CANCELLED
    out = resume(n, Walk(first.walk.detector, params, first.walk.state, 960))
    assert out == RhoOutcome(BUDGET_EXHAUSTED, 40)
    assert out.walk.walked == 1000
    spent = resume(n, out.walk)
    assert spent == RhoOutcome(BUDGET_EXHAUSTED, 0)


def test_walk_over_a_divisor_is_the_walk_mod_that_divisor():
    p, q = 1000003, 1000033
    n = p * q * 1000037
    m = q * 1000037
    params = RhoParams.make(n, c=m + 5, x0=n - 1)
    walk = brent_attempt(n, params, _CancelAfter(3)).walk
    reduced = walk.over(m)
    assert reduced.params == RhoParams(5, (n - 1) % m, params.max_iters, params.gcd_batch)
    assert reduced.state == (walk.state[0] % m, walk.state[1] % m, *walk.state[2:])
    assert reduced.walked == walk.walked
    # The walk mod m is the walk a start of x0 mod m takes with c mod m.
    direct = brent_attempt(m, reduced.params, _CancelAfter(3)).walk
    assert direct.state == reduced.state
    # c congruent to 0 or -2 mod m gives a degenerate polynomial there.
    for c in (m, 2 * m - 2):
        assert Walk(walk.detector, RhoParams.make(n, c, 0), walk.state, 0).over(m) is None
