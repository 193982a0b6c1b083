"""First-factor-wins races: the same n attacked with distinct constants.

Different c values give independent pseudo-random orbits, so their collision
times are independent draws; racing k of them and keeping the first factor
collects the minimum.  Worker 0 runs in the calling process and workers
1..k-1 are forked OS processes (CPython threads cannot run big-int
arithmetic in parallel), so a k-worker round forks k-1 children.  The worker
that finds a factor sets a shared event that every attempt polls once per
gcd batch, which cancels the rest, the caller's own attempt included.

race_factor derives each round's RhoParams from its RaceConfig: the
constants 1, 2, 3, ... in the first round, seeded draws after that.
_run_round races any list of RhoParams it is given, one per worker.

A race with workers=1 runs inline in the calling process and is byte-for-byte
a direct call of the configured detector, which keeps single-worker runs
reproducible.  The default detector is Brent's (rho.brent_attempt): it finds
a factor with fewer modular multiplications than Floyd's pairing, which
stays available as detector="floyd".
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from . import rho
from .rho import RhoOutcome, RhoParams

_FORK = multiprocessing.get_context("fork")

DETECTORS = {"floyd": rho.rho_attempt, "brent": rho.brent_attempt}
DEFAULT_MAX_ROUNDS = 16


class FactorSearchExhausted(Exception):
    """Every worker of every retry round failed to produce a factor."""

    def __init__(self, n: int, rounds: int):
        super().__init__(f"no factor of {n} found after {rounds} round(s)")
        self.n = n
        self.rounds = rounds


@dataclass
class RaceConfig:
    """Knobs for race_factor.  workers=0 means the detected core count.

    The first round uses the constants 1, 2, 3, ... (assign_c); retry
    rounds draw fresh constants from a generator seeded with seed,
    excluding every c used so far, and every round draws its start values
    from that generator.  max_iters=None sizes the budget from n at attempt
    time.
    """

    workers: int = 0
    seed: int = 0
    max_iters: int | None = None
    gcd_batch: int = rho.DEFAULT_GCD_BATCH
    detector: str = "brent"
    max_rounds: int = DEFAULT_MAX_ROUNDS

    def resolved_workers(self) -> int:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        return self.workers if self.workers else (os.cpu_count() or 1)


@dataclass
class RaceOutcome:
    """The winning factor plus per-worker accounting for the final round."""

    factor: int
    winner: int
    per_worker_iterations: list[int]
    wall_time_s: float
    rounds: int = 1
    worker_outcomes: list[RhoOutcome] = field(default_factory=list)


def assign_c(workers: int, n: int) -> list[int]:
    """The first round's constants: 1, 2, 3, ... as residues mod n.

    The walk skips the banned residues 0 and n-2 (degenerate polynomials).
    There are exactly n-2 usable residues, so more workers than that is an
    error.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    if workers > n - 2:
        raise ValueError(f"only {n - 2} usable constants exist mod {n}")
    banned = {0, (n - 2) % n}
    out: list[int] = []
    c = 1
    while len(out) < workers:
        if c not in banned:
            out.append(c)
        c += 1
    return out


class _ConstantsExhausted(Exception):
    """No unused residues left to draw; the race gives up early."""


def _draw_distinct_c(rng: random.Random, n: int, count: int, used: set[int]) -> list[int]:
    banned = {0, (n - 2) % n}
    out: list[int] = []
    taken = banned | used
    if count > n - len(taken):
        raise _ConstantsExhausted
    while len(out) < count:
        c = rng.randrange(1, n)
        if c in taken:
            continue
        taken.add(c)
        out.append(c)
    return out


def _worker_main(idx, n, params, detector, cancel, queue):
    attempt = DETECTORS[detector]
    try:
        out = attempt(n, params, cancel)
    except Exception as exc:  # report instead of hanging the coordinator
        queue.put((idx, "error", 0, None, repr(exc)))
        return
    if out.found:
        cancel.set()
    queue.put((idx, out.kind, out.iterations, out.factor, None))


def _run_round(n, params_list, detector):
    """Race params_list[i] as worker i: 1..k-1 in forked children, 0 here.

    Returns (outcomes by worker index, index of the first worker whose
    factor reached the queue, or None).  The worker that finds a factor
    sets the cancel event, so the others, the caller's own attempt
    included, stop at their next batch boundary.  A child that exits
    without reporting fails the round with RuntimeError.  On every way out,
    errors and KeyboardInterrupt included, children still alive are
    terminated and all are joined, so no worker computation survives this
    call.
    """
    cancel = _FORK.Event()
    queue = _FORK.SimpleQueue()
    reader = queue._reader  # waitable alongside the process sentinels
    procs = {
        i: _FORK.Process(
            target=_worker_main,
            args=(i, n, params, detector, cancel, queue),
            daemon=True,
        )
        for i, params in enumerate(params_list)
        if i > 0
    }
    try:
        for p in procs.values():
            p.start()
        _worker_main(0, n, params_list[0], detector, cancel, queue)
        results: dict[int, RhoOutcome] = {}
        errors: list[tuple[int, str]] = []
        winner = None
        running = {p.sentinel: i for i, p in procs.items()}
        while len(results) < len(params_list):
            ready = wait([reader, *running])
            # A child writes its report before it exits, so a child that
            # has exited while the reader holds nothing more is lost.
            if reader.poll():
                idx, kind, iters, factor, err = queue.get()
                results[idx] = RhoOutcome(kind, iters, factor)
                if err is not None:
                    errors.append((idx, err))
                elif kind == rho.FACTOR and winner is None:
                    winner = idx
                continue
            for sentinel in ready:
                idx = running.pop(sentinel)
                if idx not in results:
                    procs[idx].join()
                    raise RuntimeError(
                        f"race worker {idx} exited with code "
                        f"{procs[idx].exitcode} without reporting"
                    )
        if errors:
            raise RuntimeError(f"race worker(s) failed: {errors}")
        return [results[i] for i in range(len(params_list))], winner
    finally:
        for p in procs.values():
            if p.is_alive():
                p.terminate()
        for p in procs.values():
            if p.pid is not None:
                p.join()
        queue.close()


def race_factor(n: int, config: RaceConfig | None = None) -> RaceOutcome:
    """Find one nontrivial factor of n by racing workers, first factor wins.

    n must be an odd composite; the pipeline guarantees on top of that that
    n has no prime factor under the pre-pass limit, but the race itself only
    checks what it can cheaply.  Rounds retry with fresh constants until a
    factor appears or config.max_rounds rounds have failed, which raises
    FactorSearchExhausted.
    """
    config = config or RaceConfig()
    if n < 3 or n % 2 == 0:
        raise ValueError(f"race expects an odd n >= 3, got {n}")
    workers = config.resolved_workers()
    if config.detector not in DETECTORS:
        raise ValueError(f"unknown detector {config.detector!r}")
    if config.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    attempt = DETECTORS[config.detector]
    rng = random.Random(config.seed)
    used: set[int] = set()
    start = time.perf_counter()
    for round_no in range(config.max_rounds):
        if round_no == 0:
            cs = assign_c(workers, n)
        else:
            try:
                cs = _draw_distinct_c(rng, n, workers, used)
            except _ConstantsExhausted:
                raise FactorSearchExhausted(n, round_no) from None
        used.update(cs)
        x0s = [rng.randrange(n) for _ in range(workers)]
        params_list = [
            RhoParams.make(n, c, x0, config.max_iters, config.gcd_batch)
            for c, x0 in zip(cs, x0s)
        ]
        if workers == 1:
            outcome = attempt(n, params_list[0], None)
            outcomes = [outcome]
            winner = 0 if outcome.found else None
        else:
            outcomes, winner = _run_round(n, params_list, config.detector)
        if winner is not None:
            return RaceOutcome(
                factor=outcomes[winner].factor,
                winner=winner,
                per_worker_iterations=[o.iterations for o in outcomes],
                wall_time_s=time.perf_counter() - start,
                rounds=round_no + 1,
                worker_outcomes=outcomes,
            )
    raise FactorSearchExhausted(n, config.max_rounds)
