"""One pass of one workload, in a process of its own so run.py can bound it.

    PYTHONPATH=src python3 perfbench/runner.py --workload W --seed S --seconds T --trace 0|1

A single client factors one input at a time (closed loop) until the time is
up: each input at workers=2, and every other input again at workers=1 (the
baseline of speedup_w2; skipping the odd ones leaves more of the run for
the workers=2 samples).  The order of the calls on an input alternates.
Only factorize is inside the timer; verify and the comparison with the
planted primes come after it.  With --trace 1 those calls are traced, and
one more, untraced workers=2 call on the same input gives the baseline for
the tracing overhead.

Output is JSON lines on stdout, each flushed as soon as it is known, so a
pass killed from outside still leaves every finished input behind: one
"env" line, one "input" line per input, in trace mode one "layers" line, and
an "end" line.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

import rhorace
from rhorace import RaceConfig, factorize, race_factor, sieve, verify
from rhorace import pipeline

import workloads

# Two primes just above the pre-pass limit: a race that ends almost at once,
# so its wall time at workers=2 minus workers=1 is the race's fixed cost.
PROBE = 1_000_003 * 1_000_033
PROBE_REPEATS = 15
SIEVE_REPEATS = 3
# The pipeline looks these names up in its own module at call time.
TRACED_NAMES = ("trial_divide", "is_probable_prime", "race_factor")


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


class WrongResult(Exception):
    """factorize returned something other than the planted primes."""


class Tracer:
    """Spans around the pipeline's calls into its layers, kept in memory.

    A span is a dict: id, name, parent id, input index, worker count, start
    and end (perf_counter seconds); race_factor spans also carry the race
    outcome.  Parents come from a stack, so nesting follows the calls.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.input: int | None = None
        self.workers: int | None = None
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        span = {
            "id": self._next_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "input": self.input,
            "workers": self.workers,
        }
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if name == "race_factor":
            span["race"] = {
                "winner": result.winner,
                "iterations": result.per_worker_iterations,
                "kinds": [o.kind for o in result.worker_outcomes],
                "rounds": result.rounds,
            }
        return result

    @contextmanager
    def installed(self):
        """Route the pipeline's layer calls through this tracer."""
        originals = {name: getattr(pipeline, name) for name in TRACED_NAMES}

        def wrap(name, fn):
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        for name, fn in originals.items():
            setattr(pipeline, name, wrap(name, fn))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(pipeline, name, fn)

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


def check(result, inp: workloads.Input) -> None:
    if not verify(result):
        raise WrongResult(f"verify failed for n={inp.n}")
    got = tuple(sorted(Counter(result.factors).elements()))
    if got != inp.planted:
        raise WrongResult(f"n={inp.n}: got {got}, planted {inp.planted}")


def timed_factorize(inp: workloads.Input, workers: int, tracer: Tracer | None) -> float:
    config = RaceConfig(workers=workers)
    if tracer is None:
        t0 = time.perf_counter()
        result = factorize(inp.n, config)
        elapsed = time.perf_counter() - t0
    else:
        tracer.workers = workers
        with tracer.installed():
            t0 = time.perf_counter()
            result = tracer.call("factorize", factorize, inp.n, config)
            elapsed = time.perf_counter() - t0
    check(result, inp)
    return elapsed


def env_stamp(seed: int) -> dict:
    defaults = RaceConfig()
    return {
        "kind": "env",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "detector": defaults.detector,
        "gcd_batch": defaults.gcd_batch,
        "rhorace_version": rhorace.__version__,
        "rhorace_file": rhorace.__file__,
    }


def layer_probes() -> dict:
    """Per-layer costs measured directly rather than from spans."""
    limit = pipeline.default_table().limit
    builds = []
    for _ in range(SIEVE_REPEATS):
        t0 = time.perf_counter()
        sieve(limit)
        builds.append(time.perf_counter() - t0)
    races: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(PROBE_REPEATS):
        for workers in (2, 1):
            t0 = time.perf_counter()
            race_factor(PROBE, RaceConfig(workers=workers))
            races[workers].append(time.perf_counter() - t0)
    return {
        "kind": "layers",
        "sieve_build_s": statistics.median(builds),
        "race_fixed_s": statistics.median(races[2]) - statistics.median(races[1]),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    emit(env_stamp(args.seed))
    # Warm up outside the timer: table built, fork path and inline path run once.
    for workers in (2, 1):
        factorize(PROBE, RaceConfig(workers=workers))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        emit(layer_probes())

    t_end = time.perf_counter() + args.seconds
    i = 0
    while True:
        inp = workloads.make_input(args.workload, args.seed, i)
        record = {"kind": "input", "i": i, "digits": len(str(inp.n)), "ok": True}
        plan = [("w2_s", 2, tracer)]
        if i % 2 == 0:
            plan.append(("w1_s", 1, tracer))
        if tracer is not None:
            tracer.input = i
            plan.append(("w2_untraced_s", 2, None))
        try:
            for key, workers, tr in plan if i % 4 < 2 else plan[::-1]:
                record[key] = timed_factorize(inp, workers, tr)
        except Exception as exc:  # the pass goes on; run.py counts the failure
            record.update(ok=False, error=repr(exc))
        if tracer is not None:
            record["spans"] = tracer.take()
        emit(record)
        i += 1
        if time.perf_counter() >= t_end:
            break
    emit({"kind": "end", "active_children": len(multiprocessing.active_children())})
    return 0


if __name__ == "__main__":
    sys.exit(main())
