"""Benchmark harness: seeded inputs, timed suites, speedup summaries.

Inputs are built to factor in interesting ways: one deliberately small prime
so a race has something to find quickly, mid-size fill primes, and one large
prime making up the remaining digits.  Each record's wall time is the
factorization's own stats.total_s, which leaves out the one-time build of
the pre-pass table; every result is verified, and the summary reports mean
times per (digit class, worker count) cell with speedups against the
1-worker baseline.

Plotting is delegated to a generated standalone script so this package never
imports matplotlib itself.
"""

from __future__ import annotations

import csv
import os
import random
import warnings
from dataclasses import dataclass, field

from .numeric import is_probable_prime
from .pipeline import factorize, verify
from .race import RaceConfig

DESK_CLASSES = [20, 30, 40]
DEFAULT_WORKER_COUNTS = [1, 2, 4]


class BenchVerificationError(Exception):
    """A timed factorization failed verification; the suite is untrustworthy."""


def _derive_seed(seed: int, *parts: int) -> int:
    """Stable 64-bit stream id from a suite seed plus cell coordinates."""
    h = (seed & 0xFFFFFFFFFFFFFFFF) ^ 0x9E3779B97F4A7C15
    for part in parts:
        h ^= (part & 0xFFFFFFFFFFFFFFFF) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        h = (h ^ (h >> 31)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return h ^ (h >> 29)


def _random_prime_digits(rng: random.Random, digits: int) -> int:
    """A probable prime with exactly `digits` digits (digits >= 2)."""
    return _random_prime_range(rng, 10 ** (digits - 1), 10**digits - 1)


def _random_prime_range(rng: random.Random, lo: int, hi: int) -> int:
    """A probable prime in [lo, hi]."""
    if hi < lo or hi < 2:
        raise ValueError(f"no primes available in [{lo}, {hi}]")
    for _ in range(100_000):
        cand = rng.randrange(lo, hi + 1) | 1
        if lo <= cand <= hi and is_probable_prime(cand):
            return cand
    raise ValueError(f"failed to find a prime in [{lo}, {hi}]")


def _gen_parts(digits: int, small_factor_digits: int, seed: int) -> list[int]:
    """The construction behind gen_input: the prime parts, small first."""
    if digits < 4:
        raise ValueError("digits must be >= 4")
    if not 2 <= small_factor_digits <= digits // 2:
        raise ValueError("small_factor_digits must lie in [2, digits // 2]")
    rng = random.Random(_derive_seed(seed, digits, small_factor_digits))
    parts = [_random_prime_digits(rng, small_factor_digits)]
    prod = parts[0]
    fill = small_factor_digits + 3
    while digits - len(str(prod)) >= 2 * fill:
        parts.append(_random_prime_digits(rng, fill))
        prod *= parts[-1]
    lo = -(-(10 ** (digits - 1)) // prod)  # ceil
    hi = (10**digits - 1) // prod
    parts.append(_random_prime_range(rng, max(lo, 2), hi))
    return parts


def gen_input(digits: int, small_factor_digits: int = 10, seed: int = 0) -> int:
    """A composite with exactly `digits` digits, deterministic in its args.

    The factorization always contains one prime with exactly
    small_factor_digits digits, zero or more fill primes three digits
    larger, and one final prime sized to land the product exactly on
    `digits` digits.
    """
    parts = _gen_parts(digits, small_factor_digits, seed)
    prod = 1
    for p in parts:
        prod *= p
    return prod


def _small_digits_for(digits: int) -> int:
    # At least 7 digits, so the planted prime survives the 10**6 pre-pass
    # and every desk class races; at most digits // 2, so small classes build.
    return min(8, max(7, digits // 5), digits // 2)


@dataclass
class BenchSuite:
    """What to run: digit classes x inputs per class x worker counts."""

    digit_classes: list[int]
    numbers_per_class: int = 5
    worker_counts: list[int] = field(default_factory=lambda: list(DEFAULT_WORKER_COUNTS))
    seed: int = 0
    small_factor_digits: int | None = None
    inputs: dict[int, list[int]] = field(default_factory=dict)

    def ensure_inputs(self) -> "BenchSuite":
        for digits in self.digit_classes:
            if digits not in self.inputs:
                small = self.small_factor_digits
                if small is None:
                    small = _small_digits_for(digits)
                self.inputs[digits] = [
                    gen_input(digits, small, _derive_seed(self.seed, digits, i))
                    for i in range(self.numbers_per_class)
                ]
        return self


@dataclass
class BenchRecord:
    digit_class: int
    workers: int
    input_index: int
    wall_time_s: float
    factor_count: int  # prime factors counted with multiplicity
    verified: bool


@dataclass
class SummaryRow:
    digit_class: int
    workers: int
    mean_time_s: float
    speedup_vs_1: float


def run_suite(suite: BenchSuite, config: RaceConfig | None = None) -> list[BenchRecord]:
    """Time every cell of the suite; every record is verified or we raise.

    A record's wall_time_s is its factorization's stats.total_s: the
    factorize call without the first call's build of the pre-pass table,
    so the first cell is timed like the rest.  Requesting more workers
    than the machine has cores is allowed but warned about: the ratios then
    measure scheduler noise, not parallel speedup.
    """
    if config is None:
        config = RaceConfig()
    suite.ensure_inputs()
    cores = os.cpu_count() or 1
    if suite.worker_counts and max(suite.worker_counts) > cores:
        warnings.warn(
            f"suite asks for {max(suite.worker_counts)} workers but only "
            f"{cores} core(s) are available; speedups will not be meaningful",
            stacklevel=2,
        )
    records: list[BenchRecord] = []
    for digits in suite.digit_classes:
        for workers in suite.worker_counts:
            cfg = RaceConfig(**{**vars(config), "workers": workers})
            for idx, n in enumerate(suite.inputs[digits]):
                result = factorize(n, cfg)
                if not verify(result):
                    raise BenchVerificationError(
                        f"unverified factorization at class={digits} "
                        f"workers={workers} index={idx} n={n}"
                    )
                records.append(
                    BenchRecord(
                        digit_class=digits,
                        workers=workers,
                        input_index=idx,
                        wall_time_s=result.stats.total_s,
                        factor_count=sum(result.factors.values()),
                        verified=True,
                    )
                )
    return records


def summarize(records: list[BenchRecord]) -> list[SummaryRow]:
    """Mean wall time per (class, workers) cell and speedup vs 1 worker.

    Rejects empty input, duplicate (class, workers, index) keys (two suites
    mixed together), and classes with no 1-worker baseline.
    """
    if not records:
        raise ValueError("no records to summarize")
    seen: set[tuple[int, int, int]] = set()
    sums: dict[tuple[int, int], list[float]] = {}
    for rec in records:
        key = (rec.digit_class, rec.workers, rec.input_index)
        if key in seen:
            raise ValueError(f"duplicate record key {key}: mixed suites?")
        seen.add(key)
        sums.setdefault((rec.digit_class, rec.workers), []).append(rec.wall_time_s)
    means = {cell: sum(times) / len(times) for cell, times in sums.items()}
    rows: list[SummaryRow] = []
    for digits, workers in sorted(means):
        base = means.get((digits, 1))
        if base is None:
            raise ValueError(f"digit class {digits} has no 1-worker baseline")
        mean = means[(digits, workers)]
        rows.append(SummaryRow(digits, workers, mean, base / mean))
    return rows


def write_records_csv(records: list[BenchRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["digit_class", "workers", "input_index", "wall_time_s", "factor_count", "verified"]
        )
        for r in records:
            writer.writerow(
                [
                    r.digit_class,
                    r.workers,
                    r.input_index,
                    repr(r.wall_time_s),
                    r.factor_count,
                    "true" if r.verified else "false",
                ]
            )


def write_summary_csv(rows: list[SummaryRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["digit_class", "workers", "mean_time_s", "speedup_vs_1"])
        for r in rows:
            writer.writerow([r.digit_class, r.workers, repr(r.mean_time_s), repr(r.speedup_vs_1)])


_PLOT_TEMPLATE = '''#!/usr/bin/env python3
"""Plot mean factorization time and speedup per worker count.

Reads summary.csv (written next to this script) and saves speedup.png
alongside it.  The summary is read first; matplotlib is imported only
to render, and is needed for nothing else in the benchmark.  Without it
the script exits nonzero with a one-line message (no traceback) that
says how many rows it read and that speedup.png was not written.
"""
import csv
import sys
from collections import defaultdict
from pathlib import Path

here = Path(__file__).resolve().parent
by_class = defaultdict(list)
with open(here / "summary.csv", newline="") as fh:
    for row in csv.DictReader(fh):
        by_class[int(row["digit_class"])].append(
            (int(row["workers"]), float(row["mean_time_s"]), float(row["speedup_vs_1"]))
        )

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    n_rows = sum(len(rows) for rows in by_class.values())
    sys.exit(
        f"read {n_rows} rows from summary.csv; matplotlib is not installed, "
        "so speedup.png was not written"
    )

fig, (ax_time, ax_speed) = plt.subplots(1, 2, figsize=(11, 4.5))
for digits, rows in sorted(by_class.items()):
    rows.sort()
    workers = [w for w, _, _ in rows]
    ax_time.plot(workers, [t for _, t, _ in rows], marker="o", label=f"{digits}-digit")
    ax_speed.plot(workers, [s for _, _, s in rows], marker="o", label=f"{digits}-digit")
if by_class:
    ideal = sorted({w for rows in by_class.values() for w, _, _ in rows})
    ax_speed.plot(ideal, ideal, linestyle="--", color="grey", label="ideal")
ax_time.set_xlabel("workers")
ax_time.set_ylabel("mean wall time (s)")
ax_time.set_title("Mean factorization time")
ax_speed.set_xlabel("workers")
ax_speed.set_ylabel("speedup vs 1 worker")
ax_speed.set_title("Speedup")
for ax in (ax_time, ax_speed):
    ax.grid(True, alpha=0.3)
    ax.legend()
fig.tight_layout()
fig.savefig(here / "speedup.png", dpi=120)
print(f"wrote {here / 'speedup.png'}")
'''


def write_plot_script(path: str) -> None:
    """Emit a standalone matplotlib script next to summary.csv."""
    with open(path, "w") as fh:
        fh.write(_PLOT_TEMPLATE)
