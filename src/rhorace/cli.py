"""Command line front end: factor numbers, generate inputs, run benchmarks.

One exit policy holds for every subcommand, and main applies it: a
command raises, and main prints one "error: ..." line on stderr.  Exit
codes: 0 success; 2 bad input, a ValueError found before any work (or a
usage error from argparse); 1 a runtime failure, a RuntimeError or
OSError (an incomplete factorization, a race worker that raised, was lost
or could not start, a failed bench verification, I/O trouble), and
selftest failures; 130 a run stopped by Ctrl-C (SIGINT), after the line
"error: interrupted".  A reader of stdout that leaves early, as `| head`
does, ends the command quietly with exit 0.  Only factor handles an error
itself: an incomplete factorization prints the primes found, then names
the pending cofactors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import race as race_mod
from . import rho as rho_mod
from .numeric import gcd, parse_natural, render_natural
from .pipeline import Factorization, FactorizationIncomplete, factorize, verify
from .race import RaceConfig
from .rho import RhoParams, rho_attempt
from .sieve import sieve


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("expected positive integers")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhorace",
        description="Parallel Pollard's rho factorization with a first-factor-wins race.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor one number")
    p_factor.add_argument("n", help="decimal natural to factor")
    p_factor.add_argument("--workers", type=int, default=0, help="race width (0 = all cores)")
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--json", action="store_true", help="emit a JSON object")
    p_factor.add_argument(
        "--detector",
        choices=sorted(rho_mod.DETECTORS),
        default=RaceConfig.detector,
        help="cycle detector (default: %(default)s)",
    )
    p_factor.add_argument("--max-iters", type=int, default=None, help="per-walk budget (default: none)")
    p_factor.add_argument("--gcd-batch", type=int, default=rho_mod.DEFAULT_GCD_BATCH)
    p_factor.set_defaults(func=cmd_factor)

    p_gen = sub.add_parser("gen", help="generate benchmark-style composites")
    p_gen.add_argument("--digits", type=int, required=True)
    p_gen.add_argument("--small", type=int, default=10, help="digits of the planted small prime")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a timing suite and write CSVs")
    p_bench.add_argument("--classes", type=_int_list, default=None, help="digit classes, e.g. 20,30,40")
    p_bench.add_argument("--per-class", type=int, default=5)
    p_bench.add_argument("--workers", type=_int_list, default=None, help="worker counts, e.g. 1,2,4")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--small-digits", type=int, default=None)
    p_bench.add_argument("--out", default="bench_out", help="output directory")
    p_bench.add_argument(
        "--full",
        action="store_true",
        help="use the full experiment shape: 50/100/200 digits, 5 inputs, 1/2/4 workers (slow)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="run built-in correctness checks")
    p_self.add_argument("--limit", type=int, default=100_000, help="oracle sweep upper bound")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def cmd_factor(args) -> int:
    n = parse_natural(args.n)
    config = RaceConfig(
        workers=args.workers,
        seed=args.seed,
        detector=args.detector,
        max_iters=args.max_iters,
        gcd_batch=args.gcd_batch,
    )
    try:
        result = factorize(n, config)
    except FactorizationIncomplete as exc:
        for p, k in exc.partial.ordered():
            print(f"{p}^{k}")
        print(
            f"error: gave up on cofactor {exc.stubborn}; "
            f"n = (the primes printed) * {' * '.join(map(str, exc.pending))}",
            file=sys.stderr,
        )
        return 1
    if args.json:
        payload = {
            "input": render_natural(n),
            "factors": [{"p": render_natural(p), "k": k} for p, k in result.ordered()],
            "wall_time_s": result.stats.total_s,
            "workers": config.resolved_workers(),
        }
        print(json.dumps(payload))
    else:
        for p, k in result.ordered():
            print(f"{p}^{k}")
    return 0


def cmd_gen(args) -> int:
    from .bench import _derive_seed, gen_input

    if args.count < 1:
        raise ValueError("--count must be >= 1")
    for i in range(args.count):
        seed = args.seed if args.count == 1 else _derive_seed(args.seed, args.digits, i)
        print(gen_input(args.digits, args.small, seed))
    return 0


def cmd_bench(args) -> int:
    from . import bench as bench_mod

    classes = args.classes or ([50, 100, 200] if args.full else list(bench_mod.DESK_CLASSES))
    workers = args.workers or list(bench_mod.DEFAULT_WORKER_COUNTS)
    small = args.small_digits
    if small is None and args.full:
        small = 10
    suite = bench_mod.BenchSuite(
        digit_classes=classes,
        numbers_per_class=args.per_class,
        worker_counts=workers,
        seed=args.seed,
        small_factor_digits=small,
    )
    if args.per_class < 1:
        raise ValueError("--per-class must be >= 1")
    if 1 not in workers:
        raise ValueError("--workers must include 1, the baseline of every speedup")
    # run_suite builds every input, and so rejects a digit size gen_input
    # cannot build, before its first timing.
    records = bench_mod.run_suite(suite, RaceConfig(seed=args.seed))
    rows = bench_mod.summarize(records)
    os.makedirs(args.out, exist_ok=True)
    bench_mod.write_csv(records, bench_mod.BenchRecord._fields, os.path.join(args.out, "records.csv"))
    bench_mod.write_csv(rows, bench_mod.SummaryRow._fields, os.path.join(args.out, "summary.csv"))
    bench_mod.write_plot_script(os.path.join(args.out, "plot_speedup.py"))
    print(f"{'digits':>8} {'workers':>8} {'mean_ms':>12} {'speedup':>8}")
    for row in rows:
        print(
            f"{row.digit_class:>8} {row.workers:>8} "
            f"{row.mean_time_s * 1e3:>12.3f} {row.speedup_vs_1:>8.2f}"
        )
    print(f"wrote records.csv, summary.csv, plot_speedup.py to {args.out}")
    return 0


def _oracle_factorize(n: int) -> dict[int, int]:
    """Schoolbook trial division, independent of the pipeline."""
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


def _selftest_checks(limit: int):
    def check_sieve():
        got = sieve(100).primes
        want = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        if got != want:
            return f"sieve(100) returned {got}"

    def check_gcd():
        cases = [((12, 18), 6), ((0, 8051), 8051), ((2813, 8051), 97)]
        for (a, b), want in cases:
            if gcd(a, b) != want:
                return f"gcd{(a, b)} != {want}"

    # Each walk has a budget, so that a broken attempt loop fails a check
    # instead of walking forever.
    def check_rho():
        out = rho_attempt(8051, RhoParams.make(8051, c=1, x0=2, max_iters=10**5, gcd_batch=1))
        if not out.found or out.factor not in (83, 97):
            return f"rho on 8051 returned {out}"

    def check_race():
        outcome = race_mod.race_factor(8051, RaceConfig(workers=1, seed=1, max_iters=10**5))
        if 8051 % outcome.factor or outcome.factor in (1, 8051):
            return f"race on 8051 returned {outcome.factor}"

    def check_verify():
        good = Factorization(10, {2: 1, 5: 1})
        bad = Factorization(10, {2: 1, 3: 1})
        if not verify(good) or verify(bad):
            return "verify mislabeled a hand-built factorization"

    def check_sweep():
        config = RaceConfig(workers=1, seed=0)
        for n in range(1, limit + 1):
            got = factorize(n, config).factors
            want = _oracle_factorize(n)
            if got != want:
                return f"factorize({n}) = {got}, oracle says {want}"

    return [
        ("sieve-small", check_sieve),
        ("gcd-spots", check_gcd),
        ("rho-8051", check_rho),
        ("race-single-worker", check_race),
        ("verify-hand-built", check_verify),
        (f"oracle-sweep-to-{limit}", check_sweep),
    ]


def cmd_selftest(args) -> int:
    if args.limit < 1:
        raise ValueError("--limit must be >= 1")
    failures = 0
    for name, check in _selftest_checks(args.limit):
        try:
            problem = check()
        except Exception as exc:
            problem = repr(exc)
        if problem is None:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {problem}")
            failures += 1
    print(f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader is gone: stop quietly
        # What stdout still buffers goes to devnull at shutdown, not to EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # every race has stopped and reaped its children
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
