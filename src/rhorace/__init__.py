"""Parallel integer factorization: Pollard's rho raced across cores.

The public surface names what users call, stage by stage: the primality
test, the sieve pre-pass, single rho attempts, the multi-worker race, the
recursive factorization driver with its verifier, and the benchmark
harness.  Helpers below that (the decimal wire format, the CSV writers and
their record types, the plot script) stay importable from their modules.
The benchmark names load rhorace.bench on first use, so that importing the
package or the factoring pipeline does not import the harness and its csv
writers.
"""

from .numeric import is_probable_prime
from .sieve import PrimeTable, sieve, trial_divide
from .rho import (
    BUDGET_EXHAUSTED,
    CANCELLED,
    FACTOR,
    NO_FACTOR_CYCLE,
    RhoOutcome,
    RhoParams,
    brent_attempt,
    default_max_iters,
    rho_attempt,
)
from .race import FactorSearchExhausted, RaceConfig, RaceOutcome, race_factor
from .pipeline import (
    Factorization,
    FactorizationIncomplete,
    PipelineStats,
    factorize,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "is_probable_prime",
    "PrimeTable",
    "sieve",
    "trial_divide",
    "FACTOR",
    "NO_FACTOR_CYCLE",
    "BUDGET_EXHAUSTED",
    "CANCELLED",
    "RhoOutcome",
    "RhoParams",
    "brent_attempt",
    "default_max_iters",
    "rho_attempt",
    "FactorSearchExhausted",
    "RaceConfig",
    "RaceOutcome",
    "race_factor",
    "Factorization",
    "FactorizationIncomplete",
    "PipelineStats",
    "factorize",
    "verify",
    "BenchSuite",
    "gen_input",
    "run_suite",
    "summarize",
    "__version__",
]


_BENCH_NAMES = frozenset({"BenchSuite", "gen_input", "run_suite", "summarize"})


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
