"""Parallel integer factorization: Pollard's rho raced across cores.

The public surface mirrors the pipeline stages: numeric primitives, the
sieve pre-pass, single rho attempts, the multi-worker race, the recursive
factorization driver, and the benchmark harness.
"""

from .numeric import gcd, is_probable_prime, parse_natural, render_natural
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
    floyd_cycle_index,
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
from .bench import (
    BenchRecord,
    BenchSuite,
    SummaryRow,
    gen_input,
    run_suite,
    summarize,
    write_plot_script,
    write_records_csv,
    write_summary_csv,
)

__version__ = "0.1.0"

__all__ = [
    "gcd",
    "is_probable_prime",
    "parse_natural",
    "render_natural",
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
    "floyd_cycle_index",
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
    "BenchRecord",
    "BenchSuite",
    "SummaryRow",
    "gen_input",
    "run_suite",
    "summarize",
    "write_plot_script",
    "write_records_csv",
    "write_summary_csv",
    "__version__",
]
