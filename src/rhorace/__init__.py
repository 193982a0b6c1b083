"""Parallel integer factorization: Pollard's rho raced across cores.

The public surface names what users call, stage by stage: the primality
test, the sieve pre-pass, single rho attempts, the multi-worker race, and
the recursive factorization driver with its verifier.  Helpers below that,
such as the decimal wire format, stay importable from their modules.  The
benchmark harness (BenchSuite, gen_input, run_suite, summarize, the CSV
writer and the plot script) is imported from rhorace.bench, so importing
the package or the factoring pipeline does not load it.
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
    "__version__",
]

