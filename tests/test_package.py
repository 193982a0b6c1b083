"""The package's top-level surface: the names users call, and no more."""

import rhorace
from rhorace import bench, numeric

PUBLIC = [
    "BUDGET_EXHAUSTED",
    "BenchSuite",
    "CANCELLED",
    "FACTOR",
    "FactorSearchExhausted",
    "Factorization",
    "FactorizationIncomplete",
    "NO_FACTOR_CYCLE",
    "PipelineStats",
    "PrimeTable",
    "RaceConfig",
    "RaceOutcome",
    "RhoOutcome",
    "RhoParams",
    "__version__",
    "brent_attempt",
    "default_max_iters",
    "factorize",
    "gen_input",
    "is_probable_prime",
    "race_factor",
    "rho_attempt",
    "run_suite",
    "sieve",
    "summarize",
    "trial_divide",
    "verify",
]

# What perfbench imports from the top-level package.
PERFBENCH_IMPORTS = [
    "RaceConfig",
    "factorize",
    "race_factor",
    "sieve",
    "verify",
    "pipeline",
    "is_probable_prime",
    "trial_divide",
]


def test_top_level_names_only_what_users_call():
    assert sorted(rhorace.__all__) == PUBLIC
    for name in rhorace.__all__:
        assert hasattr(rhorace, name), name
    for name in PERFBENCH_IMPORTS:
        assert hasattr(rhorace, name), name
    # Dropped from the top level, still importable from their modules.
    for module, names in [
        (numeric, ["gcd", "parse_natural", "render_natural"]),
        (bench, ["BenchRecord", "SummaryRow", "write_plot_script",
                 "write_records_csv", "write_summary_csv"]),
    ]:
        for name in names:
            assert hasattr(module, name), name
