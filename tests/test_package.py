"""The package's top-level surface: the names users call, and no more."""

import subprocess
import sys

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


def test_import_builds_no_prime_table(src_env):
    # The pre-pass table is built on first use, not at import: a fresh
    # interpreter that only imports the package has an empty cache.
    code = (
        "import rhorace\n"
        "from rhorace import pipeline\n"
        "print(pipeline.default_table.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
