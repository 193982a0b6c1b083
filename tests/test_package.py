"""The package's top-level surface: the names users call, and no more."""

import subprocess
import sys

import rhorace
from rhorace import bench, numeric

PUBLIC = [
    "BUDGET_EXHAUSTED",
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
    "factorize",
    "is_probable_prime",
    "race_factor",
    "rho_attempt",
    "sieve",
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
        (bench, ["BenchSuite", "gen_input", "run_suite", "summarize",
                 "BenchRecord", "SummaryRow", "write_csv", "write_plot_script"]),
    ]:
        for name in names:
            assert hasattr(module, name), name


def test_import_builds_no_prime_table(src_env):
    # The pre-pass table is built on first use, not at import: a fresh
    # interpreter that only imports the package has an empty cache.  The
    # table is then loaded, not sieved, and its primes list is built only
    # when a pre-pass scans a block.  846473095399770657989 has no prime
    # factor under the limit, and 999983 and 7 are each alone in their
    # block's gcd, so none of them scans, not even in block 0, whose square
    # test is 2**2; 3 and 5 share block 0, so 3 * 5 * 1000003 does.
    code = (
        "import sys\n"
        "import rhorace\n"
        "from rhorace import pipeline\n"
        "print(pipeline.default_table.cache_info().currsize)\n"
        "module = sys.modules['rhorace.sieve']\n"
        "calls = []\n"
        "def counted(fn):\n"
        "    def wrapper(*args):\n"
        "        calls.append(fn.__name__)\n"
        "        return fn(*args)\n"
        "    return wrapper\n"
        "rhorace.sieve = module.sieve = counted(module.sieve)\n"
        "module._primes_upto = counted(module._primes_upto)\n"
        "table = pipeline.default_table()\n"
        "rhorace.factorize(846473095399770657989)\n"
        "rhorace.factorize(999983 * 1000003)\n"
        "rhorace.factorize(7 * 1000003)\n"
        "print('primes' in vars(table), calls)\n"
        "result = rhorace.factorize(3 * 5 * 1000003)\n"
        "print('primes' in vars(table), calls, result.factors)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "0",
        "False []",
        "True ['_primes_upto'] {3: 1, 5: 1, 1000003: 1}",
    ]
