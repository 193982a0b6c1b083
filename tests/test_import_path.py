"""What importing the factoring path loads, checked in fresh interpreters."""

import subprocess
import sys

import pytest


LEFT_OUT = {"rhorace.bench", "csv", "multiprocessing", "pickle", "socket", "dataclasses", "inspect", "signal"}


@pytest.mark.parametrize("module", ["rhorace.pipeline", "rhorace.cli"])
def test_factoring_imports_leave_the_bench_harness_out(module, src_env):
    # The benchmark harness and its csv writer load only when imported from
    # rhorace.bench, not with the package or the factor command; race
    # children are bare forks, so no multiprocessing, pickle or socket
    # either.  The records are plain classes and namedtuples, so no
    # dataclasses and the inspect it imports, and signal loads only when a
    # race round closes.  The package names no bench name at all.
    code = (
        "import sys\n"
        f"import {module}\n"
        "import rhorace\n"
        f"print(sorted({LEFT_OUT!r} & set(sys.modules)))\n"
        "print(hasattr(rhorace, 'BenchSuite'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "False"]


def test_bench_import_leaves_dataclasses_out(src_env):
    # The bench records are namedtuples too.
    code = "import sys\nimport rhorace.bench\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]"]
