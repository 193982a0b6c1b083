"""What importing the factoring path loads, checked in fresh interpreters."""

import subprocess
import sys

import pytest


LEFT_OUT = {"rhorace.bench", "csv", "multiprocessing", "pickle", "socket", "dataclasses", "inspect", "signal"}


@pytest.mark.parametrize("module", ["rhorace.pipeline", "rhorace.cli"])
def test_factoring_imports_leave_the_bench_harness_out(module, src_env):
    # The benchmark harness and its csv writers load on first use of a
    # bench name, not with the package or the factor command; race children
    # are bare forks, so no multiprocessing, pickle or socket either.  The
    # records are plain classes and namedtuples, so no dataclasses and the
    # inspect it imports, and signal loads only when a race round closes.
    code = (
        "import sys\n"
        f"import {module}\n"
        f"print(sorted({LEFT_OUT!r} & set(sys.modules)))\n"
        "import rhorace\n"
        "print(rhorace.BenchSuite.__module__)\n"
        "from rhorace import bench\n"
        "print(bench.gen_input is rhorace.gen_input)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "rhorace.bench", "True"]
