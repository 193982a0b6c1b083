import os
from pathlib import Path

import pytest

import rhorace
from rhorace.sieve import sieve


@pytest.fixture(scope="session")
def table_1e6():
    """The standard pre-pass table, built once for the whole run."""
    return sieve(10**6)


@pytest.fixture
def src_env():
    """This environment with PYTHONPATH set to the tested package's source
    root: pytest's pythonpath setting reaches only its own sys.path, not a
    child interpreter's."""
    return {**os.environ, "PYTHONPATH": str(Path(rhorace.__file__).resolve().parents[1])}
