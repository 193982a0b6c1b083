import os
import time
from pathlib import Path

import pytest

import rhorace
from rhorace import pipeline
from rhorace.sieve import load_table, sieve


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


SLOW_BUILD_S = 0.3


@pytest.fixture
def slow_table_build(monkeypatch):
    """The next factorize call loads the default table, SLOW_BUILD_S slower:
    a time that leaves the load out stays under SLOW_BUILD_S.  The test must
    run the slowed loader exactly once, or the fixture slowed nothing."""
    calls = []

    def slow_load():
        calls.append(None)
        time.sleep(SLOW_BUILD_S)
        return load_table()

    pipeline.default_table.cache_clear()
    monkeypatch.setattr(pipeline, "load_table", slow_load)
    yield SLOW_BUILD_S
    pipeline.default_table.cache_clear()
    assert len(calls) == 1
