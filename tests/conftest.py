import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from indstab.enumeration import enumerate_graphs
from indstab.verify import VerifyConfig, run_all

_CATALOGS: dict[int, list] = {}


@pytest.fixture(scope="session")
def catalog():
    """catalog(n) -> list of (CanonicalCode, Graph), computed once per session."""

    def get(n: int):
        if n not in _CATALOGS:
            _CATALOGS[n] = list(enumerate_graphs(n))
        return _CATALOGS[n]

    return get


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name, calls=None) rebinds owner.name, a module
    function or a method, to append each call's arguments to `calls` (a new
    list by default) and returns that list; the rebinding ends with the test."""

    def count(owner, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(owner, name)

        def call(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, call)
        return calls

    return count


@pytest.fixture(scope="session")
def jobs():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="session")
def default_report(jobs):
    """run_all at the default configuration, made once: it runs every suite,
    the n = 8 catalog pass and the n = 9 uniqueness search included."""
    return run_all(VerifyConfig(jobs=jobs))
