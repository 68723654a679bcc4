"""Shared fixtures."""

import pytest

from leobft import auth, netsim


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of message encodes, signs and verifies made while a test runs.

    A verify recomputes its tag through sign, so signs include verifies.
    """
    calls = {"encode": 0, "sign": 0, "verify": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for owner, name, key in ((netsim.Message, "canonical_bytes", "encode"),
                             (auth.KeyRegistry, "sign", "sign"),
                             (auth.KeyRegistry, "verify", "verify")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name), key))
    return calls
