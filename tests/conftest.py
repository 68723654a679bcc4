"""Shared fixtures."""

import pytest

from leobft import auth, netsim


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of message sizings, signs and verifies made while a test runs.

    A sizing is the first raw_size() of a message object, the one that sums
    its field sizes; later calls read the cached size. A verify recomputes its
    tag through sign, so signs include verifies.
    """
    calls = {"size": 0, "sign": 0, "verify": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    raw_size = netsim.Message.raw_size

    def sized(msg):
        calls["size"] += "_raw_size" not in msg.__dict__
        return raw_size(msg)

    monkeypatch.setattr(netsim.Message, "raw_size", sized)
    for owner, name, key in ((auth.KeyRegistry, "sign", "sign"),
                             (auth.KeyRegistry, "verify", "verify")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name), key))
    return calls
