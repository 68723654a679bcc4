"""Shared fixtures."""

import pytest

from leobft import auth, cores, netsim
from leobft.model import UsageTensor


@pytest.fixture(autouse=True)
def _no_helpers_between_tests():
    """End every run_scenario helper after each test, so that none is a
    snapshot of an earlier test's monkeypatches."""
    yield
    cores.stop_helpers()


def _counted(calls, fn, key):
    def wrapper(*args):
        calls[key] += 1
        return fn(*args)
    return wrapper


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of message sizings, signs and verifies made while a test runs.

    A sizing is the first raw_size() of a message object, the one that sums
    its field sizes; later calls read the cached size. A verify recomputes its
    tag through sign, so signs include verifies.
    """
    calls = {"size": 0, "sign": 0, "verify": 0}
    raw_size = netsim.Message.raw_size

    def sized(msg):
        calls["size"] += "_raw_size" not in msg.__dict__
        return raw_size(msg)

    monkeypatch.setattr(netsim.Message, "raw_size", sized)
    for owner, name, key in ((auth.KeyRegistry, "sign", "sign"),
                             (auth.KeyRegistry, "verify", "verify")):
        monkeypatch.setattr(owner, name, _counted(calls, getattr(owner, name), key))
    return calls


@pytest.fixture
def tensor_counts(monkeypatch):
    """Counts of tensor parses (UsageTensor.from_canonical) and serializations
    (UsageTensor.canonical_bytes) made while a test runs."""
    calls = {"parse": 0, "serialize": 0}
    parse = UsageTensor.from_canonical.__func__
    monkeypatch.setattr(UsageTensor, "from_canonical",
                        classmethod(_counted(calls, parse, "parse")))
    monkeypatch.setattr(UsageTensor, "canonical_bytes",
                        _counted(calls, UsageTensor.canonical_bytes, "serialize"))
    return calls
