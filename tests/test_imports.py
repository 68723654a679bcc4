"""Start-up cost: the heavy modules each entry point pulls in.

Each check runs in a fresh interpreter, so nothing a test here or elsewhere
imported first can hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import leobft

SRC = str(Path(leobft.__file__).resolve().parents[1])


def loaded_after(statement):
    """Which of numpy and scipy `statement` leaves in sys.modules."""
    code = (statement + "; import sys; "
            "print(' '.join(m for m in ('numpy', 'scipy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.split()


def test_consensus_entry_points_load_neither_numpy_nor_scipy():
    assert loaded_after("import leobft, leobft.cli, leobft.pipeline") == []


def test_geo_loads_numpy_only():
    assert loaded_after("import leobft.geo") == ["numpy"]
