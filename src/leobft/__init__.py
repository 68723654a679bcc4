"""Fault-tolerant spectrum-usage consensus toolkit for simulated LEO constellations."""

from .model import NetworkParams, UsageTensor, binarize, observe
from .approx import averaging_function, round_count, run_approx, shrink_factor
from .binary import run_binary
from .exact import run_exact
from .ledger import TensorLedger, audit_chain, commit_period, export_chain
from .pipeline import PropertyViolation, run_scenario
from .scenario import ConfigError, Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "NetworkParams",
    "PropertyViolation",
    "Scenario",
    "TensorLedger",
    "UsageTensor",
    "audit_chain",
    "averaging_function",
    "binarize",
    "commit_period",
    "export_chain",
    "load_scenario",
    "observe",
    "parse_scenario",
    "round_count",
    "run_approx",
    "run_binary",
    "run_exact",
    "run_scenario",
    "shrink_factor",
    "__version__",
]
