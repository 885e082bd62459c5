"""Multi-view sequence summarization with determinantal point processes.

Public API lives in the submodules:

- ``data_model``: sequences, annotations, summaries, shot lists, budgets
- ``io``: binary feature files, JSON annotation/summary files, checkpoints
- ``dpp``: single ground-set kernels, likelihoods, greedy MAP
- ``multi_dpp``: the joint kernel over temporally aligned views
- ``encoder``: the shared recurrent scoring model and its exact gradients
- ``training``: Adam, round-robin split plans, the epoch loop
- ``kts``: change-point segmentation into shots
- ``summarizer``: supervised/unsupervised pipelines and baselines
- ``evaluation``: F1 protocol, consensus, oracle summaries
- ``synth``: deterministic synthetic corpus generator
- ``runtime``: the process-wide allocator policy every pipeline applies
- ``bruteforce``: exhaustive oracles backing the check suites

Submodules import lazily so that process-level knobs (MDPP_THREADS) can be
applied before numpy is loaded.
"""

import importlib

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    MdppError,
    NumericError,
    ShapeError,
    ValidationError,
)

__version__ = "0.1.0"

_SUBMODULES = (
    "bruteforce", "cli", "data_model", "dpp", "encoder", "evaluation",
    "io", "kts", "multi_dpp", "runtime", "summarizer", "synth", "training",
)

__all__ = [
    "ConfigError", "DataError", "FormatError", "MdppError", "NumericError",
    "ShapeError", "ValidationError", "__version__", *_SUBMODULES,
]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
