"""Fidelity selection over a task queue: model, solver, checks, simulation.

The package splits along the pipeline: ``config`` turns a YAML mapping
into model parameters, ``model`` assembles the decision process,
``solver`` computes the optimal policy, ``structure.grade`` grades it, and
``simulate`` cross-checks values by Monte Carlo. The names re-exported
here cover the common path; everything else is importable from its
submodule. The numerical names, and numpy with them, load on first
access (PEP 562), so resolving a config loads no numpy.
"""

import importlib

from .actions import ACTIONS, Action
from .config import available_configs, builtin_config, load_config, resolve_config
from .errors import FidelityQError

# each name that loads on first access, and the submodule it comes from
_LAZY = {
    "build_model": "model",
    "monte_carlo_value": "simulate",
    **dict.fromkeys(("policy_evaluation", "validate_policy", "value_iteration"), "solver"),
    **dict.fromkeys(("dominance_margins", "grade", "verify_threshold_structure"), "structure"),
}

__all__ = [
    "ACTIONS",
    "Action",
    "FidelityQError",
    "available_configs",
    "builtin_config",
    "build_model",
    "dominance_margins",
    "grade",
    "load_config",
    "monte_carlo_value",
    "policy_evaluation",
    "resolve_config",
    "validate_policy",
    "value_iteration",
    "verify_threshold_structure",
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
