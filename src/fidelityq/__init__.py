"""Fidelity selection over a task queue: model, solver, checks, simulation.

The package splits along the pipeline: ``config`` turns a YAML mapping
into model parameters, ``model`` assembles the decision process,
``solver`` computes the optimal policy, ``structure.grade`` grades it, and
``simulate`` cross-checks values by Monte Carlo. The names re-exported
here cover the common path; everything else is importable from its
submodule.
"""

from .actions import ACTIONS, Action
from .config import available_configs, builtin_config, load_config, resolve_config
from .errors import FidelityQError
from .model import build_model
from .simulate import monte_carlo_value
from .solver import policy_evaluation, validate_policy, value_iteration
from .structure import dominance_margins, grade, verify_threshold_structure

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
