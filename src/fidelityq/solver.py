"""Value iteration over the model's factored pair kernel and exact policy
evaluation over its dense rows."""

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ACTIONS, from_symbol
from .errors import PolicyMismatchError

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_SWEEPS = 5000

# one-letter symbol of each action, indexed like ``model.pair_action``
_SYMBOLS = np.array([a.value for a in ACTIONS])


@dataclass
class ValuePolicyTable:
    """Result of a solve: value table, greedy policy and convergence data.

    ``policy`` holds one-letter action symbols; ``residual_history`` the
    sup-norm change per sweep.
    """

    values: np.ndarray
    policy: np.ndarray
    residual: float
    sweeps: int
    converged: bool
    epsilon: float
    residual_history: list = field(default_factory=list)

    @property
    def contraction_estimate(self):
        h = self.residual_history
        if len(h) < 2 or h[-2] == 0:
            return float("nan")
        return h[-1] / h[-2]


def bellman_backup(model, values):
    """One synchronous optimality backup over the model's factored kernel:
    one product of the Hankel gather of the values with the stacked arrival
    weights gives every (start, law) expectation, one gather lays them out
    as each state's action slots, and each state takes its first best slot;
    slots run in the fixed tie order, so on exact ties the earlier action
    wins."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    after = flat[model.hankel_index] @ model.hankel_weights
    slot_values = model.slot_reward + after.take(model.slot_cell)
    best = slot_values.argmax(axis=1)
    states = np.arange(model.n_states)
    shape = (model.n_q, model.n_cog)
    return (slot_values[states, best].reshape(shape),
            _SYMBOLS[model.slot_action[states, best]].reshape(shape))


def value_iteration(model, epsilon=DEFAULT_EPSILON, max_sweeps=DEFAULT_MAX_SWEEPS):
    """Iterate optimality backups from the all-zero table.

    Stops when the sup-norm change drops to ``epsilon``. Non-convergence
    within ``max_sweeps`` is reported through ``converged``, not raised.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    values = np.zeros((model.n_q, model.n_cog))
    history = []
    for _ in range(max_sweeps):
        new_values, policy = bellman_backup(model, values)
        history.append(float(np.max(np.abs(new_values - values))))
        values = new_values
        if history[-1] <= epsilon:
            break
    return ValuePolicyTable(
        values=values,
        policy=policy,
        residual=history[-1],
        sweeps=len(history),
        converged=bool(history[-1] <= epsilon),
        epsilon=epsilon,
        residual_history=history,
    )


def validate_policy(model, policy):
    """Kernel row of each state's action under a symbol table, in flat
    state order; the first state (row-major) with no such row raises, on an
    unknown symbol as ``from_symbol`` does."""
    symbols = np.asarray(policy).astype(str)
    if symbols.shape != (model.n_q, model.n_cog):
        raise PolicyMismatchError(
            f"policy shape {symbols.shape} does not match the "
            f"{model.n_q}x{model.n_cog} state space"
        )
    match = _SYMBOLS[model.pair_action] == symbols.reshape(-1)[model.pair_state]
    rows = np.full(model.n_states, -1)
    rows[model.pair_state[match]] = np.flatnonzero(match)
    if np.any(rows < 0):
        q, cog = divmod(int(np.argmax(rows < 0)), model.n_cog)
        a = from_symbol(str(symbols[q, cog]))
        raise PolicyMismatchError(f"policy action {a} inadmissible in state ({q},{cog})")
    return rows


def policy_evaluation(model, policy):
    """Exact value of a stationary policy via the linear fixed point
    (I - T_pi) V = R_pi over the policy's kernel rows."""
    rows = validate_policy(model, policy)
    t_pi, r_pi = model.kernel[rows], model.pair_reward[rows]
    values = np.linalg.solve(np.eye(model.n_states) - t_pi, r_pi)
    return values.reshape(model.n_q, model.n_cog)

