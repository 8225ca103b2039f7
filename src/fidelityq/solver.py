"""Value iteration over the model's factored pair kernel and exact policy
evaluation over the policy's dense rows, gathered from the same tables."""

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import TIE_ORDER, from_symbol
from .errors import PolicyMismatchError

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_SWEEPS = 5000

# one-letter symbol of each action, indexed like the columns of ``model.admits``
_SYMBOLS = np.array([a.value for a in TIE_ORDER])


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


def bellman_backup(model, values):
    """One synchronous optimality backup over the model's factored kernel:
    one product of the Hankel gather of the values with the stacked arrival
    weights gives every (start, law) expectation, one gather lays them out
    as the (state, action) table (``model.cell``), and each state takes its
    first best column. Columns run in the fixed tie order, so on exact ties
    the earlier action wins; a column the state does not admit holds -inf
    and never wins."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    after = flat[model.hankel_index] @ model.hankel_weights
    q_values = model.cell_reward + after.take(model.cell)
    best = q_values.argmax(axis=1)
    shape = (model.n_q, model.n_cog)
    return (q_values[np.arange(model.n_states), best].reshape(shape),
            _SYMBOLS[best].reshape(shape))


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
    """Column of each state's action in the (state, action) table
    (``TIE_ORDER`` index), in flat state order; the first state (row-major)
    whose action it does not admit raises, on an unknown symbol as
    ``from_symbol`` does."""
    symbols = np.asarray(policy).astype(str)
    if symbols.shape != (model.n_q, model.n_cog):
        raise PolicyMismatchError(
            f"policy shape {symbols.shape} does not match the "
            f"{model.n_q}x{model.n_cog} state space"
        )
    match = model.admits & (_SYMBOLS == symbols.reshape(-1, 1))
    valid = match.any(axis=1)
    if not valid.all():
        q, cog = divmod(int(np.argmin(valid)), model.n_cog)
        a = from_symbol(str(symbols[q, cog]))
        raise PolicyMismatchError(f"policy action {a} inadmissible in state ({q},{cog})")
    return match.argmax(axis=1)


def policy_evaluation(model, policy):
    """Exact value of a stationary policy via the linear fixed point
    (I - T_pi) V = R_pi over the policy's rows, gathered by ``pair_rows``."""
    states = np.arange(model.n_states)
    columns = validate_policy(model, policy)
    lhs, r_pi = model.pair_rows(states, columns), model.cell_reward[states, columns]
    # 0 - t, then 1 - t on the diagonal: the entries of I - T_pi, bit for bit
    np.subtract(0.0, lhs, out=lhs)
    lhs.flat[:: model.n_states + 1] += 1.0
    values = np.linalg.solve(lhs, r_pi)
    return values.reshape(model.n_q, model.n_cog)
