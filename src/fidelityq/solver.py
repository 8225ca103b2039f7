"""Value iteration over the model's factored pair kernel and exact policy
evaluation over the policy's dense rows, gathered from the same tables."""

from dataclasses import dataclass, field

import numpy as np

from .actions import TIE_ORDER, from_symbol
from .config import DEFAULTS, check_count, check_positive
from .errors import PolicyMismatchError

DEFAULT_EPSILON = DEFAULTS["solver"]["epsilon"]
DEFAULT_MAX_SWEEPS = DEFAULTS["solver"]["max_sweeps"]

# one-letter symbol of each action, indexed like the rows of ``model.admits``
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
    """One synchronous optimality backup of the ``(n_q, n_cog)`` value table
    over the model's factored kernel: ``(values, q_values)``. The values
    padded with L copies of their capacity row hold the clamp
    V[min(s + k, L), c'] from offset s * n_cog, so the Hankel gather is one
    window over them with a row per start. One product of its copy with
    the stacked arrival weights gives every (start, law) expectation, and
    one gather lays them out as the action-major Q table (``model.cell``),
    -inf where an action is not admitted; each state's value is its
    maximum over the leading axis."""
    n_q, n_cog = model.n_q, model.n_cog
    padded = np.empty((2 * n_q - 1, n_cog))
    padded[:n_q] = values
    padded[n_q:] = padded[n_q - 1]
    window = np.ndarray((n_q, model.n_states), buffer=padded, strides=padded.strides)
    after = window.copy() @ model.hankel_weights
    q_values = model.cell_reward + after.take(model.cell)
    return np.maximum.reduce(q_values).reshape(n_q, n_cog), q_values


def value_iteration(model, epsilon=DEFAULT_EPSILON, max_sweeps=DEFAULT_MAX_SWEEPS):
    """Iterate optimality backups from the all-zero table.

    Stops when the sup-norm change drops to ``epsilon``. Non-convergence
    within ``max_sweeps`` is reported through ``converged``, not raised.
    The greedy policy is the last sweep's first best action in ``TIE_ORDER``.
    """
    check_count("max_sweeps", max_sweeps)
    check_positive("epsilon", epsilon)
    values = np.zeros((model.n_q, model.n_cog))
    history = []
    for _ in range(max_sweeps):
        new_values, q_values = bellman_backup(model, values)
        history.append(float(abs(new_values - values).max()))
        values = new_values
        if history[-1] <= epsilon:
            break
    return ValuePolicyTable(
        values=values,
        policy=_SYMBOLS[q_values.argmax(axis=0)].reshape(model.n_q, model.n_cog),
        residual=history[-1],
        sweeps=len(history),
        converged=bool(history[-1] <= epsilon),
        epsilon=epsilon,
        residual_history=history,
    )


def validate_policy(model, policy):
    """Row of each state's action in the action-major (state, action)
    table (``TIE_ORDER`` index), in flat state order; the first state
    (row-major) whose action it does not admit raises, on an unknown symbol
    as ``from_symbol`` does."""
    symbols = np.asarray(policy).astype(str)
    if symbols.shape != (model.n_q, model.n_cog):
        raise PolicyMismatchError(
            f"policy shape {symbols.shape} does not match the "
            f"{model.n_q}x{model.n_cog} state space"
        )
    match = model.admits & (_SYMBOLS[:, None] == symbols.reshape(-1))
    valid = match.any(axis=0)
    if not valid.all():
        q, cog = divmod(int(np.argmin(valid)), model.n_cog)
        a = from_symbol(str(symbols[q, cog]))
        raise PolicyMismatchError(f"policy action {a} inadmissible in state ({q},{cog})")
    return match.argmax(axis=0)


def policy_evaluation(model, policy):
    """Exact value of a stationary policy via the linear fixed point
    (I - T_pi) V = R_pi over the policy's rows, gathered by ``pair_rows``."""
    states = np.arange(model.n_states)
    columns = validate_policy(model, policy)
    lhs, r_pi = model.pair_rows(states, columns), model.cell_reward[columns, states]
    # 0 - t, then 1 - t on the diagonal: the entries of I - T_pi, bit for bit
    np.subtract(0.0, lhs, out=lhs)
    lhs.flat[:: model.n_states + 1] += 1.0
    values = np.linalg.solve(lhs, r_pi)
    return values.reshape(model.n_q, model.n_cog)
