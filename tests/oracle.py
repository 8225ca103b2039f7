"""Exact finite-horizon oracle for the solver, built from public model data.

The oracle reads each (level, action) sojourn law through
``model.sojourn(cog, a).support``, the step powers C_a^tau through
``model.powers``, rewards through ``model.reward_table`` and the actions
of a state through ``fidelityq.model.admissible``. Queue moves come from
``scipy.stats.poisson`` here, and the queue-consumption rule and the
level's move (skip stays, rest lands on the resting level) are written out
below, so the oracle shares no arrival code, no level-move code and no row
assembly with the model it checks.
"""

import numpy as np
from scipy import stats

from fidelityq.actions import ACTIONS, Action
from fidelityq.model import admissible


def arrival_rows(rate, taus, start, capacity):
    """Next-queue law from ``start`` pending tasks after each of ``taus``
    time units of Poisson(rate) arrivals, overflow lumped at the capacity:
    one row per tau."""
    lam = rate * np.asarray(taus, dtype=np.float64)[:, None]
    room = capacity - start
    rows = np.zeros((len(lam), capacity + 1))
    rows[:, start:] = stats.poisson.pmf(np.arange(room + 1), lam)
    rows[:, capacity] += stats.poisson.sf(room, lam[:, 0])
    return rows


def level_rows(model, a, times, cog):
    """Next-level law from level ``cog`` after an epoch of ``a`` lasting
    each of ``times`` steps: one row per tau. Skipping leaves the level
    where it is and resting ends on the resting level; waiting and service
    move it by the tau-th step power."""
    if a is Action.SKIP or a is Action.REST:
        rows = np.zeros((len(times), model.n_cog))
        rows[:, cog if a is Action.SKIP else model.grid.star_index] = 1.0
        return rows
    return model.powers[a][np.asarray(times), cog]


def pair_row(model, q, cog, a):
    """Discounted row of the pair (q, cog, a) over the flat states:
    sum over tau of gamma^tau p_tau (queue row outer level row)."""
    times, probs = model.sojourn(cog, a).support
    # wait and rest keep the queue; skip and service take the head task
    # before the epoch's arrivals join
    start = q if a in (Action.WAIT, Action.REST) else max(q - 1, 0)
    queue = arrival_rows(model.params.arrival_rate, times, start, model.n_q - 1)
    weights = model.params.discount**times * probs
    row = np.einsum("t,tq,tc->qc", weights, queue, level_rows(model, a, times, cog))
    return row.reshape(-1)


def finite_horizon_table(model, n_stages, terminal_cost):
    """Exact optimal values of every state over ``n_stages`` epochs with
    terminal value -terminal_cost * q, by backward induction: each stage
    takes, per state, the best admissible reward plus the discounted
    expectation of the previous stage's values."""
    rewards = {a: np.full(model.n_states, -np.inf) for a in ACTIONS}
    rows = {a: np.zeros((model.n_states, model.n_states)) for a in ACTIONS}
    for q in range(model.n_q):
        for cog in range(model.n_cog):
            s = q * model.n_cog + cog
            for a in admissible(q, cog, model.grid):
                rewards[a][s] = model.reward_table(a)[q, cog]
                rows[a][s] = pair_row(model, q, cog, a)
    values = np.repeat(-terminal_cost * np.arange(model.n_q, dtype=np.float64), model.n_cog)
    for _ in range(n_stages):
        values = np.max([rewards[a] + rows[a] @ values for a in ACTIONS], axis=0)
    return values.reshape(model.n_q, model.n_cog)
