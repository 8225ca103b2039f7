"""Discrete-time birth-death chain for the operator's cognitive state.

The cognitive state lives on the uniform grid {0, 1/N, ..., 1}. Waiting,
resting and the two service fidelities drive the state with their own
forward/backward per-step probabilities and reflective boundaries, so a
step matrix is tridiagonal and row-stochastic. Skipping a task leaves the
state where it is, so it has no rates and no step matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from .actions import UNIT_RATES
from .config import TRUNCATION_TOL, check_chain, check_grid
from .errors import InadmissibleRestError, InvalidRatesError, TailMassError


@dataclass(frozen=True)
class CogGrid:
    """Uniform cognitive grid with a distinguished resting level.

    Parameters
    ----------
    n_intervals : int
        Number of grid intervals N; levels are i/N for i = 0..N.
    star_index : int
        Index of the resting level cog*; must be interior.
    """

    n_intervals: int
    star_index: int

    def __post_init__(self):
        check_grid(self.n_intervals, self.star_index)

    @property
    def n_levels(self):
        return self.n_intervals + 1

    @property
    def star_level(self):
        return self.star_index / self.n_intervals

    def level(self, index):
        return index / self.n_intervals


@dataclass(frozen=True)
class ChainRates:
    """Per-action forward/backward per-step transition probabilities.

    ``probs[action] = (p_forward, p_backward)`` for exactly the actions of
    ``UNIT_RATES``. Rows must stay stochastic (p_f + p_b <= 1) and respect
    the drift directions: relaxation dominates for WAIT and REST, excitation
    dominates for NORMAL and HIGH with the high-fidelity push strictly
    stronger.
    """

    probs: dict = field(default_factory=dict)

    def __post_init__(self):
        if set(self.probs) != set(UNIT_RATES):
            raise InvalidRatesError(
                "chain rates must cover exactly the actions "
                f"{''.join(map(str, UNIT_RATES))}, got {''.join(map(str, self.probs))}"
            )
        probs = {a: tuple(float(x) for x in self.probs[a]) for a in UNIT_RATES}
        check_chain(probs)
        object.__setattr__(self, "probs", probs)


def build_step_matrix(grid, rates, action):
    """Assemble the tridiagonal reflective step matrix for one action.

    Interior row i carries (p_b, 1 - p_f - p_b, p_f) on the sub-, main and
    super-diagonal; the bottom row reflects as (1 - p_f, p_f) and the top
    row as (p_b, 1 - p_b).

    Parameters
    ----------
    grid : CogGrid
    rates : ChainRates
    action : Action

    Returns
    -------
    ndarray, shape (n_levels, n_levels)
        Read-only.
    """
    pf, pb = rates.probs[action]
    n = grid.n_levels
    m = np.zeros((n, n))
    m.flat[1 :: n + 1] = pf  # super-diagonal
    m.flat[n :: n + 1] = pb  # sub-diagonal
    m.flat[:: n + 1] = 1.0 - pf - pb
    m[0, 0], m[-1, -1] = 1.0 - pf, 1.0 - pb
    m.setflags(write=False)
    return m


def step_powers(step, t_max):
    """Matrix powers P^0 .. P^t_max stacked as one array.

    Computed by repeated multiplication, P^t = P^(t-1) @ P, so the whole
    ladder is available at once to the kernel's per-action tables
    (``SmdpModel._action_weights``).
    An ergodic chain's float64 ladder reaches a fixed point: once a product
    has the same bytes as its input, every later product takes those same
    input bits and so returns them again. The loop stops there and copies
    that matrix into the rest of the ladder, which is therefore bit-identical
    to running every product.
    """
    n = len(step)
    out = np.empty((t_max + 1, n, n))
    out[0] = np.eye(n)
    last = out[0].tobytes()
    for t in range(1, t_max + 1):
        out[t] = out[t - 1] @ step
        current = out[t].tobytes()
        if current == last:
            out[t + 1 :] = out[t]
            break
        last = current
    return out


def _transient_blocks(step, grid):
    """Sub-matrix over levels above the resting level and the one-step
    absorption column into the resting level and below."""
    start = grid.star_index + 1
    q_block = step[start:, start:]
    absorb = step[start:, : start].sum(axis=1)
    return q_block, absorb


def mean_first_passage(step, grid):
    """Exact mean first-passage times down to the resting level from every
    level, one solve of (I - Q) m = 1 over the transient block: an
    ``(n_levels,)`` array, NaN at and below the resting level."""
    q_block, _ = _transient_blocks(step, grid)
    k = q_block.shape[0]
    means = np.full(grid.n_levels, np.nan)
    means[grid.star_index + 1 :] = np.linalg.solve(np.eye(k) - q_block, np.ones(k))
    return means


def fpt_pmf(step, grid, cog_index, t_cap):
    """PMF of the first-passage time from ``cog_index`` to the resting level.

    The levels at and below the resting level are made absorbing; the
    probability of first absorption at step k is e' Q^(k-1) r over the
    transient block Q with one-step absorption vector r.

    The rows alpha_t = e' Q^t, t = 0..t_cap, fill one preallocated ladder:
    row t + 1 is row t times Q, written in place (the row views are made
    once, then walked in pairs). That is the same GEMV on
    the same input bits as step t of the loop ``alpha = alpha @ Q``, so
    each row equals the loop's alpha bit for bit. The probabilities are
    then one product of the first t_cap rows with r, and the tail is the
    last row's sum.

    A one-level block (one level above the resting level) makes the ladder
    the running product 1, q, q^2, ..., which ``np.multiply.accumulate``
    rounds once per step as the loop does; ``q ** t`` rounds differently
    (by up to 5e-15 relative over large_gap's 3,000 steps). Each row still
    depends on the one before: no power of Q is formed and no two start
    levels share a product, since both change the last bits.

    Parameters
    ----------
    step : ndarray
        Step matrix of the resting action.
    grid : CogGrid
    cog_index : int
        Starting level, strictly above the resting level.
    t_cap : int
        Truncation point; the PMF is renormalized on {1..t_cap}.

    Returns
    -------
    probs : ndarray, shape (t_cap,)
        Renormalized first-passage probabilities for k = 1..t_cap.
    tail_mass : float
        Probability mass beyond t_cap before renormalization.

    Raises
    ------
    TailMassError
        If the pre-renormalization tail mass exceeds ``TRUNCATION_TOL``.
    """
    if cog_index <= grid.star_index:
        raise InadmissibleRestError(
            "rest is only admissible strictly above the resting level"
        )
    if t_cap < 1:
        raise ValueError("t_cap must be at least 1")
    q_block, absorb = _transient_blocks(step, grid)
    k = q_block.shape[0]
    alphas = np.empty((t_cap + 1, k))
    if k == 1:
        alphas.fill(q_block[0, 0])
        alphas[0] = 1.0
        np.multiply.accumulate(alphas, out=alphas)
    else:
        alphas[0] = 0.0
        alphas[0, cog_index - (grid.star_index + 1)] = 1.0
        rows = list(alphas)
        for cur, nxt in zip(rows, rows[1:]):
            np.dot(cur, q_block, out=nxt)
    probs = alphas[:t_cap] @ absorb
    tail = float(alphas[t_cap].sum())
    if tail > TRUNCATION_TOL:
        raise TailMassError(
            f"first-passage tail mass {tail:.3e} beyond t_cap={t_cap} "
            f"exceeds {TRUNCATION_TOL:.0e}; raise the rest cap factor or speed "
            "up the resting drift"
        )
    total = probs.sum()
    if total <= 0:
        raise TailMassError("first-passage mass vanished inside the cap")
    return probs / total, tail

