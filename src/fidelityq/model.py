"""Assembly of the queueing decision process.

A state is (q, cog): queue length 0..L and cognitive level index on the
grid. Every admissible action induces a sojourn-time distribution, a
cognitive transition over that sojourn and a Poisson queue update, which
together form the discounted semi-Markov kernel the solver consumes, in
the factored form its backup reads.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .actions import ACTIONS, DECREMENT, TIE_ORDER, UNIT_RATES, Action
from .cogchain import build_step_matrix, step_powers
from .config import check_model, wait_support
from .errors import InadmissibleRestError
from .sampling import EpochLaw, SegmentedCdf
from .sojourn import rest_caps, rest_pmf, service_pmf, skip_pmf, wait_pmf


@dataclass(frozen=True)
class ModelParams:
    """Everything needed to assemble the decision process."""

    queue_capacity: int
    grid: object
    rates: object
    service: object
    skip_time: int
    arrival_rate: float
    holding_cost: float
    reward_normal: float
    reward_high: float
    discount: float
    rest_cap_factor: int

    def __post_init__(self):
        check_model(self.queue_capacity, self.skip_time, self.holding_cost,
                    self.reward_normal, self.reward_high, self.discount,
                    self.rest_cap_factor)
        wait_support(self.arrival_rate)  # raises where no wait law can be built


def queue_actions(cog_index, grid):
    """The one admissibility rule: a nonempty queue at level ``cog_index``
    may rest only strictly above the resting level. Actions come in
    ``TIE_ORDER``, the sojourn order skip < rest < normal < high; a
    threshold policy deploys them in reverse as the queue grows."""
    if cog_index > grid.star_index:
        return (Action.SKIP, Action.REST, Action.NORMAL, Action.HIGH)
    return (Action.SKIP, Action.NORMAL, Action.HIGH)


def admissible(q, cog_index, grid):
    """Admissible actions in state (q, cog), in ``TIE_ORDER``: an empty
    queue forces WAIT, otherwise the level's ``queue_actions``."""
    if q == 0:
        return (Action.WAIT,)
    return queue_actions(cog_index, grid)


def arrival_table(rate, taus, capacity):
    """The capped Poisson(rate) arrivals min(W, capacity) over ``taus[i]``
    time units: ``table[i, k]`` is P(W = k) below the capacity and
    P(W >= capacity) at it. From ``start`` tasks the queue moves to
    min(start + k, capacity) with ``table[i, k]``. One broadcast covers the
    (tau, count) grid: the pmf is exp(w log(lam) - log(w!) - lam), and the
    capacity column adds one minus its running sum, so every row sums to
    one."""
    lam = rate * np.asarray(taus)[:, None]
    w = np.arange(capacity + 1)
    log_factorial = np.array([math.lgamma(x + 1.0) for x in range(capacity + 1)])
    table = np.exp(w * np.log(lam) - log_factorial - lam)
    table[:, -1] += np.clip(1.0 - np.cumsum(table, axis=1)[:, -1], 0, 1)
    return table


class SmdpModel:
    """Assembled immutable model: distributions, moment tables, rewards and
    the discounted kernel over the admissible (state, action) pairs, held
    as one action-major table with a row per action in ``TIE_ORDER`` and a
    column per flat state (``admits``, ``cell``, ``cell_reward``; see
    ``_build_table``). The kernel is kept factored (``hankel_weights``, one
    column per sojourn law, read against a window over the clamped values
    at each pair's ``cell``; see ``_build_kernel``); ``pair_rows`` gathers
    the dense rows of the pairs asked for from ``hankel_weights`` alone,
    and no dense kernel is kept. ``service_reward[a]`` is r(a), an epoch's
    reward before holding costs."""

    def __init__(self, params):
        self.params = params
        self.grid = params.grid
        self.n_q = params.queue_capacity + 1
        self.n_cog = self.grid.n_levels
        self.n_states = self.n_q * self.n_cog

        self.steps = {a: build_step_matrix(self.grid, params.rates, a) for a in UNIT_RATES}
        self._sojourns = self._build_sojourns()
        self.n_laws = len(self._sojourns)
        self.powers = self._build_powers()
        self.service_reward = {
            **dict.fromkeys(ACTIONS, 0.0),
            Action.NORMAL: params.reward_normal,
            Action.HIGH: params.reward_high,
        }
        self._taus, self._tau_row, self._tau_discount, self._arrivals = self._build_arrivals()
        self._moments = self._build_moment_tables()
        self.hankel_weights = self._build_kernel()
        self.admits, self.cell, self.cell_reward = self._build_table()
        for table in (self.hankel_weights, self.admits, self.cell, self.cell_reward):
            table.setflags(write=False)

        self.moment_ordering_violations = self._check_moment_ordering()
        if self.moment_ordering_violations:
            warnings.warn(
                f"{len(self.moment_ordering_violations)} sojourn moment-ordering "
                "violations (skip < rest < normal < high); structural "
                "guarantees relying on the ordering may not apply",
                stacklevel=2,
            )
        if not params.skip_time < 1.0 / params.arrival_rate:
            warnings.warn(
                "skip_time >= 1/arrival_rate: the queue is unstable even "
                "under constant skipping",
                stacklevel=2,
            )

    # -- assembly ---------------------------------------------------------

    def _build_sojourns(self):
        """Every (level, action) sojourn law, action by action in ``ACTIONS``
        order and by level within an action: law j is column j of
        ``hankel_weights`` and segment j of ``epoch_law``."""
        grid, params = self.grid, self.params
        rest_step = self.steps[Action.REST]
        # every rest cap is checked before the first first-passage ladder
        caps = rest_caps(rest_step, grid, params.rest_cap_factor)
        # the wait and skip laws do not depend on the level: every level
        # shares one (read-only) law of each
        wait, skip = wait_pmf(params.arrival_rate), skip_pmf(params.skip_time)
        table = {}
        for a in ACTIONS:
            if a in (Action.NORMAL, Action.HIGH):
                # one table over every level, where both fidelities are admissible
                laws = service_pmf(params.service, grid, a)
                table.update(((cog, a), pmf) for cog, pmf in enumerate(laws))
                continue
            for cog in range(self.n_cog):
                if a is Action.WAIT:
                    table[(cog, a)] = wait
                elif a not in queue_actions(cog, grid):
                    continue
                elif a is Action.SKIP:
                    table[(cog, a)] = skip
                else:
                    table[(cog, a)] = rest_pmf(rest_step, grid, cog, caps[cog])
        return table

    def _build_moment_tables(self):
        """Per-action ``(n_cog,)`` tables of the laws' moments and discount
        transforms (NaN where there is no law); a transform reads gamma^tau
        off ``_tau_discount`` and sums over the law's points as the moments do."""
        mu1 = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        mu2 = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        transform = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        for (cog, a), pmf in self._sojourns.items():
            mu1[a][cog], mu2[a][cog] = pmf.mean, pmf.second_moment
            transform[a][cog] = (pmf.probs * self._tau_discount[self._tau_row[pmf.times]]).sum()
        return {"mu1": mu1, "mu2": mu2, "transform": transform}

    def _build_powers(self):
        powers = {}
        for a in (Action.WAIT, Action.NORMAL, Action.HIGH):
            t_max = max(int(self._sojourns[(cog, a)].times[-1]) for cog in range(self.n_cog))
            powers[a] = step_powers(self.steps[a], t_max)
            powers[a].setflags(write=False)
        return powers

    def _build_arrivals(self):
        """The model's one sojourn-length layer, read by the kernel, the
        epoch law and the sampler: ``_taus``, the sorted lengths with
        positive probability under some law (each support marked in one
        boolean array, then ``np.flatnonzero``: no sort, and no
        ``np.unique``, which would import numpy.ma); ``_tau_row``, a dense
        map from a length to its row of ``_taus``; ``_tau_discount``,
        gamma^tau over those rows; and ``_arrivals``, the ``arrival_table``
        of the capped arrivals over them. All are read-only."""
        laws = self._sojourns.values()
        seen = np.zeros(max(int(pmf.times[-1]) for pmf in laws) + 1, dtype=bool)
        for pmf in laws:
            seen[pmf.times] = True
        taus = np.flatnonzero(seen)
        tau_row = np.zeros(len(seen), dtype=np.intp)
        tau_row[taus] = np.arange(len(taus))
        discount = self.params.discount**taus
        arrivals = arrival_table(self.params.arrival_rate, taus, self.n_q - 1)
        for table in (taus, tau_row, discount, arrivals):
            table.setflags(write=False)
        return taus, tau_row, discount, arrivals

    def _action_weights(self, a, per_tau):
        """``(lo, hi, W)``: the joint law of an epoch's sojourn and next level
        under action ``a``, weighted per sojourn length, over the rows lo:hi
        of ``_taus`` that a's laws use. W[r, i, c'] is per_tau[lo + r]
        P(taus[lo + r] | c_i, a) C_a^tau[c_i, c'] for a's law i, at level c_i
        (``_sojourns`` order); the kernel weighs by ``_tau_discount``, the
        epoch law by one. Skip keeps the level and rest lands on the resting
        level, so their W is the weight written into that level's column."""
        cogs = [cog for cog in range(self.n_cog) if (cog, a) in self._sojourns]
        laws = [self._sojourns[(cog, a)] for cog in cogs]
        law = np.repeat(np.arange(len(cogs)), [len(pmf.times) for pmf in laws])
        rows = self._tau_row[np.concatenate([pmf.times for pmf in laws])]
        # every law of a lies in taus[lo:hi], a view of the arrival rows;
        # w[:, i] is per_tau P(tau | cogs[i], a) there, zero off the support
        lo, hi = int(rows.min()), int(rows.max()) + 1
        w = np.zeros((hi - lo, len(cogs)))
        w[rows - lo, law] = per_tau[rows] * np.concatenate([pmf.probs for pmf in laws])
        if a is Action.SKIP or a is Action.REST:
            weights = np.zeros((hi - lo, len(cogs), self.n_cog))
            land = cogs if a is Action.SKIP else self.grid.star_index
            weights[:, np.arange(len(cogs)), land] = w
        else:
            weights = self.powers[a].take(self._taus[lo:hi], axis=0)
            weights *= w[:, :, None]
        return lo, hi, weights

    def _build_kernel(self):
        """The discounted pair kernel in factored form:
        (T V)[(q,cog), a] = sum_{tau,c',q'} gamma^tau P(tau|cog,a)
        C_a_tau[cog,c'] B_tau[q,q'] V[q',c'].

        A row factors as
        T[(q,c),a][(q',c')] = sum_tau B_tau[s, q'] W_a[tau, c, c'] with
        s = start_a(q) the tasks left after the epoch's service and
        W_a[tau, c, :] = gamma^tau P(tau|c,a) C_a_tau[c, :], so each action
        takes one weight table W_a, ``_action_weights(a, _tau_discount)``,
        over the contiguous run of taus its laws use. From start s, B_tau
        moves the queue to min(s + k, L) with ``_arrivals`` at k, so one
        product over tau of W_a with that table gives the block of every
        start: below the capacity the kernel is block-Toeplitz in the queue.

        The products of every action are stacked, column j for law j of
        ``_sojourns``, so ``hankel_weights[(k, c'), j]`` weighs k capped
        arrivals and next level c'. Start s reads it against the Hankel
        gather V[min(s + k, L), c'], a window over the values padded with
        L copies of the capacity row, at the pair's ``cell``; ``pair_rows``
        gathers dense rows by the same clamp."""
        blocks = []
        for a in ACTIONS:
            lo, hi, weights = self._action_weights(a, self._tau_discount)
            product = self._arrivals[lo:hi].T @ weights.reshape(hi - lo, -1)
            blocks.append(product.reshape(self.n_q, *weights.shape[1:]))
        hankel = np.concatenate(blocks, axis=1).transpose(0, 2, 1)
        return hankel.reshape(self.n_states, -1)

    def _build_table(self):
        """The action-major (state, action) table: one row per action in
        ``TIE_ORDER`` and one column per flat state. ``admits`` says whether
        the state allows the action; ``cell`` is the pair's flat (start,
        law) index into the backup's product with ``hankel_weights``, with
        start max(q - d, 0) for the action's decrement d (0 where not
        admitted); ``cell_reward`` is its ``reward_table`` value (-inf where
        not admitted). A state's actions depend only on its level and on
        whether its queue is empty, so two columns per level cover it."""
        allowed = [admissible(q, cog, self.grid) for q in (0, 1) for cog in range(self.n_cog)]
        first = np.array([[a in acts for acts in allowed] for a in TIE_ORDER])
        admits = np.concatenate([first, np.tile(first[:, self.n_cog :], self.n_q - 2)], axis=1)
        law = np.zeros((len(TIE_ORDER), 1, self.n_cog), dtype=np.intp)
        for j, (cog, a) in enumerate(self._sojourns):
            law[TIE_ORDER.index(a), 0, cog] = j
        decrement = np.array([DECREMENT[a] for a in TIE_ORDER])
        start = np.maximum(np.arange(self.n_q)[:, None] - decrement[:, None, None], 0)
        cell = (start * self.n_laws + law).reshape(len(TIE_ORDER), -1)
        rewards = np.stack([self.reward_table(a) for a in TIE_ORDER])
        return (admits, np.where(admits, cell, 0),
                np.where(admits, rewards.reshape(len(TIE_ORDER), -1), -np.inf))

    def pair_rows(self, states, columns):
        """The dense discounted rows ``(len(states), n_states)`` of the pairs
        (``states[i]``, action ``TIE_ORDER[columns[i]]``), cells
        ``(columns[i], states[i])`` of the action-major table, gathered
        from ``hankel_weights``: with (s, j) = divmod(cell, n_laws), the
        entry at (q', c') is ``hankel_weights[(q' - s, c'), j]`` for
        s <= q' < L, 0 below s, and at the capacity L the sum of the rows
        k >= L - s, run from k = L down, which the backup's clamp
        V[min(s + k, L)] adds. Only exact policy evaluation and ``operators``
        read dense rows; solving, grading and simulating never do."""
        cap = self.n_q - 1
        start, law = np.divmod(self.cell[columns, states], self.n_laws)
        moved = self.hankel_weights.reshape(self.n_q, self.n_cog, -1).transpose(2, 0, 1)
        # each law's rows after L zero rows, flattened: the n_states entries
        # from row L - s are start s's row but for its capacity entry
        padded = np.zeros((self.n_laws, cap + self.n_q, self.n_cog))
        padded[:, cap:] = moved
        windows = sliding_window_view(padded.reshape(self.n_laws, -1), self.n_states, axis=1)
        rows = windows[:, :: self.n_cog][law, cap - start]
        rows[:, cap * self.n_cog :] = np.cumsum(moved[:, ::-1], axis=1)[law, start]
        return rows

    @property
    def operators(self):
        """{action: the dense rows of the states admitting it}, gathered by
        ``pair_rows`` when read. Only ``bench/counts.py`` reads it, to size
        the operator bytes."""
        columns = {a: TIE_ORDER.index(a) for a in ACTIONS}
        return {a: self.pair_rows(np.flatnonzero(self.admits[c]), c)
                for a, c in columns.items()}

    # -- accessors --------------------------------------------------------

    def sojourn(self, cog_index, action):
        try:
            return self._sojourns[(cog_index, action)]
        except KeyError:
            if action is Action.REST and 0 <= cog_index <= self.grid.star_index:
                raise InadmissibleRestError(
                    "rest has no sojourn distribution at or below the resting level"
                ) from None
            raise KeyError(f"no sojourn law for level {cog_index} and action {action!r}") from None

    @cached_property
    def epoch_law(self):
        """The joint (tau, next level) law of one epoch for every (level,
        action) with a sojourn law, built on first use and shared by every
        sampler of this model; see ``sampling.EpochLaw``. A law's outcomes
        are its positive entries of ``_action_weights`` at weight one, in
        (tau, next level) order, and its cdf is a running sum along its row
        of that table: the zeros between outcomes leave the sum unchanged."""
        # at most n_cog next levels per positive-probability tau; the buffers
        # are filled in place, so their unused tails are never paged in
        bound = self.n_cog * sum(len(pmf.times) for pmf in self._sojourns.values())
        cdf = np.empty(bound)
        cogs = np.empty(bound, np.min_scalar_type(self.n_cog - 1))
        arrival_row = np.empty(bound, np.min_scalar_type(len(self._taus) - 1))
        lengths = []
        n = 0
        for a in ACTIONS:
            lo, hi, joint = self._action_weights(a, np.ones(len(self._taus)))
            # one row per law, (tau, next level) in tau-major order
            joint = joint.transpose(1, 0, 2).reshape(joint.shape[1], -1)
            outcome = joint > 0
            k = np.count_nonzero(outcome)
            np.cumsum(joint, axis=1, out=joint)
            cdf[n : n + k] = joint[outcome]
            # each entry's next level and row of _taus, laid out like joint
            levels = np.arange(self.n_cog, dtype=cogs.dtype)
            rows = np.arange(lo, hi, dtype=arrival_row.dtype).repeat(self.n_cog)
            flat = outcome.reshape(-1)
            cogs[n : n + k] = np.tile(levels, joint.size // self.n_cog)[flat]
            arrival_row[n : n + k] = np.tile(rows, len(joint))[flat]
            lengths.append(np.count_nonzero(outcome, axis=1))
            n += k
        return EpochLaw(
            cogs=cogs[:n],
            arrival_row=arrival_row[:n],
            cdf=SegmentedCdf(cdf[:n], np.concatenate(lengths)),
        )

    @cached_property
    def arrival_law(self):
        """Capped arrivals over every sojourn length, built on first use and
        shared by every sampler of this model: law ``i`` is that of
        k = min(W, L), W ~ Poisson(rate * taus[i]) and L the capacity: the
        running sum of row i of ``_arrivals``. Outcome k sits at flat
        position ``start[i] + k``; s tasks left after service become
        min(s + k, L). The laws are short, so their guides are kept four
        times finer: Poisson laws of large mean crowd their first bucket."""
        table = np.cumsum(self._arrivals, axis=1)
        return SegmentedCdf(table.reshape(-1), np.full(len(self._taus), self.n_q), refine=2)

    def moment(self, name, action):
        return self._moments[name][action]

    def reward_table(self, action):
        """(n_q, n_cog) table of immediate expected rewards,
        r(a) - c (q mu1 + lam mu2 / 2); NaN where the action has no sojourn
        law."""
        c, lam = self.params.holding_cost, self.params.arrival_rate
        intercept = self.service_reward[action] - 0.5 * c * lam * self._moments["mu2"][action]
        slope = c * self._moments["mu1"][action]
        return intercept[None, :] - slope[None, :] * np.arange(self.n_q)[:, None]

    @cached_property
    def max_discount_transform(self):
        """sup over states and actions of E[gamma^tau]; the solver's
        contraction modulus. Computed on first read: the moment tables
        and ``params`` never change."""
        return float(np.nanmax([self._moments["transform"][a] for a in TIE_ORDER]))

    # -- validation reports ----------------------------------------------

    def _check_moment_ordering(self):
        """Strict sojourn moment ordering skip < rest < normal < high in
        both the mean and the second moment, per admissible level."""
        violations = []
        for name in ("mu1", "mu2"):
            tab = self._moments[name]
            for cog in range(self.n_cog):
                chain = queue_actions(cog, self.grid)
                for lo, hi in zip(chain, chain[1:]):
                    a, b = tab[lo][cog], tab[hi][cog]
                    if not a < b:
                        violations.append(
                            {
                                "moment": name,
                                "cog_index": cog,
                                "pair": (str(lo), str(hi)),
                                "values": (float(a), float(b)),
                            }
                        )
        return violations


def build_model(params):
    """Assemble the decision process from validated parameters."""
    return SmdpModel(params)
