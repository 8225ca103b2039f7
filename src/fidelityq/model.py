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

from .actions import ACTIONS, DECREMENT, TIE_ORDER, Action
from .cogchain import UNIT_RATES, build_step_matrix, step_powers
from .errors import InadmissibleRestError
from .sampling import EpochLaw, SegmentedCdf
from .sojourn import rest_pmf, service_pmf, skip_pmf, wait_pmf


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
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        if self.skip_time < 1 or int(self.skip_time) != self.skip_time:
            raise ValueError("skip_time must be a positive integer")
        if not 0 < self.arrival_rate:
            raise ValueError("arrival rate must be positive")
        if not 0 < 1.0 - math.exp(-self.arrival_rate) < 1:
            raise ValueError("arrival probability per step must be in (0,1)")
        if not 0 < self.holding_cost < math.inf:
            raise ValueError("holding cost must be positive and finite")
        if not math.inf > self.reward_high > self.reward_normal >= 0:
            raise ValueError("rewards must be finite and satisfy high > normal >= 0")
        if not 0 < self.discount < 1:
            raise ValueError("discount factor must lie in (0,1)")
        if self.rest_cap_factor < 1:
            raise ValueError("rest cap factor must be at least 1")


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
    """Poisson(rate) arrivals W over ``taus[i]`` time units, up to the
    capacity: ``pmf[i, w]`` is P(W = w) and ``tail[i, r]`` is P(W >= r).
    From ``start`` tasks the queue moves to ``start + w`` with ``pmf[i, w]``
    below the capacity and to the capacity with ``tail[i, capacity - start]``.
    One broadcast covers the (tau, count) grid: the pmf is
    exp(w log(lam) - log(w!) - lam), and the tail adds one minus its running
    sum, so every start's row sums to one."""
    lam = rate * np.asarray(taus)[:, None]
    w = np.arange(capacity + 1)
    log_factorial = np.array([math.lgamma(x + 1.0) for x in range(capacity + 1)])
    pmf = np.exp(w * np.log(lam) - log_factorial - lam)
    tail = pmf + np.clip(1.0 - np.cumsum(pmf, axis=1), 0, 1)
    return pmf, tail


class SmdpModel:
    """Assembled immutable model: distributions, moment tables, rewards and
    the discounted kernel over the admissible pairs (``pair_state``,
    ``pair_action``, ``pair_reward``; state s's pairs start at
    ``segment_starts[s]``). The kernel is kept factored
    (``hankel_weights`` read through ``hankel_index`` at each pair's
    ``pair_start`` and ``pair_column``; see ``_build_kernel``), with each
    state's pairs also laid out as padded ``slot_*`` rows for the backup;
    the dense ``kernel`` is built only when read. ``service_reward[a]`` is
    r(a), an epoch's reward before holding costs."""

    def __init__(self, params):
        self.params = params
        self.grid = params.grid
        self.n_q = params.queue_capacity + 1
        self.n_cog = self.grid.n_levels
        self.n_states = self.n_q * self.n_cog

        self.steps = {a: build_step_matrix(self.grid, params.rates, a) for a in UNIT_RATES}
        self._sojourns = self._build_sojourns()
        self._moments = self._build_moment_tables()
        self.powers = self._build_powers()
        self.service_reward = {
            **dict.fromkeys(ACTIONS, 0.0),
            Action.NORMAL: params.reward_normal,
            Action.HIGH: params.reward_high,
        }
        self._taus, self._arrival_pmf, self._arrival_tail = self._build_arrivals()
        self.pair_state, self.pair_action, self.segment_starts = self._build_pairs()
        rewards = np.stack([self.reward_table(a).reshape(-1) for a in ACTIONS])
        self.pair_reward = rewards[self.pair_action, self.pair_state]
        (self.pair_start, self.pair_column, self.hankel_index, self.hankel_weights,
         self._tail_weights) = self._build_kernel()
        self.slot_cell, self.slot_reward, self.slot_action = self._build_slots()
        for table in (self.pair_state, self.pair_action, self.segment_starts,
                      self.pair_reward, self.pair_start, self.pair_column,
                      self.hankel_index, self.hankel_weights, self._tail_weights,
                      self.slot_cell, self.slot_reward, self.slot_action):
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
        grid, params = self.grid, self.params
        rest_step = self.steps[Action.REST]
        table = {}
        for cog in range(self.n_cog):
            table[(cog, Action.WAIT)] = wait_pmf(params.arrival_rate)
            for a in queue_actions(cog, grid):
                if a is Action.SKIP:
                    pmf = skip_pmf(params.skip_time)
                elif a is Action.REST:
                    pmf = rest_pmf(rest_step, grid, cog, cap_factor=params.rest_cap_factor)
                else:
                    pmf = service_pmf(params.service, grid, cog, a)
                table[(cog, a)] = pmf
        return table

    def _build_moment_tables(self):
        mu1 = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        mu2 = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        transform = {a: np.full(self.n_cog, np.nan) for a in ACTIONS}
        for (cog, a), pmf in self._sojourns.items():
            mu1[a][cog] = pmf.mean
            mu2[a][cog] = pmf.second_moment
            transform[a][cog] = pmf.discount_transform(self.params.discount)
        return {"mu1": mu1, "mu2": mu2, "transform": transform}

    def _build_powers(self):
        powers = {}
        for a in (Action.WAIT, Action.NORMAL, Action.HIGH):
            t_max = max(int(self._sojourns[(cog, a)].times[-1]) for cog in range(self.n_cog))
            powers[a] = step_powers(self.steps[a], t_max)
            powers[a].setflags(write=False)
        return powers

    def _build_arrivals(self):
        """Sorted sojourn lengths with positive probability under some law,
        and the read-only ``arrival_table`` pmf and tail over them."""
        # sort and drop repeats: np.unique would import numpy.ma (numpy 2.4)
        taus = np.sort(np.concatenate([pmf.support[0] for pmf in self._sojourns.values()]))
        taus = taus[np.append(True, taus[1:] != taus[:-1])]
        pmf, tail = arrival_table(self.params.arrival_rate, taus, self.n_q - 1)
        pmf.setflags(write=False)
        tail.setflags(write=False)
        return taus, pmf, tail

    def _build_pairs(self):
        """Flat state and ``ACTIONS`` index of every admissible pair,
        ordered by state and within a state by ``TIE_ORDER``, and each
        state's first pair."""
        pairs = [
            (s, ACTIONS.index(a))
            for s in range(self.n_states)
            for a in admissible(*divmod(s, self.n_cog), self.grid)
        ]
        states, actions = np.array(pairs).T.copy()
        return states, actions, np.searchsorted(states, np.arange(self.n_states))

    def _build_kernel(self):
        """The discounted pair kernel in factored form:
        (T V)[(q,cog), a] = sum_{tau,c',q'} gamma^tau P(tau|cog,a)
        C_a_tau[cog,c'] B_tau[q,q'] V[q',c'].

        A row factors as
        T[(q,c),a][(q',c')] = sum_tau B_tau[s, q'] W_a[tau, c, c'] with
        s = start_a(q) the tasks left after the epoch's service and
        W_a[tau, c, :] = gamma^tau P(tau|c,a) C_a_tau[c, :], so each action
        takes one weight table W_a over the contiguous run of taus its laws
        use. From start s, B_tau is the arrival pmf shifted by s and the tail
        P(W >= L - s) at the capacity L, so one product over tau of W_a with
        the pmf and one with the tail give the block of every start: below
        the capacity the kernel is block-Toeplitz in the queue.

        The products of every action are stacked, one column per (action,
        level) law; a pair reads column ``pair_column`` from start
        ``pair_start``. ``hankel_weights[(k, c'), col]`` is the pmf product
        for k < L arrivals and the tail product P(W >= L) at k = L;
        ``_tail_weights[s, col, c']`` is the tail product P(W >= L - s) from
        start s. Since P(W >= L - s) = P(L - s <= W < L) + P(W >= L), the
        row of start s against V is ``hankel_weights`` against the Hankel
        gather V[min(s + k, L), c'] (``hankel_index``). The dense ``kernel``
        is scattered from the same tables when it is read."""
        gamma = self.params.discount
        cap = self.n_q - 1
        column = np.full((len(ACTIONS), self.n_cog), -1)
        moved, full = [], []
        for ai, a in enumerate(ACTIONS):
            laws = []
            for cog in range(self.n_cog):
                pmf = self._sojourns.get((cog, a))
                if pmf is not None:
                    times, probs = pmf.support
                    w = gamma**times * probs
                    laws.append((cog, times, w, np.searchsorted(self._taus, times)))
            # every law of a lies in taus[lo:hi], a view of the arrival rows
            lo = min(int(rows[0]) for *_, rows in laws)
            hi = max(int(rows[-1]) for *_, rows in laws) + 1
            cogs = np.array([cog for cog, *_ in laws])
            weights = np.zeros((hi - lo, len(cogs), self.n_cog))
            for i, (cog, times, w, rows) in enumerate(laws):
                weights[rows - lo, i, :] = w[:, None] * self.cog_move(a, times, cog)
            weights = weights.reshape(hi - lo, len(cogs) * self.n_cog)
            shape = (self.n_q, len(cogs), self.n_cog)
            column[ai, cogs] = sum(m.shape[1] for m in moved) + np.arange(len(cogs))
            moved.append((self._arrival_pmf[lo:hi].T @ weights).reshape(shape))
            full.append((self._arrival_tail[lo:hi].T @ weights).reshape(shape))
        moved, full = np.concatenate(moved, axis=1), np.concatenate(full, axis=1)
        hankel = np.concatenate([moved[:cap], full[cap:]]).transpose(0, 2, 1)
        decrement = np.array([DECREMENT[a] for a in ACTIONS])
        q, cog = divmod(self.pair_state, self.n_cog)
        start = np.minimum(np.arange(self.n_q)[:, None] + np.arange(self.n_q), cap)
        return (
            np.maximum(q - decrement[self.pair_action], 0),
            column[self.pair_action, cog],
            (start[:, :, None] * self.n_cog + np.arange(self.n_cog)).reshape(self.n_q, -1),
            hankel.reshape(self.n_states, -1),
            full[::-1].copy(),
        )

    def _build_slots(self):
        """Each state's pairs in one row, as wide as the most actions a state
        has, in ``TIE_ORDER``: a pair's flat (start, column) cell of
        ``hankel_index`` @ ``hankel_weights``, its reward and its ``ACTIONS``
        index. A state with fewer actions repeats its first pair in the empty
        slots at reward -inf, so an argmax over a row picks the state's first
        best action."""
        width = np.diff(np.append(self.segment_starts, len(self.pair_state)))
        slot = np.arange(width.max())
        used = slot < width[:, None]
        pair = self.segment_starts[:, None] + np.where(used, slot, 0)
        cell = self.pair_start * self.hankel_weights.shape[1] + self.pair_column
        return (
            cell[pair],
            np.where(used, self.pair_reward[pair], -np.inf),
            self.pair_action[pair],
        )

    @cached_property
    def kernel(self):
        """The dense ``(n_pairs, n_states)`` kernel, one row per admissible
        pair, scattered from the factored tables on first read; read-only.
        Only exact policy evaluation and ``operators`` read it, so solving,
        grading and simulating never allocate it."""
        cap = self.n_q - 1
        moved = self.hankel_weights.reshape(self.n_q, self.n_cog, -1)
        kernel = np.zeros((len(self.pair_state), self.n_q, self.n_cog))
        for s in range(self.n_q):
            rows = np.flatnonzero(self.pair_start == s)
            cols = self.pair_column[rows]
            kernel[rows, s:cap] = moved[: cap - s, :, cols].transpose(2, 0, 1)
            kernel[rows, cap] = self._tail_weights[s, cols]
        kernel = kernel.reshape(len(self.pair_state), self.n_states)
        kernel.setflags(write=False)
        return kernel

    @property
    def operators(self):
        """{action: that action's rows of the dense ``kernel``}, gathered
        when read (which builds the kernel). Only ``bench/counts.py`` reads
        it, to size the operator bytes."""
        return {a: self.kernel[self.pair_action == i] for i, a in enumerate(ACTIONS)}

    # -- accessors --------------------------------------------------------

    def sojourn(self, cog_index, action):
        pmf = self._sojourns.get((cog_index, action))
        if pmf is None:
            raise InadmissibleRestError(
                "rest has no sojourn distribution at or below the resting level"
            )
        return pmf

    def cog_move(self, action, tau, cog_index):
        """Distribution of the cognitive level after one epoch of ``action``
        lasting ``tau`` steps; an array of taus gives one row per tau."""
        if action is Action.SKIP or action is Action.REST:
            out = np.zeros(np.shape(tau) + (self.n_cog,))
            out[..., cog_index if action is Action.SKIP else self.grid.star_index] = 1.0
            return out
        return self.powers[action][tau, cog_index].copy()

    @cached_property
    def epoch_law(self):
        """The joint (tau, next level) law of one epoch for every (level,
        action) with a sojourn law, built on first use and shared by every
        sampler of this model; see ``sampling.EpochLaw``."""
        segment = np.full((self.n_cog, len(ACTIONS)), -1, dtype=np.intp)
        laws = self._sojourns.values()
        # at most n_cog next levels per positive-probability tau; the
        # buffers are filled in place, and their unused tails are never
        # written, so never paged in
        bound = self.n_cog * sum(len(pmf.support[0]) for pmf in laws)
        cdf = np.empty(bound)
        taus = np.empty(bound, np.min_scalar_type(max(int(pmf.times[-1]) for pmf in laws)))
        cogs = np.empty(bound, np.min_scalar_type(self.n_cog - 1))
        arrival_row = np.empty(bound, np.min_scalar_type(len(self._taus) - 1))
        lengths = []
        n = 0
        for (cog, a), pmf in self._sojourns.items():
            times, probs = pmf.support
            joint = self.cog_move(a, times, cog)
            joint *= probs[:, None]
            outcome = joint > 0
            row, nxt = np.nonzero(outcome)
            k = len(row)
            np.cumsum(joint[outcome], out=cdf[n : n + k])
            taus[n : n + k] = times[row]
            cogs[n : n + k] = nxt
            arrival_row[n : n + k] = np.searchsorted(self._taus, times)[row]
            segment[cog, ACTIONS.index(a)] = len(lengths)
            lengths.append(k)
            n += k
        return EpochLaw(
            segment=segment,
            taus=taus[:n],
            cogs=cogs[:n],
            arrival_row=arrival_row[:n],
            cdf=SegmentedCdf(cdf[:n], lengths),
        )

    @cached_property
    def arrival_law(self):
        """Capped arrivals over every sojourn length, built on first use and
        shared by every sampler of this model: law ``i`` is that of
        k = min(W, L), W ~ Poisson(rate * taus[i]) and L the capacity (the
        arrival pmf below L, its tail at L). Outcome k sits at flat position
        ``start[i] + k``; s tasks left after service become min(s + k, L)."""
        capped = [self._arrival_pmf[:, :-1], self._arrival_tail[:, -1:]]
        table = np.cumsum(np.concatenate(capped, axis=1), axis=1)
        return SegmentedCdf(table.reshape(-1), np.full(len(self._taus), self.n_q))

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

    @property
    def max_discount_transform(self):
        """sup over states and actions of E[gamma^tau]; the solver's
        contraction modulus."""
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
