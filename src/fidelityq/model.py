"""Assembly of the queueing decision process.

A state is (q, cog): queue length 0..L and cognitive level index on the
grid. Every admissible action induces a sojourn-time distribution, a
cognitive transition over that sojourn and a Poisson queue update, which
together form the discounted semi-Markov kernel the solver consumes.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

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
    skip_wait: object
    holding_cost: float
    reward_normal: float
    reward_high: float
    discount: float
    rest_cap_factor: int = 50

    def __post_init__(self):
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least 1")
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
    """Queue moves under Poisson(rate) arrivals for every sojourn length.

    ``table[i, start, q']`` is the probability of going from ``start``
    pending tasks to ``q'`` after ``taus[i]`` time units; overflow mass is
    lumped at the capacity. One broadcast pmf/sf evaluation covers the
    whole (tau, arrival count) grid, with the same ufuncs, dtypes and
    clipping as ``scipy.stats.poisson``, so the entries match it bit for
    bit without importing ``scipy.stats``.
    """
    lam = rate * np.asarray(taus)[:, None]
    w = np.arange(capacity + 1)
    pmf = np.clip(np.exp(special.xlogy(w, lam) - special.gammaln(w + 1) - lam), 0, 1)
    sf = np.clip(special.pdtrc(w, lam), 0, 1)
    table = np.zeros((len(lam), capacity + 1, capacity + 1))
    for start in range(capacity + 1):
        room = capacity - start
        table[:, start, start:] = pmf[:, : room + 1]
        table[:, start, capacity] += sf[:, room]
    return table


class SmdpModel:
    """Assembled immutable model: distributions, moment tables, rewards and
    the discounted ``kernel``, one row per admissible pair (``pair_state``,
    ``pair_action``, ``pair_reward``; state s's rows start at
    ``segment_starts[s]``). ``service_reward[a]`` is r(a), an epoch's reward
    before holding costs."""

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
        self.reward_slope, self.reward_intercept = self._build_reward_components()
        self._taus, self._arrivals = self._build_arrivals()
        self.pair_state, self.pair_action, self.segment_starts = self._build_pairs()
        rewards = np.stack([self.reward_table(a).reshape(-1) for a in ACTIONS])
        self.pair_reward = rewards[self.pair_action, self.pair_state]
        self.kernel = self._build_kernel()
        for table in (self.pair_state, self.pair_action, self.segment_starts,
                      self.pair_reward, self.kernel):
            table.setflags(write=False)

        self.moment_ordering_violations = self._check_moment_ordering()
        self.shape_warnings = self._check_variance_shape()
        if self.moment_ordering_violations:
            warnings.warn(
                f"{len(self.moment_ordering_violations)} sojourn moment-ordering "
                "violations (skip < rest < normal < high); structural "
                "guarantees relying on the ordering may not apply",
                stacklevel=2,
            )
        if not params.skip_wait.stable:
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
            table[(cog, Action.WAIT)] = wait_pmf(params.skip_wait)
            for a in queue_actions(cog, grid):
                if a is Action.SKIP:
                    pmf = skip_pmf(params.skip_wait)
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

    def _build_reward_components(self):
        c = self.params.holding_cost
        lam = self.params.skip_wait.arrival_rate
        slope, intercept = {}, {}
        for a in ACTIONS:
            slope[a] = c * self._moments["mu1"][a]
            intercept[a] = self.service_reward[a] - 0.5 * c * lam * self._moments["mu2"][a]
        return slope, intercept

    def _build_arrivals(self):
        """Sorted sojourn lengths with positive probability under some law,
        and the read-only (tau, start, q') arrival table over them."""
        taus = np.unique(
            np.concatenate([pmf.support[0] for pmf in self._sojourns.values()])
        )
        table = arrival_table(self.params.skip_wait.arrival_rate, taus, self.n_q - 1)
        table.setflags(write=False)
        return taus, table

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
        """Discounted kernel rows of the admissible pairs:
        (T V)[(q,cog), a] = sum_{tau,c',q'} gamma^tau P(tau|cog,a)
        C_a_tau[cog,c'] B_tau[q,q'] V[q',c'].

        A row factors as
        T[(q,c),a][(q',c')] = sum_tau B_tau[start_a(q), q'] W_a[tau, c, c'] with
        W_a[tau, c, :] = gamma^tau P(tau|c,a) C_a_tau[c, :], so each action
        takes one weight table W_a over the contiguous run of taus its laws
        use and, per queue row where it is admissible, one matrix product
        over tau against a view of the arrival table."""
        gamma = self.params.discount
        n_pairs = len(self.pair_state)
        row_of = np.full((len(ACTIONS), self.n_states), -1)
        row_of[self.pair_action, self.pair_state] = np.arange(n_pairs)
        kernel = np.zeros((n_pairs, self.n_q, self.n_cog))
        for ai, a in enumerate(ACTIONS):
            laws = []
            for cog in range(self.n_cog):
                pmf = self._sojourns.get((cog, a))
                if pmf is not None:
                    times, probs = pmf.support
                    w = gamma**times * probs
                    laws.append((cog, times, w, np.searchsorted(self._taus, times)))
            # every law of a lies in taus[lo:hi], a view of the arrival table
            lo = min(int(rows[0]) for *_, rows in laws)
            hi = max(int(rows[-1]) for *_, rows in laws) + 1
            cogs = np.array([cog for cog, *_ in laws])
            weights = np.zeros((hi - lo, len(cogs), self.n_cog))
            for i, (cog, times, w, rows) in enumerate(laws):
                weights[rows - lo, i, :] = w[:, None] * self.cog_move(a, times, cog)
            weights = weights.reshape(hi - lo, len(cogs) * self.n_cog)
            arrivals = self._arrivals[lo:hi]
            for q in range(self.n_q):
                pair_rows = row_of[ai, q * self.n_cog + cogs]
                keep = pair_rows >= 0
                if keep.any():
                    block = arrivals[:, max(q - DECREMENT[a], 0), :].T @ weights
                    block = block.reshape(self.n_q, len(cogs), self.n_cog)
                    kernel[pair_rows[keep]] = block[:, keep].transpose(1, 0, 2)
        return kernel.reshape(n_pairs, self.n_states)

    @property
    def operators(self):
        """{action: that action's kernel rows}, gathered when read. Only
        ``bench/counts.py`` reads it, to size the operator bytes."""
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
            segment[cog, ACTIONS.index(a)] = len(lengths)
            lengths.append(k)
            n += k
        return EpochLaw(
            segment=segment,
            taus=taus[:n],
            cogs=cogs[:n],
            cdf=SegmentedCdf(cdf[:n], lengths),
        )

    def entries(self, q, cog_index, action):
        """Factored kernel P(q', cog', tau | q, cog, a) as (tau, p_tau,
        cog_dist, q_dist) triples with joint weight
        p_tau * cog_dist[c'] * q_dist[q']. SKIP/NORMAL/HIGH consume the
        head task before arrivals are added; ``q_dist`` is read-only."""
        if action not in admissible(q, cog_index, self.grid):
            raise ValueError(f"action {action} not admissible in ({q},{cog_index})")
        start = max(q - DECREMENT[action], 0)
        times, probs = self.sojourn(cog_index, action).support
        rows = np.searchsorted(self._taus, times)
        for tau, p_tau, row in zip(times.tolist(), probs.tolist(), rows.tolist()):
            cog_dist = self.cog_move(action, tau, cog_index)
            yield tau, p_tau, cog_dist, self._arrivals[row, start]

    def moment(self, name, action):
        return self._moments[name][action]

    def immediate_reward(self, q, cog_index, action):
        """Expected one-epoch reward r(a) - c E[tau] q - (c lambda / 2) E[tau^2]."""
        return float(self.reward_table(action)[q, cog_index])

    def reward_table(self, action):
        """(n_q, n_cog) table of immediate expected rewards; NaN where the
        action has no sojourn law."""
        q = np.arange(self.n_q)[:, None]
        return self.reward_intercept[action][None, :] - self.reward_slope[action][None, :] * q

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

    def _check_variance_shape(self):
        """Service variance should dip at the resting level."""
        notes = []
        star = self.grid.star_index
        for a in (Action.NORMAL, Action.HIGH):
            var = self._moments["mu2"][a] - self._moments["mu1"][a] ** 2
            if int(np.argmin(var)) != star:
                notes.append(
                    f"service variance for {a} attains its minimum at level "
                    f"{int(np.argmin(var))} instead of the resting level {star}"
                )
            diffs = np.diff(var)
            if not (np.all(diffs[:star] <= 1e-12) and np.all(diffs[star:] >= -1e-12)):
                notes.append(f"service variance for {a} is not unimodal in cog")
        return notes


def build_model(params):
    """Assemble the decision process from validated parameters."""
    return SmdpModel(params)
