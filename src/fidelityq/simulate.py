"""Monte-Carlo simulation of the queue under a fixed policy.

Reward accounting mirrors the model exactly: one epoch accrues
gamma^zeta * (r(a) - c*tau*(q + w/2)) where zeta is the epoch's start
time and w the number of arrivals inside it, so simulated discounted
returns are unbiased estimates of the policy's value. Discounting acts at
epoch granularity; there is no intra-epoch discounting.

Two entry points share the sampling tables: ``PolicySampler.run_episode``
produces a full trajectory for export, ``monte_carlo_value`` runs all
episodes in lockstep with vectorized inverse-CDF sampling and sizes the
horizon so the truncation bias stays below a fraction of the standard
error.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .actions import ACTIONS, DECREMENT, Action
from .config import check_episode_count
from .solver import validate_policy

DEFAULT_PILOT_EPISODES = 256
DEFAULT_BIAS_RATIO = 0.1
MAX_HORIZON_EPOCHS = 20_000

EpochRecord = namedtuple(
    "EpochRecord", ["epoch", "time", "q", "cog", "action", "tau", "arrivals", "reward"]
)


@dataclass
class Trajectory:
    """One simulated episode: per-epoch records plus the discounted sum."""

    start: tuple
    records: list
    discounted_return: float

    def __len__(self):
        return len(self.records)


@dataclass
class MonteCarloEstimate:
    """Sample mean of discounted returns with its standard error."""

    mean: float
    std_error: float
    episodes: int
    horizon_epochs: int
    truncation_bias_bound: float
    empty_queue_fraction: float
    start: tuple
    seed: int


def reward_ceiling(model):
    """Largest absolute one-epoch expected reward over admissible states."""
    worst = 0.0
    for a in ACTIONS:
        table = model.reward_table(a)
        masked = table[model.admissible_mask[a]]
        if masked.size:
            worst = max(worst, float(np.max(np.abs(masked))))
    return worst


def plan_horizon(model, target_bias):
    """Epochs needed so the discarded tail (bounded by the value scale
    times beta^n) drops below ``target_bias``."""
    beta = model.max_discount_transform
    scale = reward_ceiling(model) / (1.0 - beta)
    if target_bias <= 0 or scale == 0.0:
        return MAX_HORIZON_EPOCHS
    n = math.ceil(math.log(target_bias / scale) / math.log(beta))
    return int(min(max(n, 1), MAX_HORIZON_EPOCHS))


class PolicySampler:
    """Shared sampling tables for simulating one (model, policy) pair.

    Sojourn draws invert precomputed CDFs; cognitive moves draw from the
    per-(action, tau) step-power rows; skipping keeps the level and
    resting jumps to the resting level, both without consuming draws.
    """

    def __init__(self, model, policy):
        self.model = model
        self.policy = validate_policy(model, policy)
        self._codes = np.empty((model.n_q, model.n_cog), dtype=np.int64)
        for idx, a in enumerate(ACTIONS):
            self._codes[self.policy == a.value] = idx
        self._sojourn = {}
        for cog in range(model.n_cog):
            for a in ACTIONS:
                if a is Action.REST and cog <= model.grid.star_index:
                    continue
                pmf = model.sojourn(cog, a)
                self._sojourn[(cog, a)] = (
                    pmf.times.astype(np.int64),
                    np.cumsum(pmf.probs),
                )
        self._move_cdf = {
            a: np.cumsum(model.powers[a], axis=2)
            for a in (Action.WAIT, Action.NORMAL, Action.HIGH)
        }

    # -- scalar episode ---------------------------------------------------

    def run_episode(self, start, horizon_epochs, seed):
        """Simulate one episode and keep every epoch record."""
        model = self.model
        rng = np.random.default_rng(seed)
        gamma = model.params.discount
        rate = model.params.skip_wait.arrival_rate
        cap = model.n_q - 1
        q, cog = int(start[0]), int(start[1])
        zeta = 0
        total = 0.0
        records = []
        for epoch in range(horizon_epochs):
            a = ACTIONS[self._codes[q, cog]]
            times, cdf = self._sojourn[(cog, a)]
            tau = int(times[self._invert(cdf, rng.random())])
            w = int(rng.poisson(rate * tau))
            reward = model.epoch_reward(q, w, tau, a)
            total += gamma**zeta * reward
            records.append(
                EpochRecord(epoch, zeta, q, cog, a.value, tau, w, reward)
            )
            cog = self._next_cog(a, tau, cog, rng.random())
            q = min(max(q - DECREMENT[a], 0) + w, cap)
            zeta += tau
        return Trajectory(start=(int(start[0]), int(start[1])), records=records,
                          discounted_return=total)

    def _invert(self, cdf, u):
        return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)

    def _next_cog(self, action, tau, cog, u):
        if action is Action.SKIP:
            return cog
        if action is Action.REST:
            return self.model.grid.star_index
        row = self._move_cdf[action][tau, cog]
        return min(int(np.searchsorted(row, u, side="right")), len(row) - 1)

    # -- lockstep batch ---------------------------------------------------

    def run_batch(self, start, episodes, horizon_epochs, rng):
        """All episodes advance one epoch per iteration; returns the
        discounted totals and the fraction of epoch starts with an empty
        queue."""
        model = self.model
        gamma = model.params.discount
        rate = model.params.skip_wait.arrival_rate
        cap = model.n_q - 1
        star = model.grid.star_index

        q = np.full(episodes, int(start[0]), dtype=np.int64)
        cog = np.full(episodes, int(start[1]), dtype=np.int64)
        zeta = np.zeros(episodes, dtype=np.int64)
        totals = np.zeros(episodes)
        empty_epochs = 0

        rewards = {
            Action.NORMAL: model.params.reward_normal,
            Action.HIGH: model.params.reward_high,
        }
        base = np.array([rewards.get(a, 0.0) for a in ACTIONS])
        decrement = np.array([DECREMENT[a] for a in ACTIONS], dtype=np.int64)
        c = model.params.holding_cost

        for _ in range(horizon_epochs):
            empty_epochs += int(np.count_nonzero(q == 0))
            codes = self._codes[q, cog]
            groups = [
                (a, np.nonzero(codes == idx)[0]) for idx, a in enumerate(ACTIONS)
            ]
            tau = np.zeros(episodes, dtype=np.int64)
            for a, members in groups:
                if members.size == 0:
                    continue
                u = rng.random(members.size)
                member_cog = cog[members]
                for cog_value in np.unique(member_cog):
                    pick = member_cog == cog_value
                    times, cdf = self._sojourn[(int(cog_value), a)]
                    pos = np.minimum(
                        np.searchsorted(cdf, u[pick], side="right"), len(cdf) - 1
                    )
                    tau[members[pick]] = times[pos]
            w = rng.poisson(rate * tau.astype(np.float64))
            # rewards use the pre-transition queue
            reward = base[codes] - c * tau * (q + 0.5 * w)
            totals += gamma ** zeta.astype(np.float64) * reward
            # cognitive transitions, one action group at a time
            new_cog = cog.copy()
            for a, members in groups:
                if members.size == 0 or a is Action.SKIP:
                    continue
                if a is Action.REST:
                    new_cog[members] = star
                    continue
                u = rng.random(members.size)
                rows = self._move_cdf[a][tau[members], cog[members]]
                new_cog[members] = np.minimum(
                    (rows <= u[:, None]).sum(axis=1), self.model.n_cog - 1
                )
            q = np.minimum(np.maximum(q - decrement[codes], 0) + w, cap)
            cog = new_cog
            zeta += tau
        return totals, empty_epochs / (episodes * horizon_epochs)

    def estimate(
        self,
        start,
        episodes,
        seed,
        horizon_epochs=None,
        bias_ratio=DEFAULT_BIAS_RATIO,
        pilot_episodes=DEFAULT_PILOT_EPISODES,
    ):
        """Estimate the policy's value at ``start``.

        When no horizon is given, a pilot batch sizes it so the truncation
        bias bound stays below ``bias_ratio`` times the projected standard
        error of the full run.
        """
        check_episode_count("episodes", episodes)
        check_episode_count("pilot_episodes", pilot_episodes)
        seed = int(seed)
        pilot_seq, main_seq = np.random.SeedSequence(seed).spawn(2)
        if horizon_epochs is None:
            pilot_rng = np.random.default_rng(pilot_seq)
            pilot_horizon = plan_horizon(
                self.model, 0.01 * max(reward_ceiling(self.model), 1e-12)
            )
            pilot_totals, _ = self.run_batch(
                start, pilot_episodes, pilot_horizon, pilot_rng
            )
            spread = float(np.std(pilot_totals, ddof=1))
            projected_se = spread / math.sqrt(episodes)
            if projected_se == 0.0:
                horizon_epochs = pilot_horizon
            else:
                # the pilot's spread estimate is itself noisy; aim below the
                # requested ratio so the final bound clears it with margin
                horizon_epochs = max(
                    plan_horizon(self.model, 0.8 * bias_ratio * projected_se),
                    pilot_horizon,
                )
        rng = np.random.default_rng(main_seq)
        totals, empty_fraction = self.run_batch(start, episodes, horizon_epochs, rng)
        mean = math.fsum(totals) / episodes
        std_error = float(np.std(totals, ddof=1)) / math.sqrt(episodes)
        beta = self.model.max_discount_transform
        bias_bound = reward_ceiling(self.model) / (1.0 - beta) * beta**horizon_epochs
        return MonteCarloEstimate(
            mean=mean,
            std_error=std_error,
            episodes=episodes,
            horizon_epochs=horizon_epochs,
            truncation_bias_bound=bias_bound,
            empty_queue_fraction=empty_fraction,
            start=(int(start[0]), int(start[1])),
            seed=seed,
        )


def monte_carlo_value(model, policy, start, episodes, seed, **kwargs):
    """Value estimate at one start state; see ``PolicySampler.estimate``."""
    return PolicySampler(model, policy).estimate(start, episodes, seed, **kwargs)
