"""Monte-Carlo simulation of the queue under a fixed policy.

An epoch of action a from queue q lasting tau accrues
gamma^zeta * (r(a) - c*tau*(q + lambda*tau/2)), where zeta is its start
time: the realised reward r(a) - c*tau*(q + w/2) with the w arrivals inside
the epoch replaced by their mean lambda*tau given the sojourn. The discount
gamma^zeta depends only on earlier sojourns, and w is independent of the
past given tau, so simulated discounted returns stay unbiased estimates of
the policy's value (conditional Monte Carlo). Discounting acts at epoch
granularity; there is no intra-epoch discounting.

One epoch takes two uniforms, drawn together. The first picks the sojourn
tau and the next cognitive level together from the joint law of the
state's (level, action) in ``model.epoch_law``. The second picks the capped
arrivals k = min(w, L) over tau from ``model.arrival_law``, and the next
queue is min(max(q - d, 0) + k, L) for the action's decrement d and the
capacity L. Both are exact inverse-CDF lookups, from guide rows kept per
state (epoch law) or at one stride (the arrival laws, all of L + 1
outcomes). A sojourn is carried as its row of the model's sorted taus.
One lockstep loop advances any number of episodes, one vectorized lookup
per law and epoch:
``monte_carlo_value`` runs all its episodes through it and sizes the
horizon so the truncation bias stays below a fraction of the standard
error, and ``PolicySampler.run_episode`` runs one episode through it and
keeps every epoch as a record for export.

Each episode carries its discount gamma^zeta and retires from the batch at
the first epoch start n where gamma^zeta_n <= beta^H (1 - 2^-30), or at
n = H, where H is the batch's ``horizon_epochs`` and
beta = ``model.max_discount_transform`` is the largest E[gamma^tau] over
admissible pairs (``RETIRE_BELOW``). Its return is the sum over the epochs
it ran, and later epochs draw uniforms only for the episodes still live.
The retirement epoch T is a stopping time, so the dropped tail has
conditional mean gamma^zeta_T * V(s_T) given the past, with
|V| <= scale = reward_ceiling / (1 - beta). An episode retired by the
rule has gamma^zeta_T <= beta^H; one that reaches the cap has
E[gamma^zeta_H] <= beta^H, since each epoch multiplies the expected
discount by at most beta. So the truncation bias is at most
scale * (beta^H + E[gamma^zeta_H]) <= 2 * scale * beta^H. Most epochs serve,
and gamma^tau of a service is far below beta when a short skip sets beta,
so most episodes retire long before the cap.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .actions import TIE_ORDER
from .config import DEFAULTS, check_count, check_episode_count, check_positive, check_start
from .solver import validate_policy

DEFAULT_PILOT_EPISODES = DEFAULTS["simulation"]["pilot_episodes"]
DEFAULT_BIAS_RATIO = DEFAULTS["simulation"]["bias_ratio"]
MAX_HORIZON_EPOCHS = 20_000
# the retirement floor is beta^H * RETIRE_BELOW: where a skip of t_s sets
# beta = gamma^t_s, an episode at zeta = H t_s ties beta^H exactly, and a gap
# far above the rounding of H <= 20,000 factors keeps it live on every CPU
RETIRE_BELOW = 1.0 - 2.0**-30

EpochRecord = namedtuple(
    "EpochRecord", ["epoch", "time", "q", "cog", "action", "tau", "arrivals", "reward"]
)


@dataclass
class Trajectory:
    """One simulated episode: per-epoch records plus the discounted sum."""

    start: tuple
    records: list
    discounted_return: float


@dataclass
class MonteCarloEstimate:
    """Sample mean of discounted returns with its standard error."""

    mean: float
    std_error: float
    episodes: int
    horizon_epochs: int
    simulated_epochs: int
    truncation_bias_bound: float
    empty_queue_fraction: float
    start: tuple
    seed: int


def reward_ceiling(model):
    """Largest absolute one-epoch expected reward over admissible pairs."""
    return float(np.max(np.abs(model.cell_reward[model.admits])))


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
    """Simulates one (model, policy) pair.

    Each epoch draws two uniforms. The first is inverted exactly through
    the CDF of the joint (tau, next level) law of the state's (level,
    action) in ``model.epoch_law`` and gives the sojourn and the next level
    together (skipping keeps the level and resting lands on the resting
    level, as outcomes of their laws). The second is inverted through the
    sojourn's law in ``model.arrival_law`` and gives the capped arrivals,
    hence the next queue. An epoch's reward is its mean given the sojourn,
    r(a) - c*tau*(q + lambda*tau/2), and its ``arrivals`` are the admitted
    ones, q' - max(q - d, 0).
    """

    def __init__(self, model, policy):
        """Read the policy's cell of ``model.cell`` once per flat state
        q * n_cog + cog: its epoch law's guide start and bucket count, its
        reward r(a) and the queue max(q - d, 0) it leaves. An epoch's
        discount and reward factors gamma^tau, c*tau and (lambda/2)*tau are
        tables over the sojourn rows of ``model._taus``; gamma^tau is the
        model's own ``_tau_discount``, the others are made here."""
        self.model = model
        columns = validate_policy(model, policy)
        self.policy = np.asarray(policy)
        cell = model.cell[columns, np.arange(model.n_states)]
        self._served, segments = np.divmod(cell, model.n_laws)
        self._guide_start = model.epoch_law.cdf.guide_start[segments]
        self._buckets = model.epoch_law.cdf.buckets[segments]
        self._reward = np.array([model.service_reward[a] for a in TIE_ORDER])[columns]
        # every arrival law has n_q outcomes, so all share one bucket count
        # and one guide stride: law i's guide starts at i * stride
        arrivals = model.arrival_law
        self._arrival_buckets = arrivals.buckets[0]
        self._arrival_stride = len(arrivals.guide) // len(arrivals.start)
        taus = model._taus
        self._tau_cost = model.params.holding_cost * taus
        self._half_arrivals = 0.5 * model.params.arrival_rate * taus

    def _epochs(self, start, totals, horizon_epochs, rng):
        """Advance ``len(totals)`` runs from ``start`` in lockstep, one epoch
        per step, and write each run's discounted return into ``totals`` as
        it retires (see the module docstring for the rule). Yields the live
        runs' flat states, the rows of their sojourns in ``model._taus``,
        next queues and rewards (on the pre-transition queue), in run order,
        then moves every live run to its next state."""
        model = self.model
        law = model.epoch_law
        arrival_law = model.arrival_law
        cap = model.n_q - 1
        floor = model.max_discount_transform**horizon_epochs * RETIRE_BELOW
        episodes = len(totals)
        run = np.arange(episodes)  # each live run's slot in totals
        q = np.full(episodes, start[0], dtype=np.int64)
        cog = np.full(episodes, start[1], dtype=np.int64)
        discount = np.ones(episodes)  # gamma^zeta at each epoch's start
        total = np.zeros(episodes)
        for _ in range(horizon_epochs):
            state = q * model.n_cog + cog
            u = rng.random((2, len(state)))
            pos = law.cdf.draw(self._guide_start.take(state), self._buckets.take(state), u[0])
            # in intp, so row * stride cannot wrap (and native indices gather faster)
            row = law.arrival_row.take(pos).astype(np.intp)
            guide_start = row * self._arrival_stride
            capped = arrival_law.draw(guide_start, self._arrival_buckets, u[1]) - row * model.n_q
            nxt = np.minimum(self._served.take(state) + capped, cap)
            # the reward r(a) - c*tau*(q + lambda*tau/2)
            cost = self._tau_cost.take(row) * (q + self._half_arrivals.take(row))
            reward = self._reward.take(state) - cost
            yield state, row, nxt, reward
            total += discount * reward
            discount *= model._tau_discount.take(row)
            q = nxt
            cog = law.cogs.take(pos)
            live = discount > floor
            if not live.all():
                totals[run] = total  # final for the runs that retire here
                keep = np.flatnonzero(live)
                if not keep.size:
                    return
                run, q, cog, discount, total = (
                    x.take(keep) for x in (run, q, cog, discount, total)
                )
        totals[run] = total

    def run_episode(self, start, horizon_epochs, seed):
        """Simulate one episode and keep every epoch record; it stops where
        a one-episode batch with this horizon would."""
        model = self.model
        start = check_start(start, model.n_q - 1, model.n_cog - 1)
        check_count("horizon_epochs", horizon_epochs)
        total = np.zeros(1)
        epochs = self._epochs(start, total, horizon_epochs, np.random.default_rng(seed))
        zeta = 0
        records = []
        for epoch, draws in enumerate(epochs):
            state, row, nxt, reward = (x.item() for x in draws)
            tau = int(model._taus[row])
            q, cog = divmod(state, model.n_cog)
            action = str(self.policy[q, cog])
            arrivals = nxt - int(self._served[state])
            records.append(EpochRecord(epoch, zeta, q, cog, action, tau, arrivals, reward))
            zeta += tau
        return Trajectory(start=start, records=records, discounted_return=float(total[0]))

    def run_batch(self, start, episodes, horizon_epochs, rng):
        """Run ``episodes`` episodes of at most ``horizon_epochs`` epochs in
        lockstep; returns their discounted totals, the fraction of
        simulated epoch starts with an empty queue and the number of
        episode-epochs simulated."""
        model = self.model
        start = check_start(start, model.n_q - 1, model.n_cog - 1)
        check_count("horizon_epochs", horizon_epochs)
        totals = np.zeros(episodes)
        simulated = empty_epochs = 0
        for state, _, _, _ in self._epochs(start, totals, horizon_epochs, rng):
            simulated += len(state)
            # flat states below n_cog are the empty-queue ones
            empty_epochs += int(np.count_nonzero(state < model.n_cog))
        return totals, empty_epochs / simulated, simulated

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
        error of the full run. Episodes retire early as the module docstring
        says, so the reported bound is 2 * scale * beta^H with
        scale = reward_ceiling / (1 - beta): the dropped tail's conditional
        mean is gamma^zeta_T * V(s_T) at the retirement epoch T, |V| <= scale,
        and E[gamma^zeta_T] <= beta^H + E[gamma^zeta_H] <= 2 * beta^H.
        ``simulated_epochs`` counts the main batch's episode-epochs run, at
        most ``episodes * horizon_epochs``.
        """
        check_episode_count("episodes", episodes)
        check_episode_count("pilot_episodes", pilot_episodes)
        check_positive("bias_ratio", bias_ratio)
        seed = int(seed)
        pilot_seq, main_seq = np.random.SeedSequence(seed).spawn(2)
        if horizon_epochs is None:
            pilot_rng = np.random.default_rng(pilot_seq)
            pilot_horizon = plan_horizon(
                self.model, 0.01 * max(reward_ceiling(self.model), 1e-12)
            )
            pilot_totals, _, _ = self.run_batch(
                start, pilot_episodes, pilot_horizon, pilot_rng
            )
            spread = float(np.std(pilot_totals, ddof=1))
            projected_se = spread / math.sqrt(episodes)
            if projected_se == 0.0:
                horizon_epochs = pilot_horizon
            else:
                # the pilot's spread estimate is itself noisy; aim below the
                # requested ratio so the final bound clears it with margin,
                # and plan scale * beta^H for half of it (the bound is twice that)
                horizon_epochs = max(
                    plan_horizon(self.model, 0.5 * 0.8 * bias_ratio * projected_se),
                    pilot_horizon,
                )
        rng = np.random.default_rng(main_seq)
        totals, empty_fraction, simulated = self.run_batch(
            start, episodes, horizon_epochs, rng
        )
        mean = math.fsum(totals.tolist()) / episodes
        std_error = float(np.std(totals, ddof=1)) / math.sqrt(episodes)
        beta = self.model.max_discount_transform
        bias_bound = 2.0 * reward_ceiling(self.model) / (1.0 - beta) * beta**horizon_epochs
        return MonteCarloEstimate(
            mean=mean,
            std_error=std_error,
            episodes=episodes,
            horizon_epochs=horizon_epochs,
            simulated_epochs=simulated,
            truncation_bias_bound=bias_bound,
            empty_queue_fraction=empty_fraction,
            start=(int(start[0]), int(start[1])),
            seed=seed,
        )


def monte_carlo_value(model, policy, start, episodes, seed, **kwargs):
    """Value estimate at one start state; see ``PolicySampler.estimate``."""
    return PolicySampler(model, policy).estimate(start, episodes, seed, **kwargs)
