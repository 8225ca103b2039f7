"""Tests for the Monte-Carlo simulator.

The solver's fixed point and exact policy evaluation act as oracles for
the estimates; trajectory records are re-validated step by step against
the model's transition and reward rules.
"""

import numpy as np
import pytest
from scipy import stats

from fidelityq.actions import Action
from fidelityq.cogchain import ChainRates, CogGrid, build_step_matrix
from fidelityq.errors import ConfigError
from fidelityq.model import ModelParams, build_model
from fidelityq.solver import policy_evaluation, value_iteration
from fidelityq.simulate import (
    PolicySampler,
    monte_carlo_value,
    plan_horizon,
    reward_ceiling,
)
from fidelityq.sojourn import ServiceFamily, SkipWaitSpec


def sim_params(**overrides):
    base = dict(
        queue_capacity=8,
        grid=CogGrid(n_intervals=4, star_index=2),
        rates=ChainRates.default(step_scale=0.8),
        service=ServiceFamily(
            base_mean={Action.NORMAL: 4.2, Action.HIGH: 6.0},
            curvature={Action.NORMAL: 5.0, Action.HIGH: 7.0},
            dispersion=12.0,
            support=30,
        ),
        skip_wait=SkipWaitSpec(skip_time=2, arrival_rate=0.4),
        holding_cost=0.05,
        reward_normal=1.0,
        reward_high=2.0,
        discount=0.9,
    )
    base.update(overrides)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def model():
    return build_model(sim_params())


@pytest.fixture(scope="module")
def solution(model):
    return value_iteration(model)


@pytest.fixture(scope="module")
def optimal_sampler(model, solution):
    return PolicySampler(model, solution.policy)


def epoch_reward(model, q, arrivals, tau, action):
    """Realized (undiscounted) reward of one epoch, r(a) - c tau (q + w/2),
    written out here as an independent reference."""
    base = {Action.NORMAL: model.params.reward_normal, Action.HIGH: model.params.reward_high}
    r = base.get(action, 0.0)
    c = model.params.holding_cost
    return r - c * tau * (q + 0.5 * arrivals)


def drain_policy(model):
    policy = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
    policy[0, :] = "W"
    return policy


@pytest.fixture(scope="module")
def drain_sampler(model):
    return PolicySampler(model, drain_policy(model))


class TestTrajectories:
    def test_records_obey_the_model(self, model, optimal_sampler):
        from fidelityq.actions import DECREMENT

        traj = optimal_sampler.run_episode((6, 4), horizon_epochs=400, seed=42)
        assert len(traj) == 400
        recs = traj.records
        assert (recs[0].q, recs[0].cog, recs[0].time) == (6, 4, 0)
        cap = model.n_q - 1
        for rec in recs:
            a = Action(rec.action)
            assert rec.action == str(optimal_sampler.policy[rec.q, rec.cog])
            pmf = model.sojourn(rec.cog, a)
            assert rec.tau in pmf.times[pmf.probs > 0]
            assert rec.reward == pytest.approx(
                epoch_reward(model, rec.q, rec.arrivals, rec.tau, a), abs=1e-12
            )
        for first, second in zip(recs, recs[1:]):
            a = Action(first.action)
            expect_q = min(max(first.q - DECREMENT[a], 0) + first.arrivals, cap)
            assert second.q == expect_q
            assert second.time == first.time + first.tau
            if a is Action.SKIP:
                assert second.cog == first.cog
            elif a is Action.REST:
                assert second.cog == model.grid.star_index
        total = sum(
            model.params.discount**rec.time * rec.reward for rec in recs
        )
        assert traj.discounted_return == pytest.approx(total, rel=1e-12)

    def test_fixed_seed_reproduces_exactly(self, optimal_sampler):
        a = optimal_sampler.run_episode((5, 3), horizon_epochs=100, seed=7)
        b = optimal_sampler.run_episode((5, 3), horizon_epochs=100, seed=7)
        assert a.records == b.records
        assert a.discounted_return == b.discounted_return
        c = optimal_sampler.run_episode((5, 3), horizon_epochs=100, seed=8)
        assert c.records != a.records

    def test_episode_streams_are_independent(self, optimal_sampler):
        trajs = [
            optimal_sampler.run_episode((5, 3), horizon_epochs=20, seed=stream)
            for stream in np.random.SeedSequence(1).spawn(4)
        ]
        assert len(trajs) == 4
        returns = {t.discounted_return for t in trajs}
        assert len(returns) > 1

    def test_arrivals_match_poisson_rate(self, model, drain_sampler):
        traj = drain_sampler.run_episode((8, 2), horizon_epochs=3000, seed=5)
        skip_epochs = [r for r in traj.records if r.action == "S"]
        lam = model.params.skip_wait.arrival_rate
        t_s = model.params.skip_wait.skip_time
        mean_arrivals = lam * t_s
        n = len(skip_epochs)
        assert n > 1000
        observed = np.mean([r.arrivals for r in skip_epochs])
        se = np.sqrt(mean_arrivals / n)
        assert abs(observed - mean_arrivals) <= 3 * se


class TestEstimates:
    def test_single_epoch_is_unbiased(self, model, drain_sampler):
        start = (3, 2)
        est = drain_sampler.estimate(start, episodes=20000, seed=9, horizon_epochs=1)
        expected = model.immediate_reward(3, 2, Action.SKIP)
        assert est.horizon_epochs == 1
        assert abs(est.mean - expected) <= 3 * est.std_error

    def test_matches_optimal_value(self, model, solution, optimal_sampler):
        for start in [(1, 2), (4, 4), (8, 0), (3, 3), (6, 1)]:
            est = optimal_sampler.estimate(start, episodes=4000, seed=23)
            target = solution.values[start]
            assert abs(est.mean - target) <= 3 * est.std_error, (start, est)

    def test_matches_policy_evaluation_off_optimum(self, model, drain_sampler):
        v_pi = policy_evaluation(drain_sampler.model, drain_sampler.policy)
        start = (5, 2)
        est = drain_sampler.estimate(start, episodes=4000, seed=31)
        assert abs(est.mean - v_pi[start]) <= 3 * est.std_error

    def test_seeds_agree_within_noise(self, optimal_sampler):
        a = optimal_sampler.estimate((4, 2), episodes=2000, seed=1)
        b = optimal_sampler.estimate((4, 2), episodes=2000, seed=2)
        assert a.mean != b.mean
        assert abs(a.mean - b.mean) <= 4 * (a.std_error + b.std_error)

    def test_estimate_reproducible(self, optimal_sampler):
        a = optimal_sampler.estimate((4, 2), episodes=500, seed=77)
        b = optimal_sampler.estimate((4, 2), episodes=500, seed=77)
        assert a.mean == b.mean
        assert a.std_error == b.std_error
        assert a.horizon_epochs == b.horizon_epochs

    def test_wrapper_equals_method(self, model, solution):
        direct = monte_carlo_value(
            model, solution.policy, (4, 2), episodes=300, seed=3
        )
        via = PolicySampler(model, solution.policy).estimate(
            (4, 2), episodes=300, seed=3
        )
        assert direct.mean == via.mean

    def test_auto_horizon_controls_truncation_bias(self, optimal_sampler):
        est = optimal_sampler.estimate((4, 2), episodes=3000, seed=13)
        # the horizon was sized from a pilot projection of this run's
        # standard error; allow the projection some slack
        assert est.truncation_bias_bound <= 0.2 * est.std_error
        assert est.empty_queue_fraction >= 0.0

    def test_explicit_horizon_respected(self, optimal_sampler):
        est = optimal_sampler.estimate((4, 2), episodes=200, seed=3, horizon_epochs=17)
        assert est.horizon_epochs == 17

    @pytest.mark.parametrize("count", [1, 0, -3])
    def test_too_few_episodes_rejected(self, model, solution, count):
        # a sample standard deviation needs two runs, in both batches
        with pytest.raises(ConfigError, match="^episodes must be at least 2"):
            monte_carlo_value(model, solution.policy, (1, 1), episodes=count, seed=1)
        with pytest.raises(ConfigError, match="pilot_episodes must be at least 2"):
            monte_carlo_value(
                model, solution.policy, (1, 1), episodes=50, seed=1,
                pilot_episodes=count,
            )


class TestArguments:
    @pytest.mark.parametrize("horizon", [0, -2, 2.5, True])
    def test_bad_horizon_rejected(self, optimal_sampler, horizon):
        match = "horizon_epochs must be a positive integer"
        with pytest.raises(ValueError, match=match):
            optimal_sampler.estimate((4, 2), episodes=50, seed=1, horizon_epochs=horizon)
        with pytest.raises(ValueError, match=match):
            optimal_sampler.run_batch((4, 2), 50, horizon, np.random.default_rng(1))
        with pytest.raises(ValueError, match=match):
            optimal_sampler.run_episode((4, 2), horizon_epochs=horizon, seed=1)

    # the same rule as the config's simulation.starts: an integer pair on
    # the grid (this model: 0 <= q <= 8, 0 <= cog <= 4)
    @pytest.mark.parametrize(
        "start",
        [(-1, 0), (1.7, 0), (1, -1), (9, 0), (1, 5), (1, 2, 0), 3],
        ids=["negative-q", "float-q", "negative-cog", "q-above", "cog-above", "triple", "scalar"],
    )
    def test_start_off_the_grid_rejected(self, optimal_sampler, start):
        with pytest.raises(ConfigError, match="is not a state"):
            optimal_sampler.estimate(start, episodes=50, seed=1)
        with pytest.raises(ConfigError, match="is not a state"):
            optimal_sampler.run_episode(start, horizon_epochs=5, seed=1)

    def test_numpy_integer_start_accepted(self, optimal_sampler):
        start = (np.int64(4), np.int64(2))
        assert optimal_sampler.estimate(start, episodes=50, seed=1).start == (4, 2)
        assert optimal_sampler.run_episode(start, horizon_epochs=5, seed=1).start == (4, 2)


class TestHorizonPlanning:
    def test_tighter_bias_needs_longer_horizon(self, model):
        loose = plan_horizon(model, 1e-2)
        tight = plan_horizon(model, 1e-6)
        assert tight > loose

    def test_bound_actually_met(self, model):
        target = 1e-4
        n = plan_horizon(model, target)
        beta = model.max_discount_transform
        assert reward_ceiling(model) / (1 - beta) * beta**n <= target

    def test_ceiling_covers_all_admissible_rewards(self, model):
        worst = reward_ceiling(model)
        for q in range(model.n_q):
            for cog in range(model.n_cog):
                from fidelityq.model import admissible

                for a in admissible(q, cog, model.grid):
                    assert abs(model.immediate_reward(q, cog, a)) <= worst + 1e-12


class TestChainOccupancy:
    def test_relaxation_chain_reaches_its_stationary_law(self):
        # constant-action chain stepped a long time; thinned to tame the
        # serial correlation before the chi-square comparison
        grid = CogGrid(n_intervals=4, star_index=2)
        rates = ChainRates.default(step_scale=0.8)
        step = build_step_matrix(grid, rates, Action.WAIT)
        n = grid.n_levels
        a = np.vstack([step.T - np.eye(n), np.ones(n)])
        b = np.concatenate([np.zeros(n), [1.0]])
        stationary, *_ = np.linalg.lstsq(a, b, rcond=None)

        rng = np.random.default_rng(123)
        cdf = np.cumsum(step, axis=1)
        state = n - 1
        visits = np.zeros(n)
        kept = 0
        for t in range(100_000):
            u = rng.random()
            state = min(int(np.searchsorted(cdf[state], u, side="right")), n - 1)
            if t % 20 == 0:
                visits[state] += 1
                kept += 1
        expected = stationary * kept
        mask = expected > 5
        chi2, pvalue = stats.chisquare(visits[mask], expected[mask] * visits[mask].sum() / expected[mask].sum())
        assert pvalue > 1e-3


class RecordingRng:
    """A numpy Generator that logs the means and counts of its Poisson
    draws; one run at a time."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.means, self.counts = [], []

    def random(self, n):
        return self._rng.random(n)

    def poisson(self, lam):
        w = self._rng.poisson(lam)
        self.means += lam.tolist()
        self.counts += w.tolist()
        return w


class TestSharedLoop:
    """A recorded episode and a one-run batch are the same simulation."""

    @pytest.mark.parametrize("sampler", ["optimal_sampler", "drain_sampler"])
    @pytest.mark.parametrize(
        "start, horizon, seed", [((6, 4), 400, 42), ((0, 1), 60, 3), ((8, 0), 1, 9)]
    )
    def test_episode_is_a_one_run_batch(self, request, model, sampler, start, horizon, seed):
        sampler = request.getfixturevalue(sampler)
        traj = sampler.run_episode(start, horizon, seed=seed)
        rng = RecordingRng(seed)
        totals, _ = sampler.run_batch(start, 1, horizon, rng)
        plain, _ = sampler.run_batch(start, 1, horizon, np.random.default_rng(seed))
        assert totals[0] == plain[0]
        assert traj.discounted_return == pytest.approx(totals[0], rel=1e-12)
        rate = model.params.skip_wait.arrival_rate
        assert rng.means == [rate * rec.tau for rec in traj.records]
        assert rng.counts == [rec.arrivals for rec in traj.records]
