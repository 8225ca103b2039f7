"""Tests for the Monte-Carlo simulator.

The solver's fixed point and exact policy evaluation act as oracles for
the estimates; trajectory records are re-validated step by step against
the model's transition and reward rules.
"""

import copy
import os
import warnings

import numpy as np
import pytest
from scipy import stats

from fidelityq.actions import DECREMENT, Action
from fidelityq.cogchain import ChainRates, CogGrid, build_step_matrix
from fidelityq.config import resolve_config
from fidelityq.errors import ConfigError
from fidelityq.model import admissible, build_model
from fidelityq.solver import policy_evaluation, value_iteration
from fidelityq.simulate import (
    RETIRE_BELOW,
    PolicySampler,
    monte_carlo_value,
    plan_horizon,
    reward_ceiling,
)
from small_model import small_params


@pytest.fixture(scope="module")
def model():
    return build_model(small_params())


@pytest.fixture(scope="module")
def solution(model):
    return value_iteration(model)


@pytest.fixture(scope="module")
def optimal_sampler(model, solution):
    return PolicySampler(model, solution.policy)


def epoch_reward(model, q, tau, action):
    """Undiscounted reward of one epoch given its sojourn,
    r(a) - c tau (q + lambda tau / 2), written out here as an independent
    reference."""
    base = {Action.NORMAL: model.params.reward_normal, Action.HIGH: model.params.reward_high}
    r = base.get(action, 0.0)
    c = model.params.holding_cost
    lam = model.params.arrival_rate
    return r - c * tau * (q + lam * tau / 2)


def drain_policy(model):
    policy = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
    policy[0, :] = "W"
    return policy


@pytest.fixture(scope="module")
def drain_sampler(model):
    return PolicySampler(model, drain_policy(model))


class TestTrajectories:
    def test_records_obey_the_model(self, model, optimal_sampler):
        traj = optimal_sampler.run_episode((6, 4), horizon_epochs=400, seed=42)
        # it retires once gamma^zeta <= beta^400, long before the cap
        assert 100 <= len(traj.records) < 400
        recs = traj.records
        assert (recs[0].q, recs[0].cog, recs[0].time) == (6, 4, 0)
        cap = model.n_q - 1
        for rec in recs:
            a = Action(rec.action)
            assert rec.action == str(optimal_sampler.policy[rec.q, rec.cog])
            pmf = model.sojourn(rec.cog, a)
            assert rec.tau in pmf.times[pmf.probs > 0]
            assert rec.reward == pytest.approx(
                epoch_reward(model, rec.q, rec.tau, a), abs=1e-12
            )
        for first, second in zip(recs, recs[1:]):
            a = Action(first.action)
            served = max(first.q - DECREMENT[a], 0)
            assert 0 <= first.arrivals <= cap - served
            assert second.q == served + first.arrivals
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

    def test_arrivals_match_poisson_rate(self, model):
        """One epoch from each start in many runs: the admitted arrivals
        follow Poisson(lambda tau) capped at the room left after service.
        A start at capacity under rest leaves no room, so no arrival is
        admitted; a skip serves one task first."""
        policy = drain_policy(model)
        policy[8, 4] = "R"
        sampler = PolicySampler(model, policy)
        t_s = model.params.skip_time
        law = stats.poisson(model.params.arrival_rate * t_s)
        for start, room in [((8, 4), 0), ((8, 2), 1), ((7, 2), 2), ((3, 2), 6), ((1, 2), 8)]:
            epochs = sampler._epochs(
                start, np.zeros(20_000), 1, np.random.default_rng([5, room])
            )
            state, row, nxt, _ = next(epochs)
            admitted = nxt - sampler._served[state]
            observed = np.bincount(admitted, minlength=room + 1)
            assert len(observed) == room + 1, start
            if room == 0:
                continue
            assert np.all(model._taus[row] == t_s)
            expected = law.pmf(np.arange(room + 1)) * len(admitted)
            expected[room] = law.sf(room - 1) * len(admitted)
            # pool the last cell expected to hold 5 draws or more with every
            # cell after it
            small = np.flatnonzero(expected < 5)
            cut = max(int(small[0]) if small.size else room + 1, 2) - 1
            observed = np.append(observed[:cut], observed[cut:].sum())
            expected = np.append(expected[:cut], expected[cut:].sum())
            assert stats.chisquare(observed, expected).pvalue > 1e-3, start


class TestEstimates:
    def test_single_epoch_is_unbiased(self, model, drain_sampler, optimal_sampler):
        # a skip lasts a fixed time, so its reward given the sojourn is the
        # expected reward itself, to rounding and without spread
        est = drain_sampler.estimate((3, 2), episodes=20000, seed=9, horizon_epochs=1)
        assert est.horizon_epochs == 1
        assert est.mean == pytest.approx(model.reward_table(Action.SKIP)[3, 2], abs=1e-12)
        assert est.std_error <= 1e-12
        # a service lasts a random time
        action = Action(optimal_sampler.policy[3, 2])
        assert action in (Action.NORMAL, Action.HIGH)
        est = optimal_sampler.estimate((3, 2), episodes=20000, seed=9, horizon_epochs=1)
        assert est.std_error > 0
        assert abs(est.mean - model.reward_table(action)[3, 2]) <= 3 * est.std_error

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
        with pytest.raises(ConfigError, match=match):
            optimal_sampler.estimate((4, 2), episodes=50, seed=1, horizon_epochs=horizon)
        with pytest.raises(ConfigError, match=match):
            optimal_sampler.run_batch((4, 2), 50, horizon, np.random.default_rng(1))
        with pytest.raises(ConfigError, match=match):
            optimal_sampler.run_episode((4, 2), horizon_epochs=horizon, seed=1)

    # the same rule as the config's simulation.bias_ratio
    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_bias_ratio_not_positive_and_finite_rejected(self, optimal_sampler, ratio):
        with pytest.raises(ConfigError, match="^bias_ratio must be positive and finite"):
            optimal_sampler.estimate((4, 2), episodes=50, seed=1, bias_ratio=ratio)

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
                for a in admissible(q, cog, model.grid):
                    assert abs(model.reward_table(a)[q, cog]) <= worst + 1e-12


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
    """A numpy Generator that logs the uniforms it draws; one run at a
    time."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniforms = []

    def random(self, shape):
        u = self._rng.random(shape)
        self.uniforms.append(u.copy())
        return u


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
        totals, _, simulated = sampler.run_batch(start, 1, horizon, rng)
        plain, _, _ = sampler.run_batch(start, 1, horizon, np.random.default_rng(seed))
        assert totals[0] == plain[0] == traj.discounted_return
        # one (2, runs) draw per epoch the episode ran
        assert simulated == len(traj.records)
        assert [u.shape for u in rng.uniforms] == [(2, 1)] * len(traj.records)
        # it ran while its discount gamma^zeta stayed above the floor just
        # under beta^H and stopped at the first epoch start where it did
        # not, or at the cap
        floor = model.max_discount_transform**horizon * RETIRE_BELOW
        tau_discount = dict(zip(model._taus.tolist(), model.params.discount ** model._taus))
        discount = 1.0
        for rec in traj.records:
            assert discount > floor
            discount *= float(tau_discount[rec.tau])
        assert len(traj.records) == horizon or discount <= floor
        # the second row picks the arrivals by inverting Poisson(lambda tau)
        # capped at the capacity
        rate = model.params.arrival_rate
        cap = model.n_q - 1
        for rec, u in zip(traj.records, rng.uniforms):
            capped_cdf = stats.poisson.cdf(np.arange(cap), rate * rec.tau)
            w = int(np.searchsorted(capped_cdf, u[1, 0], side="right"))
            served = max(rec.q - DECREMENT[Action(rec.action)], 0)
            assert rec.arrivals == min(served + w, cap) - served


def replay_epochs(model, policy, start, uniforms, floor):
    """The epoch loop written out one run and one epoch at a time: each
    recorded (2, live runs) draw is inverted by a per-law searchsorted on
    the law's segment of ``epoch_law.cdf.table`` (segment j is law j of
    ``model._sojourns``) and of ``arrival_law.table``,
    and the reward is the scalar r(a) - c tau (q + lambda tau / 2). A run
    is live while its discount, the running product of gamma^tau, is above
    ``floor``; the live runs take the draw's columns in run order. Returns
    per epoch the live runs' flat states, sojourns, admitted arrivals and
    rewards, each run's discounted total and the runs still live at the
    end."""
    law, arrivals = model.epoch_law, model.arrival_law
    laws = list(model._sojourns)
    cap = model.n_q - 1
    # gamma^tau per sojourn row, taken as numpy's power like the sampler
    # (a libm pow may differ in the last bit)
    tau_discount = model.params.discount ** model._taus
    runs = uniforms[0].shape[1]
    q, cog = [start[0]] * runs, [start[1]] * runs
    discount, total = [1.0] * runs, [0.0] * runs
    epochs = []
    for u in uniforms:
        states, taus, admitted, rewards = [], [], [], []
        live = [i for i in range(runs) if discount[i] > floor]
        for column, i in enumerate(live):
            action = Action(policy[q[i], cog[i]])
            s = laws.index((cog[i], action))
            lo, hi = law.cdf.start[s], law.cdf.end[s]
            pos = lo + np.searchsorted(law.cdf.table[lo : hi + 1], u[0, column], side="right")
            row = law.arrival_row[pos]
            tau = int(model._taus[row])
            lo, hi = arrivals.start[row], arrivals.end[row]
            k = int(np.searchsorted(arrivals.table[lo : hi + 1], u[1, column], side="right"))
            served = max(q[i] - DECREMENT[action], 0)
            nxt = min(served + k, cap)
            reward = epoch_reward(model, q[i], tau, action)
            states.append(q[i] * model.n_cog + cog[i])
            taus.append(tau)
            admitted.append(nxt - served)
            rewards.append(reward)
            total[i] += discount[i] * reward
            discount[i] *= float(tau_discount[row])
            q[i], cog[i] = nxt, int(law.cogs[pos])
        epochs.append((states, taus, admitted, rewards))
    still_live = sum(d > floor for d in discount)
    return epochs, total, still_live


@pytest.fixture(
    scope="module", params=["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]
)
def shipped_sampler(request):
    """The sampler of a shipped configuration under its solved policy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = resolve_config(request.param).build_model()
    return PolicySampler(model, value_iteration(model).policy)


def test_sampler_tables_follow_each_states_action(shipped_sampler):
    """Per state: the queue service leaves, the guide of the epoch law's
    segment of the state's (level, action) law and the reward r(a)."""
    sampler = shipped_sampler
    model = sampler.model
    cdf = model.epoch_law.cdf
    laws = list(model._sojourns)
    for q in range(model.n_q):
        for cog in range(model.n_cog):
            s = q * model.n_cog + cog
            a = Action(str(sampler.policy[q, cog]))
            assert sampler._served[s] == max(q - DECREMENT[a], 0)
            j = laws.index((cog, a))
            assert sampler._guide_start[s] == cdf.guide_start[j]
            assert sampler._buckets[s] == cdf.buckets[j]
            assert sampler._reward[s] == model.service_reward[a]


class TestEpochLoopReplay:
    """Many runs of the vectorised epoch loop against a plain replay of the
    same uniforms, bit for bit, as the batch shrinks."""

    @pytest.mark.parametrize(
        "name, start, horizon",
        [
            pytest.param("tiny", (3, 1), 60, id="tiny-start0"),
            pytest.param("high_lambda", (20, 6), 60, id="high_lambda-start1"),
            pytest.param("large_gap", (5, 2), 60, id="large_gap-start2"),
            # some runs reach the cap before their discount retires them
            pytest.param("tiny", (3, 1), 12, id="tiny-capped"),
        ],
    )
    def test_multi_episode_loop_equals_replay(self, name, start, horizon):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = resolve_config(name).build_model()
        policy = value_iteration(model).policy
        sampler = PolicySampler(model, policy)
        rng = RecordingRng(2)
        totals = np.zeros(24)
        got = list(sampler._epochs(start, totals, horizon, rng))
        floor = model.max_discount_transform**horizon * RETIRE_BELOW
        expected, expected_totals, still_live = replay_epochs(
            model, policy, start, rng.uniforms, floor
        )
        # one (2, live) draw per epoch: a run leaves the batch at its first
        # epoch start with gamma^zeta at or below the floor, and every run
        # stops at the cap
        assert [u.shape for u in rng.uniforms] == [(2, len(e[0])) for e in expected]
        assert len(expected[-1][0]) < 24
        assert len(got) == horizon or still_live == 0
        assert len(got) <= horizon
        for (state, row, nxt, reward), expected_epoch in zip(got, expected):
            assert state.tolist() == expected_epoch[0]
            assert model._taus[row].tolist() == expected_epoch[1]
            assert (nxt - sampler._served[state]).tolist() == expected_epoch[2]
            assert reward.tolist() == expected_epoch[3]
        assert totals.tolist() == expected_totals


def solved_config(name):
    """(config, model, policy) of a configuration, solved as ``check`` does."""
    cfg = resolve_config(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = cfg.build_model()
    solution = value_iteration(
        model, epsilon=cfg.solver["epsilon"], max_sweeps=cfg.solver["max_sweeps"]
    )
    return cfg, model, solution.policy


WIDE_STATE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "wide_state.yaml"
)


@pytest.mark.parametrize(
    "name", ["tiny", "default", "high_lambda", "skip_cheap", "large_gap", WIDE_STATE],
    ids=["tiny", "default", "high_lambda", "skip_cheap", "large_gap", "wide_state"],
)
def test_check_estimate_matches_policy_evaluation(name):
    """The estimate ``check`` runs (its episodes, seed, bias ratio, pilot
    and start) lies within 5 standard errors plus the truncation-bias bound
    of the exact value, with early retirement dropping the tails."""
    cfg, model, policy = solved_config(name)
    sim = cfg.simulation
    start = sim["starts"][0] if sim["starts"] else (model.n_q // 2, model.grid.star_index)
    est = monte_carlo_value(
        model, policy, start, sim["episodes"], sim["seed"],
        bias_ratio=sim["bias_ratio"], pilot_episodes=sim["pilot_episodes"],
    )
    exact = policy_evaluation(model, policy)[tuple(start)]
    assert abs(est.mean - exact) <= 5 * est.std_error + est.truncation_bias_bound
    assert est.simulated_epochs < est.episodes * est.horizon_epochs


def test_heavy_traffic_retires_most_episode_epochs():
    """high_lambda from (20, 6): beta is gamma (a one-step skip) but most
    epochs serve, so the batch runs a small share of its requested
    episode-epochs."""
    _, model, policy = solved_config("high_lambda")
    est = monte_carlo_value(model, policy, (20, 6), 20_000, 1)
    assert est.simulated_epochs == 457_076
    assert est.simulated_epochs < 0.15 * est.episodes * est.horizon_epochs


@pytest.mark.parametrize("name", ["tiny", "default", "high_lambda", "skip_cheap"])
def test_one_ulp_of_discount_moves_no_retirement(name):
    """Where a skip of t_s sets beta = gamma^t_s, an episode at zeta = H t_s
    has gamma^zeta = beta^H in exact arithmetic, so a floor at beta^H leaves
    its retirement to rounding. Moving every gamma^tau and beta by one ulp,
    up or down, as another CPU's power kernel may, changes no episode-epoch
    count of the estimate ``check`` runs, and its mean by at most 1e-13."""
    cfg, model, policy = solved_config(name)
    sim = cfg.simulation
    start = sim["starts"][0] if sim["starts"] else (model.n_q // 2, model.grid.star_index)
    beta = model.max_discount_transform
    assert any(beta == g for g in model._tau_discount.tolist())

    def estimate(model):
        return monte_carlo_value(
            model, policy, start, 2000, 1,
            bias_ratio=sim["bias_ratio"], pilot_episodes=sim["pilot_episodes"],
        )

    base = estimate(model)
    for toward in (np.inf, 0.0):
        shifted = copy.copy(model)
        shifted._tau_discount = np.nextafter(model._tau_discount, toward)
        shifted.__dict__["max_discount_transform"] = float(np.nextafter(beta, toward))
        moved = estimate(shifted)
        assert moved.horizon_epochs == base.horizon_epochs, toward
        assert moved.simulated_epochs == base.simulated_epochs, toward
        assert moved.mean == pytest.approx(base.mean, rel=0, abs=1e-13), toward
