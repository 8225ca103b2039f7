"""Tests for value iteration and policy evaluation.

The backup oracle re-derives Q-values from the pair rows of
``tests/oracle.py``, bypassing the model's tables; the oracle's stage-wise
backward induction is crossed against repeated solver backups.
"""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fidelityq.actions import TIE_ORDER, Action
from fidelityq.cogchain import CogGrid
from fidelityq.config import builtin_config
from fidelityq.errors import PolicyMismatchError
from fidelityq.model import SmdpModel, admissible, build_model
from fidelityq.simulate import monte_carlo_value
from fidelityq.solver import bellman_backup, policy_evaluation, validate_policy, value_iteration
from fidelityq.structure import grade
from small_model import small_params


@pytest.fixture(scope="module")
def model():
    return build_model(small_params(queue_capacity=5))


@pytest.fixture(scope="module")
def solution(model):
    return value_iteration(model)


def backup_oracle(model, values):
    """Optimal backup of ``values`` over the oracle's pair rows."""
    flat = values.reshape(-1)
    best = np.full((model.n_q, model.n_cog), -np.inf)
    for q in range(model.n_q):
        for cog in range(model.n_cog):
            for a in admissible(q, cog, model.grid):
                total = model.reward_table(a)[q, cog] + oracle.pair_row(model, q, cog, a) @ flat
                best[q, cog] = max(best[q, cog], total)
    return best


class TestBackup:
    def test_matches_kernel_triple_sum(self, model):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(model.n_q, model.n_cog))
        backed, _ = bellman_backup(model, values)
        assert backed == pytest.approx(backup_oracle(model, values), abs=1e-10)

    def test_policy_is_admissible_everywhere(self, model):
        rng = np.random.default_rng(3)
        _, policy = bellman_backup(model, rng.normal(size=(model.n_q, model.n_cog)))
        validate_policy(model, policy)

    def test_empty_queue_always_waits(self, model, solution):
        assert all(sym == "W" for sym in solution.policy[0])
        assert not np.any(solution.policy[1:] == "W")

    def test_backup_never_yields_nan(self, model):
        values = np.zeros((model.n_q, model.n_cog))
        backed, _ = bellman_backup(model, values)
        assert np.all(np.isfinite(backed))

    def test_matches_the_dense_kernel_backup(self, model):
        """The factored backup against one product of the dense kernel and
        each state's first best row, the rule it replaces."""
        rng = np.random.default_rng(17)
        values = rng.normal(size=(model.n_q, model.n_cog))
        # the admitted cells, state by state, and their dense rows
        states, columns = np.nonzero(model.admits)
        pair_values = model.cell_reward[model.admits] + (
            model.pair_rows(states, columns) @ values.reshape(-1)
        )
        starts = np.searchsorted(states, np.arange(model.n_states))
        ends = np.append(starts[1:], len(pair_values))
        first = [lo + int(np.argmax(pair_values[lo:hi])) for lo, hi in zip(starts, ends)]
        backed, policy = bellman_backup(model, values)
        assert np.max(np.abs(backed.reshape(-1) - pair_values[first])) <= 1e-14 * np.max(
            np.abs(values)
        )
        symbols = [TIE_ORDER[i].value for i in columns[first]]
        assert policy.reshape(-1).tolist() == symbols

    def test_exact_ties_go_to_the_earlier_action(self, model):
        """Give every action of a state the row and reward of its last
        action (high service, or wait on an empty queue): each state then
        ties exactly, and takes its first action in TIE_ORDER."""
        used = model.admits
        last = (np.arange(model.n_states), used.shape[1] - 1 - used[:, ::-1].argmax(axis=1))
        tied = SimpleNamespace(**vars(model))
        tied.cell = np.where(used, model.cell[last][:, None], 0)
        tied.cell_reward = np.where(used, model.cell_reward[last][:, None], -np.inf)
        rng = np.random.default_rng(5)
        values = rng.normal(size=(model.n_q, model.n_cog))
        backed, policy = bellman_backup(tied, values)
        assert np.all(policy[0] == Action.WAIT.value)
        assert np.all(policy[1:] == Action.SKIP.value)
        _, own = bellman_backup(model, values)
        assert not np.all(own[1:] == Action.SKIP.value)
        # the tied value is the last action's
        after = values.reshape(-1)[model.hankel_index] @ model.hankel_weights
        expected = model.cell_reward[last] + after.take(model.cell[last])
        assert np.array_equal(backed.reshape(-1), expected)

    def test_solving_and_simulating_never_build_the_dense_kernel(self, monkeypatch):
        def never(model, states, columns):
            raise AssertionError("gathered dense pair rows")

        monkeypatch.setattr(SmdpModel, "pair_rows", never)
        fresh = build_model(small_params(queue_capacity=5))
        solved = value_iteration(fresh)
        grade(fresh, solved)
        monte_carlo_value(fresh, solved.policy, (2, 1), episodes=20, seed=1)


class TestValueIteration:
    def test_converges_tightly(self, solution):
        assert solution.converged
        assert solution.residual <= solution.epsilon
        assert solution.sweeps == len(solution.residual_history)

    def test_fixed_point(self, model, solution):
        backed, _ = bellman_backup(model, solution.values)
        gap = np.max(np.abs(backed - solution.values))
        assert gap <= 10 * solution.epsilon

    def test_greedy_matches_value(self, model, solution):
        flat = solution.values.reshape(-1)
        for q in range(model.n_q):
            for cog in range(model.n_cog):
                a = Action(str(solution.policy[q, cog]))
                s, col = q * model.n_cog + cog, TIE_ORDER.index(a)
                q_value = model.cell_reward[s, col] + model.pair_rows([s], [col])[0] @ flat
                assert q_value == pytest.approx(
                    solution.values[q, cog], abs=10 * solution.epsilon
                )

    def test_value_bounded_by_reward_over_contraction(self, model, solution):
        r_max = np.max(np.abs(model.cell_reward[model.admits]))
        bound = r_max / (1.0 - model.max_discount_transform)
        assert np.max(np.abs(solution.values)) <= bound

    def test_late_residuals_contract(self, model, solution):
        h = solution.residual_history
        beta = model.max_discount_transform
        assert h[-1] <= beta * h[-2] * (1.0 + 1e-6)

    def test_deterministic_across_rebuilds(self, solution):
        again = value_iteration(build_model(small_params(queue_capacity=5)))
        assert np.array_equal(again.values, solution.values)
        assert np.array_equal(again.policy, solution.policy)

    def test_sweep_cap_reports_nonconvergence(self, model):
        capped = value_iteration(model, max_sweeps=3)
        assert not capped.converged
        assert capped.sweeps == 3
        assert capped.residual > capped.epsilon

    @pytest.mark.parametrize("max_sweeps", [0, -1])
    def test_sweep_cap_below_one_rejected(self, model, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps"):
            value_iteration(model, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, float("nan"), float("inf")])
    def test_epsilon_not_positive_and_finite_rejected(self, model, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            value_iteration(model, epsilon=epsilon, max_sweeps=3)


class TestPolicyEvaluation:
    def test_optimal_policy_recovers_optimal_value(self, model, solution):
        v_pi = policy_evaluation(model, solution.policy)
        assert v_pi == pytest.approx(solution.values, abs=1e-6)

    def test_solves_the_linear_fixed_point(self, model, solution):
        v_pi = policy_evaluation(model, solution.policy)
        flat = v_pi.reshape(-1)
        for q in range(model.n_q):
            for cog in range(model.n_cog):
                s = q * model.n_cog + cog
                a = Action(str(solution.policy[q, cog]))
                row = model.pair_rows([s], [TIE_ORDER.index(a)])[0]
                rhs = model.reward_table(a)[q, cog] + row @ flat
                assert flat[s] == pytest.approx(rhs, abs=1e-9)

    def test_matches_iterative_evaluation(self, model):
        policy = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
        policy[0] = "W"
        direct = policy_evaluation(model, policy).reshape(-1)
        # power iteration on the same affine map, independently assembled
        r_pi = np.empty(model.n_states)
        rows = np.empty((model.n_states, model.n_states))
        for q in range(model.n_q):
            for cog in range(model.n_cog):
                s = q * model.n_cog + cog
                a = Action(str(policy[q, cog]))
                r_pi[s] = model.reward_table(a)[q, cog]
                rows[s] = model.pair_rows([s], [TIE_ORDER.index(a)])[0]
        v = np.zeros(model.n_states)
        for _ in range(600):
            v = r_pi + rows @ v
        assert direct == pytest.approx(v, abs=1e-8)

    def test_peak_memory_stays_below_the_pair_kernel(self):
        """Evaluation gathers the policy's rows only: on default, the traced
        peak stays below the size of the dense kernel of all admitted pairs
        (3.06 MB), which building every pair's row would pass alone."""
        model = builtin_config("default").build_model()
        _, policy = bellman_backup(model, np.zeros((model.n_q, model.n_cog)))
        tracemalloc.start()
        try:
            policy_evaluation(model, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < int(model.admits.sum()) * model.n_states * 8

    def test_suboptimal_policy_is_dominated(self, model, solution):
        policy = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
        policy[0] = "W"
        v_pi = policy_evaluation(model, policy)
        assert np.all(v_pi <= solution.values + 1e-9)
        assert np.max(solution.values - v_pi) > 1e-3

    def test_rejects_bad_policies(self, model):
        with pytest.raises(PolicyMismatchError, match=r"policy shape \(2, 2\) does not match"):
            validate_policy(model, np.full((2, 2), "S"))
        bad = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
        bad[0] = "W"
        bad[3, 0] = "R"  # rest below the resting level
        with pytest.raises(
            PolicyMismatchError, match=r"^policy action R inadmissible in state \(3,0\)$"
        ):
            validate_policy(model, bad)
        lazy = np.full((model.n_q, model.n_cog), "W", dtype="<U1")
        with pytest.raises(
            PolicyMismatchError, match=r"^policy action W inadmissible in state \(1,0\)$"
        ):
            validate_policy(model, lazy)
        # the first bad state in row-major order decides the error
        bad[2, 1] = "X"
        with pytest.raises(ValueError, match=r"^unknown action symbol 'X'$") as caught:
            validate_policy(model, bad)
        assert not isinstance(caught.value, PolicyMismatchError)
        bad[2, 1] = "S"
        bad[4, 1] = "X"
        with pytest.raises(PolicyMismatchError, match=r"state \(3,0\)"):
            validate_policy(model, bad)

    def test_returns_each_states_kernel_row(self, model, solution):
        """Each state's column of the (state, action) table, an admitted
        cell of the state's row, whose dense row ``pair_rows`` gathers."""
        columns = validate_policy(model, solution.policy)
        assert columns.shape == (model.n_states,)
        assert model.admits[np.arange(model.n_states), columns].all()
        symbols = np.array([a.value for a in TIE_ORDER])[columns]
        assert np.array_equal(symbols, solution.policy.reshape(-1))


@pytest.fixture(scope="module", params=["tiny", "rest-at-top-only"])
def policy_model(request):
    """tiny, and a model that may rest only at its top level."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if request.param == "tiny":
            return builtin_config("tiny").build_model()
        grid = CogGrid(n_intervals=5, star_index=4)
        return build_model(small_params(queue_capacity=4, grid=grid))


class TestValidatePolicyProperty:
    """Random symbol tables over W, R, S, N, H and the unknown X: the first
    bad state in row-major order decides what ``validate_policy`` does."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_first_bad_state_decides(self, policy_model, data):
        model = policy_model
        allowed = [
            [a.value for a in admissible(q, cog, model.grid)]
            for q in range(model.n_q)
            for cog in range(model.n_cog)
        ]
        # an admissible table with a few states redrawn from every symbol
        table = [data.draw(st.sampled_from(symbols)) for symbols in allowed]
        for s in data.draw(st.lists(st.integers(0, model.n_states - 1), max_size=3)):
            table[s] = data.draw(st.sampled_from("WRSNHX"))
        policy = np.array(table).reshape(model.n_q, model.n_cog)
        bad = [s for s in range(model.n_states) if table[s] not in allowed[s]]
        if not bad:
            columns = validate_policy(model, policy)
            assert [TIE_ORDER[c].value for c in columns] == table
            return
        q, cog = divmod(bad[0], model.n_cog)
        symbol = table[bad[0]]
        if symbol == "X":
            with pytest.raises(ValueError, match=r"^unknown action symbol 'X'$") as caught:
                validate_policy(model, policy)
            assert not isinstance(caught.value, PolicyMismatchError)
        else:
            with pytest.raises(
                PolicyMismatchError,
                match=rf"^policy action {symbol} inadmissible in state \({q},{cog}\)$",
            ):
                validate_policy(model, policy)


class TestFiniteHorizon:
    def test_zero_stages_is_terminal_cost(self, model):
        table = oracle.finite_horizon_table(model, 0, 0.7)
        assert table[4, 2] == pytest.approx(-2.8)
        assert table[0, 0] == 0.0

    def test_stages_match_repeated_backups(self, model):
        values = -0.7 * np.arange(model.n_q)[:, None] * np.ones((1, model.n_cog))
        for _ in range(3):
            values, _ = bellman_backup(model, values)
        table = oracle.finite_horizon_table(model, 3, 0.7)
        assert table == pytest.approx(values, abs=1e-10)

    def test_single_stage_matches_backup(self, model):
        zero = np.zeros((model.n_q, model.n_cog))
        backed, _ = bellman_backup(model, zero)
        got = oracle.finite_horizon_table(model, 1, 0.0)[3, 3]
        assert got == pytest.approx(backed[3, 3], abs=1e-12)
