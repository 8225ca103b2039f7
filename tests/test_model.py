"""Tests for model assembly: admissibility, queue kernel, rewards and the
discounted kernel over the admissible (state, action) pairs.

The arrival table is checked bit for bit against a scalar per-row
reference. The reward oracle sums the realized per-epoch reward over the
joint law of (sojourn, arrivals) and must reproduce the closed-form
immediate reward.
"""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import fidelityq
from fidelityq.actions import ACTIONS, TIE_ORDER, Action
from fidelityq.cogchain import ChainRates, CogGrid
from fidelityq.config import builtin_config
from fidelityq.errors import InadmissibleRestError
from fidelityq.model import ModelParams, admissible, arrival_table, build_model
from fidelityq.sojourn import ServiceFamily, SkipWaitSpec


def small_params(**overrides):
    base = dict(
        queue_capacity=6,
        grid=CogGrid(n_intervals=4, star_index=2),
        rates=ChainRates.default(step_scale=0.8),
        service=ServiceFamily(
            base_mean={Action.NORMAL: 4.0, Action.HIGH: 7.0},
            curvature={Action.NORMAL: 6.0, Action.HIGH: 8.0},
            dispersion=10.0,
            support=40,
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
    return build_model(small_params())


class TestAdmissible:
    GRID = CogGrid(n_intervals=4, star_index=2)

    def test_empty_queue_forces_wait(self):
        for cog in range(5):
            assert admissible(0, cog, self.GRID) == (Action.WAIT,)

    def test_rest_only_above_resting_level(self):
        assert admissible(3, 3, self.GRID) == (
            Action.SKIP,
            Action.REST,
            Action.NORMAL,
            Action.HIGH,
        )
        assert admissible(3, 4, self.GRID) == (
            Action.SKIP,
            Action.REST,
            Action.NORMAL,
            Action.HIGH,
        )

    def test_at_or_below_resting_level(self):
        for cog in (0, 1, 2):
            assert admissible(1, cog, self.GRID) == (
                Action.SKIP,
                Action.NORMAL,
                Action.HIGH,
            )


def reference_row(start, tau, rate, capacity):
    """Scalar reference for one arrival-table row: next queue length from
    ``start`` after ``tau`` time units of Poisson(rate) arrivals, overflow
    lumped at the capacity."""
    out = np.zeros(capacity + 1)
    lam = rate * tau
    room = capacity - start
    w = np.arange(room + 1)
    out[start : capacity + 1] = stats.poisson.pmf(w, lam)
    out[capacity] += stats.poisson.sf(room, lam)
    return out


def table_row(start, tau, rate, capacity):
    return arrival_table(rate, [tau], capacity)[0, start]


class TestArrivalTable:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=1e-3, max_value=5.0),
        taus=st.lists(st.integers(min_value=1, max_value=4000), min_size=1, max_size=8),
        capacity=st.integers(min_value=1, max_value=40),
    )
    def test_matches_scalar_reference_bitwise(self, rate, taus, capacity):
        table = arrival_table(rate, taus, capacity)
        assert table.shape == (len(taus), capacity + 1, capacity + 1)
        for i, tau in enumerate(taus):
            for start in range(capacity + 1):
                expected = reference_row(start, tau, rate, capacity)
                assert np.array_equal(table[i, start], expected), (tau, start)


class TestQueueKernel:
    def test_poisson_row_frozen_values(self):
        row = table_row(start=2, tau=1, rate=1.0, capacity=30)
        e = np.exp(-1.0)
        assert row[:2].tolist() == [0.0, 0.0]
        assert row[2] == pytest.approx(e, abs=1e-15)
        assert row[3] == pytest.approx(e, abs=1e-15)
        assert row[4] == pytest.approx(e / 2, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_overflow_lumped_at_capacity(self):
        row = table_row(start=29, tau=1, rate=1.0, capacity=30)
        e = np.exp(-1.0)
        assert row[29] == pytest.approx(e, abs=1e-15)
        assert row[30] == pytest.approx(1.0 - e, abs=1e-15)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)

    def test_full_queue_keeps_all_mass_at_capacity(self):
        row = table_row(start=6, tau=3, rate=0.7, capacity=6)
        assert row[6] == pytest.approx(1.0, abs=1e-15)

    def test_head_task_consumed_before_arrivals(self, model):
        rate = model.params.skip_wait.arrival_rate
        for tau, _, _, q_dist in model.entries(5, 1, Action.NORMAL):
            assert np.array_equal(q_dist, table_row(4, tau, rate, model.n_q - 1))

    def test_decrement_clamped_at_zero(self, model):
        # skipping takes two steps here; next queue = 0 from q = 1 requires
        # zero arrivals over them
        ((tau, _, _, q_dist),) = model.entries(1, 0, Action.SKIP)
        assert tau == 2
        assert q_dist[0] == pytest.approx(np.exp(-0.4 * 2), abs=1e-15)

    def test_wait_and_rest_do_not_consume(self, model):
        for q, cog, a in [(3, 3, Action.REST), (0, 2, Action.WAIT)]:
            for tau, _, _, q_dist in model.entries(q, cog, a):
                assert q_dist[:q].sum() == 0.0
                assert q_dist[q] == pytest.approx(np.exp(-0.4 * tau), abs=1e-15)

    def test_rows_are_read_only(self, model):
        _, _, _, q_dist = next(model.entries(2, 1, Action.NORMAL))
        with pytest.raises(ValueError):
            q_dist[0] = 1.0


def test_build_does_not_import_scipy_stats():
    """scipy.special is the only scipy subpackage the package loads:
    building every shipped config, solving one and evaluating its policy
    exactly must load neither scipy.stats nor scipy.linalg."""
    code = (
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import fidelityq\n"
        "for name in ('default', 'high_lambda', 'skip_cheap', 'large_gap', 'tiny'):\n"
        "    model = fidelityq.builtin_config(name).build_model()\n"
        "solution = fidelityq.value_iteration(model)\n"
        "fidelityq.policy_evaluation(model, solution.policy)\n"
        "print(' '.join(sorted(\n"
        "    name for name, module in sys.modules.items()\n"
        "    if name.count('.') == 1 and name.startswith('scipy.')\n"
        "    and not name.startswith('scipy._') and hasattr(module, '__path__')\n"
        ")))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fidelityq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["scipy.special"]


class TestKernelMass:
    def test_joint_mass_is_one_everywhere(self, model):
        for q in range(model.n_q):
            for cog in range(model.n_cog):
                for a in admissible(q, cog, model.grid):
                    mass = sum(
                        p_tau * cog_dist.sum() * q_dist.sum()
                        for _, p_tau, cog_dist, q_dist in model.entries(q, cog, a)
                    )
                    assert mass == pytest.approx(1.0, abs=1e-10), (q, cog, a)

    def test_inadmissible_action_rejected(self, model):
        with pytest.raises(ValueError):
            next(model.entries(0, 2, Action.NORMAL))
        with pytest.raises(ValueError):
            next(model.entries(3, 1, Action.REST))


def epoch_reward(model, q, arrivals, tau, action):
    """Realized (undiscounted) reward of one epoch, r(a) - c tau (q + w/2),
    written out here as an independent reference."""
    base = {Action.NORMAL: model.params.reward_normal, Action.HIGH: model.params.reward_high}
    r = base.get(action, 0.0)
    c = model.params.holding_cost
    return r - c * tau * (q + 0.5 * arrivals)


def reward_oracle(model, q, cog, action, w_cap=240):
    """Expectation of the realized epoch reward over (tau, arrivals)."""
    pmf = model.sojourn(cog, action)
    rate = model.params.skip_wait.arrival_rate
    total = 0.0
    for tau, p_tau in zip(pmf.times, pmf.probs):
        ws = np.arange(w_cap + 1)
        pw = stats.poisson.pmf(ws, rate * float(tau))
        vals = np.array(
            [epoch_reward(model, q, int(w), int(tau), action) for w in ws]
        )
        total += float(p_tau) * float(pw @ vals)
    return total


class TestRewards:
    def test_immediate_reward_matches_epoch_expectation(self, model):
        for q in (0, 1, 3, 6):
            for cog in (0, 2, 4):
                for a in admissible(q, cog, model.grid):
                    expected = reward_oracle(model, q, cog, a)
                    got = model.immediate_reward(q, cog, a)
                    assert got == pytest.approx(expected, abs=1e-10), (q, cog, a)

    def test_affine_in_queue_length(self, model):
        for a in ACTIONS:
            table = model.reward_table(a)
            diffs = np.diff(table, axis=0)
            finite = diffs[:, ~np.isnan(diffs[0])]
            assert np.allclose(finite, finite[0], atol=1e-12)

    def test_slope_is_holding_cost_times_mean(self, model):
        c = model.params.holding_cost
        for a in (Action.NORMAL, Action.HIGH, Action.SKIP):
            for cog in range(model.n_cog):
                mu1 = model.moment("mu1", a)[cog]
                table = model.reward_table(a)
                assert table[1, cog] - table[0, cog] == pytest.approx(
                    -c * mu1, abs=1e-12
                )

    def test_service_reward_peaks_at_resting_level(self, model):
        star = model.grid.star_index
        for a in (Action.NORMAL, Action.HIGH):
            row = model.reward_table(a)[3]
            assert int(np.argmax(row)) == star
            assert np.all(np.diff(row[: star + 1]) > 0)
            assert np.all(np.diff(row[star:]) < 0)

    def test_rewards_enter_only_fidelity_actions(self, model):
        # identical holding terms aside, skipping earns no base reward
        skip = model.reward_table(Action.SKIP)
        assert np.all(skip[1:] < 0)


class TestCogMove:
    def test_skip_freezes_the_state(self, model):
        for cog in range(model.n_cog):
            dist = model.cog_move(Action.SKIP, 2, cog)
            expected = np.zeros(model.n_cog)
            expected[cog] = 1.0
            assert dist == pytest.approx(expected, abs=0)

    def test_rest_lands_exactly_on_resting_level(self, model):
        dist = model.cog_move(Action.REST, 7, 4)
        assert dist[model.grid.star_index] == 1.0

    def test_service_matches_step_power(self, model):
        for a in (Action.NORMAL, Action.HIGH, Action.WAIT):
            step = model.steps[a]
            for tau in (1, 3, 5):
                got = model.cog_move(a, tau, 1)
                expected = np.linalg.matrix_power(step, tau)[1]
                assert got == pytest.approx(expected, abs=1e-12)

    def test_powers_are_read_only(self, model):
        with pytest.raises(ValueError):
            model.powers[Action.NORMAL][1, 0, 0] = 0.0

    def test_rest_sojourn_missing_below_resting_level(self, model):
        with pytest.raises(InadmissibleRestError):
            model.sojourn(2, Action.REST)


SHIPPED = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]


@pytest.fixture(scope="module", params=SHIPPED)
def shipped(request):
    """(name, model) of one shipped configuration."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return request.param, builtin_config(request.param).build_model()


class TestSupport:
    """``SojournPMF.support`` is the one positive-probability view that the
    arrival table, the kernel, the epoch law and ``entries`` read."""

    def test_support_is_the_positive_points(self, shipped):
        for pmf in shipped[1]._sojourns.values():
            times, probs = pmf.support
            positive = pmf.probs > 0
            assert np.array_equal(times, pmf.times[positive])
            assert np.array_equal(probs, pmf.probs[positive])
            assert not times.flags.writeable
            assert not probs.flags.writeable

    def test_taus_are_the_union_of_support_times(self, shipped):
        laws = shipped[1]._sojourns.values()
        union = set().union(*(pmf.support[0].tolist() for pmf in laws))
        assert shipped[1]._taus.tolist() == sorted(union)


def pair_row(model, q, cog, a):
    """The kernel row of the pair (q, cog, a); there must be exactly one."""
    s = q * model.n_cog + cog
    (row,) = np.flatnonzero((model.pair_state == s) & (model.pair_action == ACTIONS.index(a)))
    return row


def assert_row_sums_equal_transform(model):
    """Every kernel row sums to E[gamma^tau] of its (level, action) law."""
    sums = model.kernel.sum(axis=1)
    for row, (s, i) in enumerate(zip(model.pair_state, model.pair_action)):
        tr = model.moment("transform", ACTIONS[i])[s % model.n_cog]
        assert sums[row] == pytest.approx(tr, abs=1e-12), (s, ACTIONS[i])


def assert_one_row_per_admissible_pair(model):
    """Rows are the admissible pairs, state-major and in TIE_ORDER within
    a state; each state's segment starts at its first row."""
    pairs, starts = [], []
    for q in range(model.n_q):
        for cog in range(model.n_cog):
            starts.append(len(pairs))
            allowed = admissible(q, cog, model.grid)
            s = q * model.n_cog + cog
            pairs += [(s, ACTIONS.index(a)) for a in TIE_ORDER if a in allowed]
    assert list(zip(model.pair_state.tolist(), model.pair_action.tolist())) == pairs
    assert model.segment_starts.tolist() == starts
    assert model.kernel.shape == (len(pairs), model.n_states)
    assert model.pair_reward.shape == (len(pairs),)


def kernel_row(model, q, cog, a):
    """Discounted kernel row of (q, cog, a) summed from ``model.entries``,
    independently of the kernel assembly."""
    gamma = model.params.discount
    row = np.zeros(model.n_states)
    for tau, p_tau, cog_dist, q_dist in model.entries(q, cog, a):
        row += p_tau * gamma**tau * np.outer(q_dist, cog_dist).reshape(-1)
    return row


class TestOperators:
    def test_row_sums_equal_discount_transform(self, model):
        assert_row_sums_equal_transform(model)

    def test_shipped_row_sums_equal_discount_transform(self, shipped):
        assert_row_sums_equal_transform(shipped[1])

    def test_one_row_per_admissible_pair(self, model):
        assert_one_row_per_admissible_pair(model)

    def test_shipped_one_row_per_admissible_pair(self, shipped):
        assert_one_row_per_admissible_pair(shipped[1])

    def test_pair_rewards_are_the_reward_table(self, shipped):
        model = shipped[1]
        tables = {a: model.reward_table(a).reshape(-1) for a in ACTIONS}
        for row, (s, i) in enumerate(zip(model.pair_state, model.pair_action)):
            assert model.pair_reward[row] == tables[ACTIONS[i]][s]

    def test_kernel_is_read_only_and_contiguous(self, model):
        assert model.kernel.flags.c_contiguous
        for table in (model.kernel, model.pair_reward, model.pair_state,
                      model.pair_action, model.segment_starts):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_operators_gather_each_actions_rows(self, model):
        ops = model.operators
        assert list(ops) == list(ACTIONS)
        assert sum(op.nbytes for op in ops.values()) == model.kernel.nbytes
        for i, a in enumerate(ACTIONS):
            assert np.array_equal(ops[a], model.kernel[model.pair_action == i])
            assert ops[a].shape[1] == model.n_states

    def test_row_matches_kernel_entries(self, model):
        for q, cog, a in [
            (3, 3, Action.REST),
            (2, 1, Action.NORMAL),
            (0, 4, Action.WAIT),
            (5, 0, Action.SKIP),
            (6, 2, Action.HIGH),
        ]:
            assert model.kernel[pair_row(model, q, cog, a)] == pytest.approx(
                kernel_row(model, q, cog, a), abs=1e-13
            )

    def test_shipped_rows_match_kernel_entries(self, shipped):
        """Every admissible row on tiny, the corner states
        q in {0, 1, capacity} x cog in {0, star, top} on the other configs."""
        name, model = shipped
        if name == "tiny":
            qs, cogs = range(model.n_q), range(model.n_cog)
        else:
            qs = (0, 1, model.n_q - 1)
            cogs = (0, model.grid.star_index, model.n_cog - 1)
        for q in qs:
            for cog in cogs:
                for a in admissible(q, cog, model.grid):
                    assert model.kernel[pair_row(model, q, cog, a)] == pytest.approx(
                        kernel_row(model, q, cog, a), abs=1e-13
                    ), (q, cog, a)

    def test_contraction_modulus(self, model):
        # every sojourn takes at least one step, so the modulus cannot
        # exceed gamma; skipping takes exactly two steps here
        tr = model.max_discount_transform
        assert tr <= model.params.discount
        assert tr == pytest.approx(0.9**2, abs=1e-12)


class TestDiagnostics:
    def test_default_assembly_is_clean(self, model):
        assert model.moment_ordering_violations == []
        assert model.shape_warnings == []

    def test_slow_skip_breaks_moment_ordering(self):
        params = small_params(skip_wait=SkipWaitSpec(skip_time=6, arrival_rate=0.15))
        with pytest.warns(UserWarning, match="moment-ordering"):
            m = build_model(params)
        assert m.moment_ordering_violations
        bad = m.moment_ordering_violations[0]
        assert bad["pair"][0] == "S"

    def test_saturating_arrivals_warn(self):
        params = small_params(skip_wait=SkipWaitSpec(skip_time=2, arrival_rate=0.6))
        with pytest.warns(UserWarning, match="unstable"):
            build_model(params)


class TestParamsValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            small_params(queue_capacity=0)
        with pytest.raises(ValueError):
            small_params(holding_cost=0.0)
        with pytest.raises(ValueError):
            small_params(reward_normal=3.0, reward_high=2.0)
        with pytest.raises(ValueError):
            small_params(reward_normal=-1.0)
        with pytest.raises(ValueError):
            small_params(discount=1.0)
        with pytest.raises(ValueError):
            small_params(rest_cap_factor=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"holding_cost": float("nan")},
            {"holding_cost": float("inf")},
            {"reward_high": float("inf")},
            {"reward_normal": float("nan")},
        ],
    )
    def test_rejects_costs_and_rewards_that_are_not_finite(self, overrides):
        with pytest.raises(ValueError, match="finite"):
            small_params(**overrides)
