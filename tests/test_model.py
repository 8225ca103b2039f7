"""Tests for model assembly: admissibility, queue kernel, rewards and the
discounted kernel over the admissible (state, action) pairs.

The arrival law, shifted to each start by the rule written out below, is
checked against the ``scipy.stats.poisson`` rows of ``tests/oracle.py``
within 1e-14 absolute, and the gathered pair rows against the oracle's.
The reward oracle sums the realized per-epoch reward over the joint law of
(sojourn, arrivals) and must reproduce the closed-form immediate reward.
"""

import math
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
import oracle
from fidelityq.actions import ACTIONS, DECREMENT, TIE_ORDER, Action
from fidelityq.cogchain import CogGrid
from fidelityq.config import builtin_config
from fidelityq.errors import InadmissibleRestError
from fidelityq.model import admissible, arrival_table, build_model
from fidelityq.sampling import SegmentedCdf
from fidelityq.sojourn import ServiceFamily
from small_model import small_params

# this module's small model: capacity 6, and its own service family
SERVICE = ServiceFamily(
    base_mean={Action.NORMAL: 4.0, Action.HIGH: 7.0},
    curvature={Action.NORMAL: 6.0, Action.HIGH: 8.0},
    dispersion=10.0,
    support=40,
)
OWN = dict(queue_capacity=6, service=SERVICE)


@pytest.fixture(scope="module")
def model():
    return build_model(small_params(**OWN))


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


def start_rows(table, start):
    """Next-queue law from ``start`` pending tasks, one row per tau, by the
    clamp min(start + k, capacity): ``start + k`` with ``table[:, k]`` below
    the capacity, and the capacity with the running sum of the table's last
    columns k = capacity down to capacity - start."""
    capacity = table.shape[1] - 1
    room = capacity - start
    rows = np.zeros_like(table)
    rows[:, start:capacity] = table[:, :room]
    rows[:, capacity] = np.cumsum(table[:, ::-1], axis=1)[:, start]
    return rows


def table_row(start, tau, rate, capacity):
    return start_rows(arrival_table(rate, [tau], capacity), start)[0]


def queue_marginal(model, q, cog, a):
    """The dense row of (q, cog, a) summed over the next level: the
    discounted law of the next queue length."""
    row = model.pair_rows([q * model.n_cog + cog], [TIE_ORDER.index(a)])[0]
    return row.reshape(model.n_q, model.n_cog).sum(axis=1)


class TestArrivalTable:
    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=1e-3, max_value=5.0),
        taus=st.lists(st.integers(min_value=1, max_value=4000), min_size=1, max_size=8),
        capacity=st.integers(min_value=1, max_value=40),
    )
    def test_matches_scalar_reference(self, rate, taus, capacity):
        # the worst gap seen over 400 draws of these ranges was 3.3e-15
        table = arrival_table(rate, taus, capacity)
        assert table.shape == (len(taus), capacity + 1)
        for start in range(capacity + 1):
            expected = oracle.arrival_rows(rate, taus, start, capacity)
            got = start_rows(table, start)
            assert np.abs(got - expected).max() <= 1e-14, start


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
        # servicing from q = 5 starts the arrivals from 4
        rate = model.params.arrival_rate
        times, probs = model.sojourn(1, Action.NORMAL).support
        expected = sum(
            0.9**tau * p * table_row(4, tau, rate, model.n_q - 1)
            for tau, p in zip(times.tolist(), probs.tolist())
        )
        got = queue_marginal(model, 5, 1, Action.NORMAL)
        assert got[:4].sum() == 0.0
        assert got == pytest.approx(expected, abs=1e-15)

    def test_decrement_clamped_at_zero(self, model):
        # skipping takes two steps here; next queue = 0 from q = 1 requires
        # zero arrivals over them
        assert model.sojourn(0, Action.SKIP).support[0].tolist() == [2]
        got = queue_marginal(model, 1, 0, Action.SKIP)
        assert got[0] == pytest.approx(0.9**2 * np.exp(-0.4 * 2), abs=1e-15)

    def test_wait_and_rest_do_not_consume(self, model):
        # the queue stays at 3 resting and at 0 waiting only without arrivals
        for q, cog, a in [(3, 3, Action.REST), (0, 2, Action.WAIT)]:
            times, probs = model.sojourn(cog, a).support
            got = queue_marginal(model, q, cog, a)
            assert got[:q].sum() == 0.0
            assert got[q] == pytest.approx(
                float(np.sum(0.9**times * probs * np.exp(-0.4 * times))), abs=1e-15
            )


def test_runs_without_scipy(tmp_path):
    """scipy is a test-only dependency: with it blocked before the package
    loads, building every shipped config loads no scipy module, and every
    subcommand runs end to end on tiny. No path imports ``numpy.ma``
    either (``np.unique`` does, on numpy 2.4), nor ``urllib.request``
    (``xml.sax.saxutils`` does: 3 MB more peak RSS for a ``check`` run)."""
    code = (
        "import sys, warnings\n"
        "sys.modules['scipy'] = None\n"
        "warnings.simplefilter('ignore')\n"
        "import fidelityq\n"
        "from fidelityq import cli\n"
        "for name in ('default', 'high_lambda', 'skip_cheap', 'large_gap', 'tiny'):\n"
        "    fidelityq.builtin_config(name).build_model()\n"
        "loaded = {n: m for n, m in sys.modules.items() if n.startswith('scipy')}\n"
        "assert loaded == {'scipy': None}, sorted(loaded)\n"
        "out = sys.argv[1]\n"
        "for args in (['solve'], ['check', '--episodes', '200'], ['export-moments'],\n"
        "             ['sweep', '--grid', '0.3,0.5'], ['simulate', '--episodes', '200']):\n"
        "    status = cli.main([*args, '--config', 'tiny', '--out', out])\n"
        "    assert status == 0, (args, status)\n"
        "assert not {'numpy.ma', 'urllib.request'} & set(sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fidelityq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "structure.json").exists()
    assert (tmp_path / "trajectories.csv").exists()


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
    rate = model.params.arrival_rate
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
                    got = model.reward_table(a)[q, cog]
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


def epoch_outcomes(model, cog, a):
    """``(taus, next levels)`` of the epoch law's outcomes for the pair
    (cog, a), in the order the sampler stores them."""
    law = model.epoch_law
    s = list(model._sojourns).index((cog, a))
    positions = np.arange(law.cdf.start[s], law.cdf.end[s] + 1)
    return model._taus[law.arrival_row[positions]], law.cogs[positions]


class TestCogMove:
    """The level's move over an epoch, read where the model keeps it: the
    epoch law's outcomes and the per-action joint table
    (``_action_weights`` at weight one), and the oracle's own
    ``level_rows``."""

    def test_skip_freezes_the_state(self, model):
        for cog in range(model.n_cog):
            taus, nxt = epoch_outcomes(model, cog, Action.SKIP)
            assert taus.tolist() == [model.params.skip_time]
            assert nxt.tolist() == [cog]
            expected = np.zeros(model.n_cog)
            expected[cog] = 1.0
            assert oracle.level_rows(model, Action.SKIP, [2], cog)[0] == pytest.approx(
                expected, abs=0
            )

    def test_rest_lands_exactly_on_resting_level(self, model):
        star = model.grid.star_index
        taus, nxt = epoch_outcomes(model, 4, Action.REST)
        assert np.array_equal(taus, model.sojourn(4, Action.REST).support[0])
        assert np.all(nxt == star)
        *_, table = model._action_weights(Action.REST, np.ones(len(model._taus)))
        others = np.arange(model.n_cog) != star
        assert not np.any(table[:, :, others])
        assert oracle.level_rows(model, Action.REST, [7], 4)[0, star] == 1.0

    def test_service_matches_step_power(self, model):
        ones = np.ones(len(model._taus))
        for a in (Action.NORMAL, Action.HIGH, Action.WAIT):
            step = model.steps[a]
            lo, hi, table = model._action_weights(a, ones)
            times, probs = model.sojourn(1, a).support
            for tau, p in zip(times[:3], probs[:3]):
                expected = np.linalg.matrix_power(step, int(tau))[1]
                got = table[model._tau_row[tau] - lo, 1]
                assert got == pytest.approx(p * expected, abs=1e-12)
            for tau in (1, 3, 5):
                expected = np.linalg.matrix_power(step, tau)[1]
                got = oracle.level_rows(model, a, [tau], 1)[0]
                assert got == pytest.approx(expected, abs=1e-12)

    def test_powers_are_read_only(self, model):
        with pytest.raises(ValueError):
            model.powers[Action.NORMAL][1, 0, 0] = 0.0

    def test_rest_sojourn_missing_below_resting_level(self, model):
        with pytest.raises(InadmissibleRestError):
            model.sojourn(2, Action.REST)

    def test_missing_sojourn_off_the_grid_names_the_pair(self):
        model = builtin_config("tiny").build_model()
        with pytest.raises(KeyError, match="level 50 and action") as info:
            model.sojourn(50, Action.NORMAL)
        assert not isinstance(info.value, InadmissibleRestError)
        assert "resting level" not in str(info.value)


SHIPPED = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]


@pytest.fixture(scope="module", params=SHIPPED)
def shipped(request):
    """(name, model) of one shipped configuration."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return request.param, builtin_config(request.param).build_model()


class TestSupport:
    """``SojournPMF.support`` is the one positive-probability view that the
    arrival law, the kernel and the epoch law read."""

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

    def test_arrival_law_is_stored_once(self, shipped):
        """One read-only row of capped arrivals per sojourn length, no copy
        per start length."""
        model = shipped[1]
        assert model._arrivals.shape == (len(model._taus), model.n_q)
        assert not model._arrivals.flags.writeable


def assert_row_sums_equal_transform(model):
    """Every pair's row sums to E[gamma^tau] of its (level, action) law."""
    sums = model.pair_rows(*np.nonzero(model.admits)).sum(axis=1)
    for row, (s, col) in enumerate(np.argwhere(model.admits)):
        tr = model.moment("transform", TIE_ORDER[col])[s % model.n_cog]
        assert sums[row] == pytest.approx(tr, abs=1e-12), (s, TIE_ORDER[col])


def assert_one_row_per_admissible_pair(model):
    """Each state's row of ``admits`` marks its admissible actions, one
    column per action in TIE_ORDER; ``np.nonzero`` lists the admitted
    cells state-major and in TIE_ORDER within a state, one dense row each."""
    pairs = []
    for q in range(model.n_q):
        for cog in range(model.n_cog):
            allowed = admissible(q, cog, model.grid)
            s = q * model.n_cog + cog
            assert model.admits[s].tolist() == [a in allowed for a in TIE_ORDER]
            pairs += [(s, TIE_ORDER.index(a)) for a in TIE_ORDER if a in allowed]
    assert [tuple(cell) for cell in np.argwhere(model.admits).tolist()] == pairs
    assert model.pair_rows(*np.nonzero(model.admits)).shape == (len(pairs), model.n_states)
    for table in (model.admits, model.cell, model.cell_reward):
        assert table.shape == (model.n_states, len(TIE_ORDER))


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
        for s, col in np.argwhere(model.admits):
            assert model.cell_reward[s, col] == tables[TIE_ORDER[col]][s]
        assert np.all(model.cell_reward[~model.admits] == -np.inf)

    def test_kernel_is_read_only_and_contiguous(self, model):
        """The factored tables are read-only; a gathered row block is a
        fresh contiguous array, and neither a dense kernel nor a second
        table of capacity weights is kept."""
        assert model.pair_rows(*np.nonzero(model.admits)).flags.c_contiguous
        assert not hasattr(model, "kernel")
        assert not hasattr(model, "_tail_weights")
        for table in (model.admits, model.cell, model.cell_reward,
                      model.hankel_index, model.hankel_weights):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_operators_gather_each_actions_rows(self, model):
        ops = model.operators
        assert list(ops) == list(ACTIONS)
        assert sum(op.nbytes for op in ops.values()) == model.admits.sum() * model.n_states * 8
        for a in ACTIONS:
            states = np.flatnonzero(model.admits[:, TIE_ORDER.index(a)])
            columns = np.full(len(states), TIE_ORDER.index(a))
            assert np.array_equal(ops[a], model.pair_rows(states, columns))
            assert ops[a].shape[1] == model.n_states

    def test_row_matches_kernel_entries(self, model):
        for q, cog, a in [
            (3, 3, Action.REST),
            (2, 1, Action.NORMAL),
            (0, 4, Action.WAIT),
            (5, 0, Action.SKIP),
            (6, 2, Action.HIGH),
        ]:
            row = model.pair_rows([q * model.n_cog + cog], [TIE_ORDER.index(a)])[0]
            assert row == pytest.approx(oracle.pair_row(model, q, cog, a), abs=1e-13)

    def test_shipped_rows_match_kernel_entries(self, shipped):
        """Every admissible row on tiny; on the other configs the states
        q in {0, 1, capacity // 2, capacity - 1, capacity} x cog in
        {0, star, top}, so every kind of arrival start: empty, middle, one
        below the capacity and full."""
        name, model = shipped
        if name == "tiny":
            qs, cogs = range(model.n_q), range(model.n_cog)
        else:
            capacity = model.n_q - 1
            qs = sorted({0, 1, capacity // 2, capacity - 1, capacity})
            cogs = (0, model.grid.star_index, model.n_cog - 1)
        for q in qs:
            for cog in cogs:
                for a in admissible(q, cog, model.grid):
                    row = model.pair_rows([q * model.n_cog + cog], [TIE_ORDER.index(a)])[0]
                    assert row == pytest.approx(
                        oracle.pair_row(model, q, cog, a), abs=1e-13
                    ), (q, cog, a)

    def test_contraction_modulus(self, model):
        # every sojourn takes at least one step, so the modulus cannot
        # exceed gamma; skipping takes exactly two steps here
        tr = model.max_discount_transform
        assert tr <= model.params.discount
        assert tr == pytest.approx(0.9**2, abs=1e-12)


WIDE_STATE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "wide_state.yaml")


def factored_product(model, values):
    """Each pair's dense row against flat ``values`` through the factored
    tables: the Hankel gather of the values against the stacked arrival
    weights, read at the pair's (start, law) cell, admitted cells in
    row-major order."""
    after = values[model.hankel_index] @ model.hankel_weights
    return after.take(model.cell[model.admits])


def scattered_rows(model):
    """The dense rows of every admitted cell, in row-major order, scattered
    start by start from the factored tables: the reference for the gather
    of ``pair_rows``. From start s, the row is 0 below s, the law's
    ``hankel_weights`` rows k = 0..L-1-s at queues s..L-1 and, at the
    capacity L, its rows k = L down to L - s added one at a time: every
    k whose clamp V[min(s + k, L)] reads the capacity."""
    cap = model.n_q - 1
    moved = model.hankel_weights.reshape(model.n_q, model.n_cog, -1)
    start, law = np.divmod(model.cell[model.admits], model.n_laws)
    rows = np.zeros((len(law), model.n_q, model.n_cog))
    for s in range(model.n_q):
        picked = np.flatnonzero(start == s)
        cols = law[picked]
        rows[picked, s:cap] = moved[: cap - s, :, cols].transpose(2, 0, 1)
        full = moved[cap]
        for k in range(cap - 1, cap - s - 1, -1):
            full = full + moved[k]
        rows[picked, cap] = full[:, cols].T
    return rows.reshape(len(law), model.n_states)


def assert_factored_product_is_the_kernel(model, seed, draws=3):
    """The gathered rows equal the start-by-start scatter bit for bit, and
    the factored product equals their product within 1e-14 of the values'
    scale (a reordered sum; at most 8.4e-16 seen with unit normals)."""
    dense = model.pair_rows(*np.nonzero(model.admits))
    assert np.array_equal(dense, scattered_rows(model))
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        values = rng.normal(size=model.n_states)
        gap = np.max(np.abs(factored_product(model, values) - dense @ values))
        assert gap <= 1e-14 * np.max(np.abs(values))


class TestFactoredKernel:
    """Solving reads the kernel in factored form; ``pair_rows`` gathers
    dense rows from the same tables only for exact policy evaluation and
    ``operators``."""

    def test_shipped_factored_product_is_the_kernel(self, shipped):
        assert_factored_product_is_the_kernel(shipped[1], seed=5)

    def test_wide_state_factored_product_is_the_kernel(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fidelityq.resolve_config(WIDE_STATE).build_model()
        assert model.n_states == 976
        assert_factored_product_is_the_kernel(model, seed=6, draws=2)

    @settings(max_examples=25, deadline=None)
    @given(
        capacity=st.integers(min_value=2, max_value=6),
        intervals=st.integers(min_value=2, max_value=5),
        star=st.integers(min_value=1, max_value=4),
        family=st.sampled_from(["beta-binomial", "neg-binomial"]),
        rate=st.floats(min_value=0.05, max_value=1.5),
        discount=st.floats(min_value=0.5, max_value=0.97),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_small_configs_factored_product_is_the_kernel(
        self, capacity, intervals, star, family, rate, discount, seed
    ):
        service = ServiceFamily(
            base_mean={Action.NORMAL: 3.5, Action.HIGH: 6.0},
            curvature={Action.NORMAL: 4.0, Action.HIGH: 6.0},
            dispersion=3 if family == "neg-binomial" else 10.0,
            support=150,
            family=family,
        )
        params = small_params(
            queue_capacity=capacity,
            grid=CogGrid(n_intervals=intervals, star_index=min(star, intervals - 1)),
            service=service,
            arrival_rate=rate,
            discount=discount,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = build_model(params)
        assert_factored_product_is_the_kernel(model, seed)

    def test_pairs_read_their_start_and_law(self, shipped):
        """A pair's start is its queue less the action's decrement, at
        least 0; its law is its own (level, action) law of ``_sojourns``,
        so pairs of one action and level share a law and no two laws do.
        A cell the state does not admit reads cell 0."""
        model = shipped[1]
        assert model.n_laws == model.hankel_weights.shape[1] == len(model._sojourns)
        s, col = np.nonzero(model.admits)
        q, cog = np.divmod(s, model.n_cog)
        start, law = np.divmod(model.cell[s, col], model.n_laws)
        decrement = np.array([DECREMENT[a] for a in TIE_ORDER])[col]
        assert np.array_equal(start, np.maximum(q - decrement, 0))
        laws = list(model._sojourns)
        assert [laws[j] for j in law] == [(c, TIE_ORDER[i]) for c, i in zip(cog, col)]
        assert len(np.unique(law)) == len(model._sojourns)
        assert np.all(model.cell[~model.admits] == 0)


def per_law_weights(model):
    """``hankel_weights`` assembled law by law, the reference for the
    per-action assembly: each law finds its taus in ``_taus`` by
    ``searchsorted``, takes gamma^tau as a power and writes its rows of the
    action's weight table through the oracle's ``level_rows``. The one
    product per action then runs on the same inputs."""
    gamma = model.params.discount
    products = []
    for a in ACTIONS:
        laws = []
        for cog in range(model.n_cog):
            pmf = model._sojourns.get((cog, a))
            if pmf is not None:
                times, probs = pmf.support
                rows = np.searchsorted(model._taus, times)
                laws.append((cog, times, gamma**times * probs, rows))
        lo = min(int(rows[0]) for *_, rows in laws)
        hi = max(int(rows[-1]) for *_, rows in laws) + 1
        weights = np.zeros((hi - lo, len(laws), model.n_cog))
        for i, (cog, times, w, rows) in enumerate(laws):
            weights[rows - lo, i, :] = w[:, None] * oracle.level_rows(model, a, times, cog)
        weights = weights.reshape(hi - lo, len(laws) * model.n_cog)
        product = model._arrivals[lo:hi].T @ weights
        products.append(product.reshape(model.n_q, len(laws), model.n_cog))
    hankel = np.concatenate(products, axis=1).transpose(0, 2, 1)
    return hankel.reshape(model.n_states, -1)


def searchsorted_epoch_law(model):
    """``(cogs, arrival_row, cdf)`` of the epoch law, law by law, with each
    outcome's row of ``_taus`` found by ``searchsorted``."""
    cogs, rows, cdfs = [], [], []
    for (cog, a), pmf in model._sojourns.items():
        times, probs = pmf.support
        joint = oracle.level_rows(model, a, times, cog) * probs[:, None]
        row, nxt = np.nonzero(joint > 0)
        cogs.append(nxt)
        rows.append(np.searchsorted(model._taus, times)[row])
        cdfs.append(np.cumsum(joint[row, nxt]))
    cdf = SegmentedCdf(np.concatenate(cdfs), [len(c) for c in cdfs])
    return np.concatenate(cogs), np.concatenate(rows), cdf


@pytest.fixture(scope="module", params=SHIPPED + ["wide_state"])
def assembled(request):
    """A shipped model, or the benchmark's 976-state ``wide_state``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if request.param == "wide_state":
            return fidelityq.resolve_config(WIDE_STATE).build_model()
        return builtin_config(request.param).build_model()


class TestActionAssembly:
    """The weight tables are assembled one action at a time from the
    model's one tau layer (``_taus``, ``_tau_row``, ``_tau_discount``); the
    result is bit-identical to the per-law loop, and the epoch law reads the
    same rows a ``searchsorted`` into ``_taus`` finds."""

    def test_tau_layer(self, assembled):
        model = assembled
        times = np.concatenate([pmf.support[0] for pmf in model._sojourns.values()])
        assert np.array_equal(model._taus, np.unique(times))
        assert np.array_equal(model._tau_row[model._taus], np.arange(len(model._taus)))
        assert np.array_equal(model._tau_discount, model.params.discount**model._taus)
        for table in (model._taus, model._tau_row, model._tau_discount):
            assert not table.flags.writeable

    def test_weights_equal_the_per_law_loop(self, assembled):
        assert np.array_equal(assembled.hankel_weights, per_law_weights(assembled))

    def test_table_sums_to_one_and_to_the_transform(self, assembled):
        """Each law's column of the per-action table sums, over tau and the
        next level, to one at weight one and to E[gamma^tau] at weight
        gamma^tau: the row sums of an undiscounted and a discounted kernel."""
        model = assembled
        for a in ACTIONS:
            cogs = [cog for cog in range(model.n_cog) if (cog, a) in model._sojourns]
            *_, table = model._action_weights(a, np.ones(len(model._taus)))
            assert table.sum(axis=(0, 2)) == pytest.approx(np.ones(len(cogs)), abs=1e-13)
            *_, table = model._action_weights(a, model._tau_discount)
            transform = model.moment("transform", a)[cogs]
            assert table.sum(axis=(0, 2)) == pytest.approx(transform, abs=1e-13)

    def test_epoch_law_equals_a_searchsorted_copy(self, assembled):
        law = assembled.epoch_law
        cogs, rows, cdf = searchsorted_epoch_law(assembled)
        assert np.array_equal(law.cogs, cogs)
        assert np.array_equal(law.arrival_row, rows)
        for name in ("table", "guide", "guide_start", "buckets"):
            assert np.array_equal(getattr(law.cdf, name), getattr(cdf, name)), name


def test_transform_reads_the_tau_discount_table(shipped):
    """A law's discount transform E[gamma^tau] reads gamma^tau off the
    model's one table, ``_tau_discount``. Gathered at a law's support it is
    numpy's power over that support bit for bit, and the transform is the
    correctly rounded sum of those terms within 1e-14 relative."""
    model = shipped[1]
    gamma = model.params.discount
    for (cog, a), pmf in model._sojourns.items():
        times, probs = pmf.support
        gathered = model._tau_discount[model._tau_row[times]]
        assert np.array_equal(gathered, np.power(gamma, times.astype(np.float64))), (cog, a)
        exact = math.fsum((probs * gathered).tolist())
        assert model.moment("transform", a)[cog] == pytest.approx(exact, rel=1e-14, abs=0)


class TestDiagnostics:
    def test_default_assembly_is_clean(self, model):
        assert model.moment_ordering_violations == []

    def test_slow_skip_breaks_moment_ordering(self):
        params = small_params(**OWN, skip_time=6, arrival_rate=0.15)
        with pytest.warns(UserWarning, match="moment-ordering"):
            m = build_model(params)
        assert m.moment_ordering_violations
        bad = m.moment_ordering_violations[0]
        assert bad["pair"][0] == "S"

    def test_saturating_arrivals_warn(self):
        params = small_params(**OWN, skip_time=2, arrival_rate=0.6)
        with pytest.warns(UserWarning, match="unstable"):
            build_model(params)

    @pytest.mark.parametrize(
        "skip_time, rate, unstable", [(2, 0.45, False), (2, 0.5, True), (3, 0.5, True)]
    )
    def test_stability_boundary(self, skip_time, rate, unstable):
        # constant skipping keeps the queue stable only if skip_time < 1/rate
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_model(small_params(**OWN, skip_time=skip_time, arrival_rate=rate))
        assert any("unstable" in str(w.message) for w in caught) == unstable


class TestParamsValidation:
    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError):
            small_params(queue_capacity=0, service=SERVICE)
        with pytest.raises(ValueError):
            small_params(**OWN, holding_cost=0.0)
        with pytest.raises(ValueError):
            small_params(**OWN, reward_normal=3.0, reward_high=2.0)
        with pytest.raises(ValueError):
            small_params(**OWN, reward_normal=-1.0)
        with pytest.raises(ValueError):
            small_params(**OWN, discount=1.0)
        with pytest.raises(ValueError):
            small_params(**OWN, rest_cap_factor=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"skip_time": 0}, "skip_time must be a positive integer"),
            ({"skip_time": 1.5}, "skip_time must be a positive integer"),
            ({"arrival_rate": 0.0}, "arrival rate must be positive"),
            ({"arrival_rate": -0.3}, "arrival rate must be positive"),
            ({"arrival_rate": float("nan")}, "arrival rate must be positive"),
            # exp(-rate) rounds to 0, so a step always holds an arrival
            ({"arrival_rate": float("inf")}, r"per step must be in \(0,1\)"),
            ({"arrival_rate": 800.0}, r"per step must be in \(0,1\)"),
            # exp(-rate) rounds to 1, so no step ever holds one
            ({"arrival_rate": 1e-20}, r"per step must be in \(0,1\)"),
        ],
    )
    def test_rejects_bad_skip_and_arrivals(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_params(**OWN, **overrides)

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
            small_params(**OWN, **overrides)
