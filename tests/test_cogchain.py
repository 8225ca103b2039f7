"""Chain construction, evolution and first-passage oracles."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelityq import cogchain
from fidelityq.actions import Action
from fidelityq.cogchain import (
    UNIT_RATES,
    ChainRates,
    CogGrid,
    build_step_matrix,
    fpt_pmf,
    mean_first_passage,
    step_powers,
)
from fidelityq.config import builtin_config, resolve_config, step_probs
from fidelityq.errors import InadmissibleRestError, InvalidRatesError, TailMassError


def make_rates(**overrides):
    """Unit-scale per-step probabilities, overridable per action."""
    probs = {
        Action.WAIT: (0.02, 0.5),
        Action.REST: (0.02, 0.5),
        Action.NORMAL: (0.6, 0.02),
        Action.HIGH: (0.7, 0.02),
    }
    probs.update(overrides)
    return ChainRates(probs=probs)


GRID = CogGrid(n_intervals=10, star_index=6)


def default_cap(step, start, factor=50):
    """``rest_caps``' truncation point: ``factor`` times the exact mean."""
    return max(1, int(np.ceil(factor * mean_first_passage(step, GRID)[start])))


class TestStepMatrix:
    def test_normal_interior_row(self):
        step = build_step_matrix(GRID, make_rates(), Action.NORMAL)
        row = step[4]
        expected = np.zeros(GRID.n_levels)
        expected[3] = 0.02
        expected[4] = 1.0 - 0.6 - 0.02
        expected[5] = 0.6
        assert np.allclose(row, expected, atol=1e-15)

    def test_reflective_boundaries(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        n = GRID.n_levels
        assert step[0, 0] == pytest.approx(1.0 - 0.02)
        assert step[0, 1] == pytest.approx(0.02)
        assert step[n - 1, n - 2] == pytest.approx(0.5)
        assert step[n - 1, n - 1] == pytest.approx(0.5)

    def test_rows_sum_to_one(self):
        for action in UNIT_RATES:
            step = build_step_matrix(GRID, make_rates(), action)
            assert np.allclose(step.sum(axis=1), 1.0, atol=1e-12)

    def test_tridiagonal(self):
        step = build_step_matrix(GRID, make_rates(), Action.HIGH)
        n = GRID.n_levels
        for i in range(n):
            for j in range(n):
                if abs(i - j) > 1:
                    assert step[i, j] == 0.0

    def test_upward_drift_for_service(self):
        rates = make_rates()
        for action in (Action.NORMAL, Action.HIGH):
            step = build_step_matrix(GRID, rates, action)
            for i in range(1, GRID.n_levels - 1):
                assert step[i, i + 1] > step[i, i - 1]

    def test_invalid_rates_rejected(self):
        with pytest.raises(InvalidRatesError):
            make_rates(**{Action.HIGH: (1.1, 0.02)})

    def test_wrong_drift_direction_rejected(self):
        with pytest.raises(InvalidRatesError):
            make_rates(**{Action.REST: (0.5, 0.02)})
        with pytest.raises(InvalidRatesError):
            make_rates(**{Action.NORMAL: (0.02, 0.6)})

    def test_high_must_push_harder_than_normal(self):
        with pytest.raises(InvalidRatesError):
            make_rates(**{Action.HIGH: (0.5, 0.02)})

    def test_skip_must_be_frozen(self):
        # skipping does not move the chain, so it takes no rates at all
        for skip in ((0.0, 0.0), (0.1, 0.1)):
            with pytest.raises(InvalidRatesError):
                make_rates(**{Action.SKIP: skip})

    @pytest.mark.parametrize("action", list(UNIT_RATES), ids=str)
    def test_missing_action_rejected(self, action):
        probs = dict(make_rates().probs)
        del probs[action]
        with pytest.raises(InvalidRatesError, match="exactly"):
            ChainRates(probs=probs)

    def test_default_scaling_keeps_rows_stochastic(self):
        rates = ChainRates(probs=step_probs(0.8))
        pf, pb = rates.probs[Action.HIGH]
        assert pf == pytest.approx(1.1 * 0.8)
        assert pb == pytest.approx(0.02 * 0.8)
        assert pf + pb <= 1.0

    @given(
        pf=st.floats(0.01, 0.6),
        pb=st.floats(0.0, 0.35),
        n=st.integers(2, 12),
    )
    @settings(max_examples=50, deadline=None)
    def test_any_valid_rates_give_stochastic_rows(self, pf, pb, n):
        if pf <= pb:
            pb = pf * 0.5
        rates = make_rates(**{Action.NORMAL: (pf, pb)})
        grid = CogGrid(n_intervals=n, star_index=1)
        step = build_step_matrix(grid, rates, Action.NORMAL)
        assert np.allclose(step.sum(axis=1), 1.0, atol=1e-12)
        assert (step >= 0).all()


def paths_probability(matrix, start, end, n_steps):
    """Brute-force path enumeration oracle for n-step transition mass."""
    n = matrix.shape[0]
    total = 0.0
    stack = [(start, 1.0, 0)]
    while stack:
        state, prob, depth = stack.pop()
        if depth == n_steps:
            if state == end:
                total += prob
            continue
        for nxt in range(n):
            p = matrix[state, nxt]
            if p > 0:
                stack.append((nxt, prob * p, depth + 1))
    return total


def evolve(step, cog_index, tau):
    """Reference distribution after ``tau`` steps: row ``cog_index`` of the
    ``tau``-th matrix power."""
    return np.linalg.matrix_power(step, tau)[cog_index]


class TestEvolve:
    def test_zero_steps_is_point_mass(self):
        step = build_step_matrix(GRID, make_rates(), Action.NORMAL)
        dist = evolve(step, 4, 0)
        expected = np.zeros(GRID.n_levels)
        expected[4] = 1.0
        assert np.array_equal(dist, expected)

    def test_one_step_from_bottom(self):
        # Single step of the normal chain from the bottom boundary puts the
        # forward mass one level up and the rest stays put.
        step = build_step_matrix(GRID, make_rates(), Action.NORMAL)
        dist = evolve(step, 0, 1)
        assert dist[0] == pytest.approx(0.4)
        assert dist[1] == pytest.approx(0.6)
        assert dist[2:].sum() == 0.0

    def test_three_step_distribution_matches_path_enumeration(self):
        grid = CogGrid(n_intervals=4, star_index=2)
        step = build_step_matrix(grid, make_rates(), Action.HIGH)
        dist = evolve(step, 1, 3)
        for target in range(grid.n_levels):
            expected = paths_probability(step, 1, target, 3)
            assert dist[target] == pytest.approx(expected, abs=1e-14)

    def test_powers_match_evolve(self):
        step = build_step_matrix(GRID, make_rates(), Action.WAIT)
        powers = step_powers(step, 7)
        for tau in range(8):
            for i in range(GRID.n_levels):
                assert np.allclose(powers[tau, i], evolve(step, i, tau), atol=1e-12)

    @given(a=st.integers(0, 4), b=st.integers(0, 4), i=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_chapman_kolmogorov(self, a, b, i):
        step = build_step_matrix(GRID, make_rates(), Action.NORMAL)
        combined = evolve(step, i, a + b)
        split = evolve(step, i, a) @ np.linalg.matrix_power(step, b)
        assert np.allclose(combined, split, atol=1e-12)


def sequential_powers(step, t_max):
    """Reference ladder: every one of the t_max products, none skipped."""
    n = len(step)
    out = np.empty((t_max + 1, n, n))
    out[0] = np.eye(n)
    for t in range(1, t_max + 1):
        out[t] = out[t - 1] @ step
    return out


def first_fixed_step(ladder):
    """First t with ladder[t] bitwise equal to ladder[t - 1], or None."""
    for t in range(1, len(ladder)):
        if ladder[t].tobytes() == ladder[t - 1].tobytes():
            return t
    return None


SHIPPED = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]


@pytest.fixture(scope="module", params=SHIPPED)
def shipped(request):
    """Model of one shipped configuration."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builtin_config(request.param).build_model()


LADDER_ACTIONS = (Action.WAIT, Action.NORMAL, Action.HIGH)


class TestStepPowersFixedPoint:
    """``step_powers`` stops at the ladder's bitwise fixed point; the result
    must equal the full sequential loop bit for bit. large_gap's ladders
    reach the fixed point; tiny's, and default's NORMAL, never do."""

    @pytest.mark.parametrize("action", LADDER_ACTIONS, ids=lambda a: a.name)
    def test_shipped_ladders_match_sequential_loop(self, shipped, action):
        step = shipped.steps[action]
        t_max = len(shipped.powers[action]) - 1
        assert np.array_equal(step_powers(step, t_max), sequential_powers(step, t_max))

    def test_large_gap_reaches_fixed_point_before_t_max(self):
        # so the shipped-ladder cases above exercise the early stop
        model = builtin_config("large_gap").build_model()
        for action in LADDER_ACTIONS:
            t_max = len(model.powers[action]) - 1
            fixed = first_fixed_step(sequential_powers(model.steps[action], t_max))
            assert fixed is not None and fixed < t_max, action

    def test_identity_is_fixed_at_first_step(self):
        step = np.eye(GRID.n_levels)
        reference = sequential_powers(step, 40)
        assert first_fixed_step(reference) == 1
        assert np.array_equal(step_powers(step, 40), reference)

    @pytest.mark.parametrize("t_max", [0, 1])
    def test_shortest_ladders(self, t_max):
        step = build_step_matrix(GRID, make_rates(), Action.NORMAL)
        assert np.array_equal(step_powers(step, t_max), sequential_powers(step, t_max))


def simulate_first_passage(matrix, start, star_index, n_runs, seed):
    """Monte-Carlo first-passage oracle: step the chain until it reaches
    the resting level or below, return the hitting times."""
    rng = np.random.default_rng(seed)
    n = matrix.shape[0]
    cum = np.cumsum(matrix, axis=1)
    times = np.empty(n_runs, dtype=np.int64)
    for run in range(n_runs):
        state = start
        t = 0
        while True:
            t += 1
            state = int(np.searchsorted(cum[state], rng.random()))
            state = min(state, n - 1)
            if state <= star_index:
                times[run] = t
                break
    return times


class TestFirstPassage:
    def test_pure_downward_chain_is_geometric(self):
        # With no upward noise and backward probability p, the passage time
        # from one level above the resting level is geometric(p):
        # f(k) = p (1-p)^(k-1).
        p = 0.5
        rates = make_rates(**{Action.REST: (0.0, p)})
        step = build_step_matrix(GRID, rates, Action.REST)
        probs, tail = fpt_pmf(step, GRID, GRID.star_index + 1, t_cap=60)
        ks = np.arange(1, 61)
        expected = p * (1 - p) ** (ks - 1)
        expected /= expected.sum()
        assert np.allclose(probs, expected, atol=1e-12)
        assert tail < 1e-6

    def test_mean_matches_linear_solve(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        for start in range(GRID.star_index + 1, GRID.n_levels):
            cap = default_cap(step, start)
            probs, _ = fpt_pmf(step, GRID, start, cap)
            pmf_mean = float(np.arange(1, cap + 1) @ probs)
            exact = mean_first_passage(step, GRID)[start]
            assert pmf_mean == pytest.approx(exact, rel=1e-6)

    def test_matches_monte_carlo(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        start = GRID.n_levels - 1
        n_runs = 100_000
        times = simulate_first_passage(step, start, GRID.star_index, n_runs, seed=7)
        exact = mean_first_passage(step, GRID)[start]
        se = times.std(ddof=1) / np.sqrt(n_runs)
        assert abs(times.mean() - exact) < 3 * se

    def test_distribution_matches_monte_carlo_histogram(self):
        p = 0.6
        rates = make_rates(**{Action.REST: (0.05, p)})
        step = build_step_matrix(GRID, rates, Action.REST)
        start = GRID.star_index + 2
        cap = default_cap(step, start)
        probs, _ = fpt_pmf(step, GRID, start, cap)
        times = simulate_first_passage(step, start, GRID.star_index, 50_000, seed=11)
        for k in (2, 3, 4, 6, 9):
            emp = float((times == k).mean())
            se = np.sqrt(probs[k - 1] * (1 - probs[k - 1]) / 50_000)
            assert abs(emp - probs[k - 1]) < 4 * se + 1e-12

    def test_mean_nondecreasing_in_start_level(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        means = mean_first_passage(step, GRID)[GRID.star_index + 1 :]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_support_and_normalization(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        probs, _ = fpt_pmf(step, GRID, 8, t_cap=200)
        assert probs.shape == (200,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (probs >= 0).all()

    def test_small_cap_raises(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        with pytest.raises(TailMassError):
            fpt_pmf(step, GRID, GRID.n_levels - 1, t_cap=3)

    def test_rest_from_resting_level_inadmissible(self):
        step = build_step_matrix(GRID, make_rates(), Action.REST)
        with pytest.raises(InadmissibleRestError):
            fpt_pmf(step, GRID, GRID.star_index, t_cap=50)
        # no mean first passage from at or below the resting level
        means = mean_first_passage(step, GRID)
        assert np.isnan(means[: GRID.star_index + 1]).all()
        assert np.isfinite(means[GRID.star_index + 1 :]).all()


def sequential_fpt(step, grid, cog_index, t_cap):
    """Reference first-passage law: one ``alpha @ Q`` product per step, the
    loop ``fpt_pmf`` ran before its ladder, renormalized as it does."""
    start = grid.star_index + 1
    q_block, absorb = step[start:, start:], step[start:, :start].sum(axis=1)
    alpha = np.zeros(len(q_block))
    alpha[cog_index - start] = 1.0
    probs = np.empty(t_cap)
    for t in range(t_cap):
        probs[t] = alpha @ absorb
        alpha = alpha @ q_block
    return probs / probs.sum(), float(alpha.sum())


WIDE_STATE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "wide_state.yaml")


class TestFirstPassageLadder:
    """``fpt_pmf``'s ladder equals the per-step loop bit for bit. large_gap
    and tiny rest one level above the resting level (the running-product
    path), the other configs four to six levels above it."""

    @pytest.mark.parametrize("name", SHIPPED + ["wide_state"])
    def test_shipped_rest_laws_match_sequential_loop(self, name):
        config = resolve_config(WIDE_STATE if name == "wide_state" else name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = config.build_model()
        step, grid = model.steps[Action.REST], model.grid
        means = mean_first_passage(step, grid)
        for cog in range(grid.star_index + 1, grid.n_levels):
            t_cap = max(1, int(np.ceil(model.params.rest_cap_factor * means[cog])))
            probs, tail = fpt_pmf(step, grid, cog, t_cap)
            expected, expected_tail = sequential_fpt(step, grid, cog, t_cap)
            assert np.array_equal(probs, expected), (name, cog)
            assert tail == expected_tail, (name, cog)
            assert model.sojourn(cog, Action.REST).truncated_mass == tail

    @given(
        levels=st.integers(1, 12),
        star=st.integers(1, 3),
        pb=st.floats(0.01, 0.99),
        share=st.floats(0.0, 0.99),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_birth_death_chains_match_sequential_loop(self, levels, star, pb, share, data):
        # the tolerance is lifted so short caps compare whole ladders too;
        # a cap below the start level's distance would leave no mass
        grid = CogGrid(n_intervals=star + levels, star_index=star)
        rates = make_rates(**{Action.REST: (share * min(pb, 1.0 - pb), pb)})
        step = build_step_matrix(grid, rates, Action.REST)
        cog = data.draw(st.integers(star + 1, grid.n_intervals), label="cog")
        t_cap = data.draw(st.integers(cog - star, 300), label="t_cap")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cogchain, "TRUNCATION_TOL", np.inf)
            probs, tail = fpt_pmf(step, grid, cog, t_cap)
        expected, expected_tail = sequential_fpt(step, grid, cog, t_cap)
        assert np.array_equal(probs, expected)
        assert tail == expected_tail


class TestGrid:
    def test_levels(self):
        grid = CogGrid(n_intervals=5, star_index=3)
        assert [grid.level(i) for i in range(grid.n_levels)] == pytest.approx(
            [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        )
        assert grid.star_level == pytest.approx(0.6)

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            CogGrid(n_intervals=1, star_index=0)
        with pytest.raises(ValueError):
            CogGrid(n_intervals=5, star_index=0)
        with pytest.raises(ValueError):
            CogGrid(n_intervals=5, star_index=5)
