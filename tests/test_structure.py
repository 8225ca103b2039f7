"""Tests for the structural verification layer.

The dominance-margin oracle recomputes every margin from the exported
moment tables with independent arithmetic; threshold extraction is pinned
against hand-written policy rows.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidelityq.actions import Action
from fidelityq.cogchain import CogGrid
from fidelityq.errors import GuaranteeViolationError
from fidelityq.model import build_model, queue_actions
from fidelityq.solver import value_iteration
from fidelityq.sojourn import ServiceFamily
from fidelityq.structure import (
    BUSY_EMPTY_FRACTION,
    VALUE_GAP_TOL,
    DominanceReport,
    SlowestService,
    StructureReport,
    ThresholdRow,
    check_value_gap_bounds,
    check_value_shape,
    checked_queue_range,
    compute_rho,
    dominance_margins,
    extract_thresholds,
    gamma_mgf_bound,
    grade,
    slowest_service,
    threshold_report,
    verify_threshold_structure,
)
from small_model import small_params


@pytest.fixture(scope="module")
def model():
    return build_model(small_params())


@pytest.fixture(scope="module")
def bound_report(model):
    return compute_rho(model)


@pytest.fixture(scope="module")
def ceiling(model):
    return slowest_service(model)


class TestGammaMgfBound:
    def test_degenerate_variance_is_plain_power(self):
        assert gamma_mgf_bound(2.0, 0.0, 0.96) == pytest.approx(0.96**2, abs=1e-15)
        assert gamma_mgf_bound(7.0, 0.0, 0.5) == pytest.approx(0.5**7, abs=1e-15)

    def test_plug_in_arithmetic(self):
        expected = (1.0 - math.log(0.96)) ** -2
        assert gamma_mgf_bound(2.0, 2.0, 0.96) == pytest.approx(expected, abs=1e-15)

    def test_continuous_at_zero_variance(self):
        for mean, gamma in [(2.0, 0.96), (10.0, 0.9), (50.0, 0.99)]:
            near = gamma_mgf_bound(mean, 1e-8, gamma)
            assert near == pytest.approx(gamma**mean, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_mgf_bound(0.0, 1.0, 0.9)
        with pytest.raises(ValueError):
            gamma_mgf_bound(2.0, -1.0, 0.9)
        with pytest.raises(ValueError):
            gamma_mgf_bound(2.0, 1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        mean=st.floats(min_value=0.5, max_value=200.0),
        variance=st.floats(min_value=0.0, max_value=500.0),
        gamma=st.floats(min_value=0.3, max_value=0.995),
    )
    def test_never_below_discounted_mean(self, mean, variance, gamma):
        assert gamma_mgf_bound(mean, variance, gamma) >= gamma**mean - 1e-12

    def test_monotone_in_both_arguments(self):
        gamma = 0.95
        means = np.linspace(1.0, 40.0, 25)
        bounds = [gamma_mgf_bound(m, 4.0, gamma) for m in means]
        assert np.all(np.diff(bounds) < 0)
        variances = np.linspace(0.0, 60.0, 25)
        bounds = [gamma_mgf_bound(8.0, v, gamma) for v in variances]
        assert np.all(np.diff(bounds) > 0)


class TestComputeRho:
    def test_skip_entries_are_tight(self, model, bound_report):
        gamma = model.params.discount
        t_s = model.params.skip_time
        skip_rows = [e for e in bound_report.entries if e["action"] == "S"]
        assert len(skip_rows) == model.n_cog
        for row in skip_rows:
            assert row["bound"] == pytest.approx(gamma**t_s, abs=1e-12)
            assert row["transform"] == pytest.approx(gamma**t_s, abs=1e-12)
            assert row["light_tail_ok"]

    def test_rho_dominates_skip_and_stays_contractive(self, model, bound_report):
        gamma = model.params.discount
        assert bound_report.rho >= gamma**model.params.skip_time
        assert bound_report.rho < 1.0

    def test_waiting_is_excluded(self, bound_report):
        assert all(e["action"] != "W" for e in bound_report.entries)

    def test_rest_entries_satisfy_the_bound(self, model, bound_report):
        rest_rows = [e for e in bound_report.entries if e["action"] == "R"]
        assert len(rest_rows) == model.n_cog - model.grid.star_index - 1
        for row in rest_rows:
            assert row["light_tail_ok"]

    def test_flags_match_direct_comparison(self, model, bound_report):
        for e in bound_report.entries:
            recomputed = gamma_mgf_bound(
                e["mean"], e["variance"], model.params.discount
            )
            assert e["bound"] == pytest.approx(recomputed, abs=1e-15)
            assert e["light_tail_ok"] == (e["transform"] <= recomputed + 1e-12)

    def test_violations_are_the_flagged_entries(self, bound_report):
        flagged = [e for e in bound_report.entries if not e["light_tail_ok"]]
        assert bound_report.violations == flagged
        assert bound_report.light_tail_ok == (not flagged)


class TestSlowestService:
    def test_symmetric_grid_keeps_top_level(self, model):
        info = slowest_service(model)
        # level 0 and level 1 sit at equal distance from the middle, so the
        # top-level high-fidelity mean already is the maximum
        assert not info.substituted
        assert info.value == pytest.approx(
            model.moment("mu1", Action.HIGH)[model.n_cog - 1]
        )
        assert info.note is None

    def test_skewed_grid_substitutes_true_maximum(self):
        m = build_model(small_params(grid=CogGrid(n_intervals=4, star_index=3)))
        info = slowest_service(m)
        assert info.substituted
        assert "(cog=0, H)" in info.note
        assert info.value == pytest.approx(m.moment("mu1", Action.HIGH)[0])
        assert info.value > info.configured
        assert "true maximum" in info.note


class TestCheckedRange:
    def test_buffer_excludes_top_fifth_and_zero(self):
        assert list(checked_queue_range(31)) == list(range(1, 25))
        assert list(checked_queue_range(9, 0.25)) == list(range(1, 7))

    def test_too_small_grid_rejected(self):
        for n_q, buffer_fraction in [(2, 0.9), (31, -0.5), (31, 1.0)]:
            with pytest.raises(ValueError):
                checked_queue_range(n_q, buffer_fraction)


class TestValueGapBounds:
    def test_linear_value_inside_the_sandwich(self, model, bound_report, ceiling):
        rho = bound_report.rho
        probe = check_value_gap_bounds(
            model, np.zeros((model.n_q, model.n_cog)), rho, ceiling
        )
        k = 0.5 * (probe.lower_bound_rate + probe.upper_bound_rate)
        values = -k * np.arange(model.n_q)[:, None] * np.ones((1, model.n_cog))
        report = check_value_gap_bounds(model, values, rho, ceiling)
        assert report.passed()
        assert not report.failures
        qs = list(checked_queue_range(model.n_q))
        n_pairs = model.n_cog * len(qs) * (len(qs) - 1) // 2
        assert report.n_pairs == n_pairs
        assert report.worst_lower_margin == pytest.approx(
            k - report.lower_bound_rate, abs=1e-12
        )
        assert report.worst_upper_margin == pytest.approx(
            report.upper_bound_rate - k, abs=1e-12
        )

    def test_too_steep_value_fails_upper_bound(self, model, bound_report, ceiling):
        rho = bound_report.rho
        probe = check_value_gap_bounds(
            model, np.zeros((model.n_q, model.n_cog)), rho, ceiling
        )
        k = probe.upper_bound_rate * 1.5
        values = -k * np.arange(model.n_q)[:, None] * np.ones((1, model.n_cog))
        report = check_value_gap_bounds(model, values, rho, ceiling)
        assert not report.passed()
        assert report.failures
        assert report.worst_upper_margin < 0

    def test_busy_assumption_gate(self, model, bound_report, ceiling):
        values = np.zeros((model.n_q, model.n_cog))
        report = check_value_gap_bounds(
            model, values, bound_report.rho, ceiling, empty_queue_fraction=0.05
        )
        assert report.assumption_violated
        assert any("empty" in n for n in report.notes)
        for busy in (0.002, 0.01):
            quiet = check_value_gap_bounds(
                model, values, bound_report.rho, ceiling, empty_queue_fraction=busy
            )
            assert not quiet.assumption_violated, busy

    def test_busy_note_names_the_threshold_not_the_fraction(
        self, model, bound_report, ceiling
    ):
        values = np.zeros((model.n_q, model.n_cog))
        notes = [
            check_value_gap_bounds(
                model, values, bound_report.rho, ceiling, empty_queue_fraction=empty
            ).notes
            for empty in (0.0449, 0.3)
        ]
        assert notes[0] == notes[1]
        assert any("more than 1%" in n for n in notes[0])


def margin_oracle(model, rho, cog):
    """Spreadsheet-style recomputation from the moment tables."""
    gamma = model.params.discount
    t_s = model.params.skip_time
    t_max = slowest_service(model).value
    mu_h = model.moment("mu1", Action.HIGH)[cog]
    mu_n = model.moment("mu1", Action.NORMAL)[cog]
    tr_n = model.moment("transform", Action.NORMAL)[cog]
    bonus = t_s * gamma**mu_h / (1 - gamma**t_max)
    pressure = t_max / (1 - rho)
    out = {"high_to_normal_margin": mu_h - mu_n + bonus - pressure * tr_n}
    if cog > model.grid.star_index:
        mu_r = model.moment("mu1", Action.REST)[cog]
        tr_r = model.moment("transform", Action.REST)[cog]
        out["normal_to_rest_margin"] = mu_n - mu_r + bonus - pressure * tr_r
        out["to_skip_margin"] = mu_r - t_s + bonus - gamma**t_s * pressure
        gaps = [mu_h - mu_n, mu_n - mu_r, mu_r - t_s]
        transforms = [
            gamma**t_s,
            tr_r,
            tr_n,
            model.moment("transform", Action.HIGH)[cog],
        ]
    else:
        out["normal_to_rest_margin"] = None
        out["to_skip_margin"] = mu_n - t_s + bonus - gamma**t_s * pressure
        gaps = [mu_h - mu_n, mu_n - t_s]
        transforms = [
            gamma**t_s,
            tr_n,
            model.moment("transform", Action.HIGH)[cog],
        ]
    out["combined_margin"] = min(gaps) + bonus - pressure * max(transforms)
    return out


class TestDominanceMargins:
    def test_matches_independent_recomputation(self, model, bound_report):
        report = dominance_margins(model, bound_report)
        assert report.rho == bound_report.rho
        for cog in range(model.n_cog):
            expected = margin_oracle(model, report.rho, cog)
            row = report.per_cog[cog]
            for key, want in expected.items():
                if want is None:
                    assert row[key] is None
                else:
                    assert row[key] == pytest.approx(want, abs=1e-10), (cog, key)

    def test_rest_margins_only_above_resting_level(self, model):
        report = dominance_margins(model)
        for cog, row in enumerate(report.per_cog):
            assert row["rest_admissible"] == (cog > model.grid.star_index)
            assert (row["normal_to_rest_margin"] is None) == (
                cog <= model.grid.star_index
            )

    def test_vanishing_fidelity_gap_leaves_bonus_term(self):
        m = build_model(
            small_params(
                service=ServiceFamily(
                    base_mean={Action.NORMAL: 6.0, Action.HIGH: 6.0 + 1e-9},
                    curvature={Action.NORMAL: 5.0, Action.HIGH: 5.0},
                    dispersion=12.0,
                    support=30,
                )
            )
        )
        report = dominance_margins(m)
        for cog, row in enumerate(report.per_cog):
            gamma = m.params.discount
            t_max = report.ceiling.value
            bonus = row["bonus"]
            tr_n = m.moment("transform", Action.NORMAL)[cog]
            residual = bonus - t_max / (1 - report.rho) * tr_n
            assert row["high_to_normal_margin"] == pytest.approx(residual, abs=1e-6)

    def test_combined_margin_never_beats_pairwise(self, model):
        # the combined condition takes the worst gap and the worst transform
        report = dominance_margins(model)
        for row in report.per_cog:
            pairwise = [
                v
                for v in (
                    row["high_to_normal_margin"],
                    row["normal_to_rest_margin"],
                )
                if v is not None
            ]
            assert row["combined_margin"] <= min(pairwise) + 1e-12


GRID = CogGrid(n_intervals=4, star_index=2)  # 5 levels, resting at 2
HIGH = 4  # cog index above the resting level
LOW = 1


def row_from(symbols):
    """Policy column indexed by q with q=0 forced to waiting."""
    return np.array(["W"] + list(symbols), dtype="<U1")


class TestExtractThresholds:
    def test_canonical_high_level_row(self):
        row = row_from("HHNNRSS")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 8))
        assert (out.q1, out.q2, out.q3) == (2, 4, 5)
        assert out.is_threshold
        assert out.violations == []

    def test_skip_reappearance_flagged(self):
        row = row_from("HSNNS")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 6))
        assert not out.is_threshold
        assert any("S reappears" in v for v in out.violations)

    def test_order_break_without_reappearance(self):
        row = row_from("NHS")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 4))
        assert not out.is_threshold
        assert any("H shows up after N" in v for v in out.violations)

    def test_all_skip_row_has_zero_thresholds(self):
        row = row_from("SSSSS")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 6))
        assert (out.q1, out.q2, out.q3) == (0, 0, 0)
        assert out.is_threshold

    def test_unbroken_prefix_censors_later_switches(self):
        row = row_from("HHHHH")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 6))
        assert out.is_threshold
        assert out.q1 == math.inf
        assert out.q2 == math.inf
        assert out.q3 == math.inf

    def test_missing_tail_censors_only_the_unseen(self):
        row = row_from("HHNN")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 5))
        assert out.is_threshold
        assert out.q1 == 2
        assert out.q2 == math.inf
        assert out.q3 == math.inf

    def test_low_level_row_has_no_rest_threshold(self):
        row = row_from("HNNS")
        out = extract_thresholds(row, LOW, GRID, q_range=range(1, 5))
        assert out.is_threshold
        assert (out.q1, out.q2) == (1, 3)
        assert out.q3 is None

    def test_rest_on_low_level_is_a_violation(self):
        row = row_from("HNRS")
        out = extract_thresholds(row, LOW, GRID, q_range=range(1, 5))
        assert not out.is_threshold
        assert any("R" in v for v in out.violations)

    def test_empty_middle_block(self):
        row = row_from("HHRS")
        out = extract_thresholds(row, HIGH, GRID, q_range=range(1, 5))
        assert out.is_threshold
        assert (out.q1, out.q2, out.q3) == (2, 2, 3)


def fake_margins(model, combined):
    rows = []
    for cog in range(model.n_cog):
        rows.append(
            {
                "cog_index": cog,
                "level": model.grid.level(cog),
                "rest_admissible": cog > model.grid.star_index,
                "bonus": 0.0,
                "high_to_normal_margin": 0.0,
                "normal_to_rest_margin": None,
                "to_skip_margin": 0.0,
                "combined_margin": combined[cog],
            }
        )
    ceiling = SlowestService(
        value=1.0, configured=1.0, true_max=1.0, substituted=False, note=None
    )
    return DominanceReport(per_cog=rows, rho=0.5, ceiling=ceiling)


class TestVerifyThresholdStructure:
    def make_policy(self, model, broken_cog=None):
        policy = np.full((model.n_q, model.n_cog), "S", dtype="<U1")
        policy[0, :] = "W"
        policy[1, :] = "H"
        policy[2, :] = "N"
        if broken_cog is not None:
            policy[4, broken_cog] = "H"  # slow fidelity reappears
        return policy

    def test_clean_policy_passes(self, model):
        margins = fake_margins(model, [1.0] * model.n_cog)
        report = verify_threshold_structure(
            model, self.make_policy(model), margins=margins
        )
        assert all(row.is_threshold for row in report.rows)
        assert all(margins.guaranteed)

    def test_guaranteed_break_raises(self, model):
        margins = fake_margins(model, [1.0] * model.n_cog)
        with pytest.raises(GuaranteeViolationError):
            verify_threshold_structure(
                model, self.make_policy(model, broken_cog=2), margins=margins
            )

    def test_report_never_raises(self, model):
        # the non-raising form the CLI writes its tables from
        margins = fake_margins(model, [1.0] * model.n_cog)
        report = threshold_report(model, self.make_policy(model, broken_cog=2))
        assert margins.guaranteed[2]
        assert not report.rows[2].is_threshold
        assert [row.cog_index for row in report.rows] == list(range(model.n_cog))

    def test_unguaranteed_break_is_reported_not_raised(self, model):
        combined = [1.0] * model.n_cog
        combined[2] = -0.5
        margins = fake_margins(model, combined)
        report = verify_threshold_structure(
            model, self.make_policy(model, broken_cog=2), margins=margins
        )
        assert not all(row.is_threshold for row in report.rows)
        assert not margins.guaranteed[2]
        assert not report.rows[2].is_threshold

    def test_solved_small_model_is_sound(self, model):
        # end-to-end: whatever the margins say, no guaranteed level may
        # break the threshold shape
        solution = value_iteration(model)
        report = verify_threshold_structure(model, solution.policy)
        assert len(report.rows) == model.n_cog


class TestValueShape:
    def bump(self, model):
        star = model.grid.star_index
        return -0.1 * (np.arange(model.n_cog) - star) ** 2

    def test_clean_surface_accepted(self, model):
        q = np.arange(model.n_q)[:, None]
        values = -0.7 * q + self.bump(model)[None, :]
        assert check_value_shape(model, values) == []

    def test_rising_queue_segment_noted(self, model):
        q = np.arange(model.n_q)[:, None]
        values = -0.7 * q + self.bump(model)[None, :]
        values[3, :] = values[2, :]  # flat step
        notes = check_value_shape(model, values)
        assert any("decreasing" in n for n in notes)

    def test_shifted_peak_noted(self, model):
        q = np.arange(model.n_q)[:, None]
        star = model.grid.star_index
        off = -0.1 * (np.arange(model.n_cog) - (star + 1)) ** 2
        values = -0.7 * q + off[None, :]
        notes = check_value_shape(model, values)
        assert any("peaks at" in n for n in notes)


class TestGrade:
    def test_parts_match_the_separate_checks(self, model, bound_report, ceiling):
        solution = value_iteration(model)
        report = grade(model, solution, 0.25, empty_queue_fraction=0.05)
        assert report.light_tail == bound_report
        assert report.margins == dominance_margins(model, bound_report)
        assert report.margins.ceiling == ceiling
        assert report.thresholds == threshold_report(model, solution.policy, 0.25)
        assert report.value_gap == check_value_gap_bounds(
            model, solution.values, bound_report.rho, ceiling, 0.25, 0.05
        )
        assert report.value_shape_notes == check_value_shape(
            model, solution.values, 0.25
        )
        assert report.busy_assumption_ok is False
        assert report.value_gap.assumption_violated

    def test_busy_flag_follows_the_empty_fraction(self, model):
        solution = value_iteration(model)
        assert grade(model, solution).busy_assumption_ok is None
        assert grade(model, solution, empty_queue_fraction=0.01).busy_assumption_ok


# -- the earlier row scans, kept as references for the array passes --------


def reference_extract_thresholds(policy_row, cog_index, grid, q_range):
    """The per-block rescan ``extract_thresholds`` used before its one
    switch-point rule: ``block_end`` rescans the row once per switch."""
    order = queue_actions(cog_index, grid)[::-1]
    high = Action.REST in order
    rank = {a.value: i for i, a in enumerate(order)}

    qs = list(q_range)
    symbols = [str(policy_row[q]) for q in qs]
    violations = []
    runs = []
    for q, sym in zip(qs, symbols):
        if sym not in rank:
            violations.append(f"{sym} is not a queue action at this level")
            continue
        if not runs or runs[-1][0] != sym:
            runs.append((sym, q))
    seen = set()
    last_rank = -1
    for sym, q_start in runs:
        if sym in seen:
            violations.append(f"{sym} reappears at q={q_start}")
        elif rank[sym] < last_rank:
            violations.append(f"{sym} shows up after {order[last_rank].value} at q={q_start}")
        seen.add(sym)
        last_rank = max(last_rank, rank[sym])

    def block_end(max_rank):
        end = 0
        tail_beyond = False
        for q, sym in zip(qs, symbols):
            r = rank.get(sym)
            if r is None:
                continue
            if r <= max_rank:
                end = q
            elif q > end:
                tail_beyond = True
        if not tail_beyond and end == qs[-1]:
            return math.inf
        return end

    is_threshold = not violations
    if is_threshold:
        q1 = block_end(0)
        q2 = block_end(1)
        q3 = block_end(2) if high else None
    else:
        q1 = q2 = math.nan
        q3 = math.nan if high else None
    return ThresholdRow(
        cog_index=cog_index,
        q1=q1,
        q2=q2,
        q3=q3,
        is_threshold=is_threshold,
        violations=violations,
    )


def reference_value_gap(model, values, rho, ceiling, buffer_fraction):
    """The level x q0 x q1 loop ``check_value_gap_bounds`` used before its
    array pass, with its own pass rule on the worst margins."""
    params = model.params
    gamma = params.discount
    t_max = ceiling.value
    lower_rate = params.holding_cost * params.skip_time / (1.0 - gamma**t_max)
    upper_rate = params.holding_cost * t_max / (1.0 - rho)
    qs = list(checked_queue_range(model.n_q, buffer_fraction))
    worst_lower = np.inf
    worst_upper = np.inf
    failures = []
    n_pairs = 0
    for cog in range(model.n_cog):
        col = values[:, cog]
        for i, q0 in enumerate(qs):
            for q1 in qs[i + 1 :]:
                dq = q1 - q0
                gap = col[q0] - col[q1]
                lower_margin = gap - lower_rate * dq
                upper_margin = upper_rate * dq - gap
                worst_lower = min(worst_lower, lower_margin)
                worst_upper = min(worst_upper, upper_margin)
                n_pairs += 1
                if lower_margin < -VALUE_GAP_TOL or upper_margin < -VALUE_GAP_TOL:
                    failures.append(
                        {
                            "cog_index": cog,
                            "q_low": q0,
                            "q_high": q1,
                            "gap": float(gap),
                            "lower_margin": float(lower_margin),
                            "upper_margin": float(upper_margin),
                        }
                    )
    worst = (
        (float(worst_lower), float(worst_upper)) if n_pairs else (None, None)
    )
    passed = n_pairs == 0 or min(worst) >= -VALUE_GAP_TOL
    return worst, n_pairs, failures, passed


@st.composite
def policy_rows(draw):
    """A grid resting at index 1 or at ``n_intervals - 1``, a level on it,
    and a row over a q range that need not start at 1: either any mix of
    the level's queue actions and an inadmissible symbol, or the level's
    queue actions in threshold order with some of them left out."""
    n_intervals = draw(st.integers(2, 5))
    grid = CogGrid(n_intervals, star_index=draw(st.sampled_from([1, n_intervals - 1])))
    cog = draw(st.integers(0, grid.n_levels - 1))
    order = [a.value for a in queue_actions(cog, grid)[::-1]]
    if draw(st.booleans()):
        symbols = draw(st.lists(st.sampled_from([*order, "W"]), min_size=1, max_size=12))
    else:
        symbols = sorted(
            draw(st.lists(st.sampled_from(order), min_size=1, max_size=12)), key=order.index
        )
    start = draw(st.integers(1, 4))
    step = draw(st.integers(1, 2))
    q_range = range(start, start + step * len(symbols), step)
    row = np.full(q_range.stop, "X", dtype="<U1")
    row[list(q_range)] = symbols
    return row, cog, grid, q_range


# queue-axis decrements of a value table: one slope, jittered per cell, so
# some tables sit inside the sandwich and some leave it
gap_steps = st.builds(
    lambda slope, jitter: slope + np.array(jitter),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-0.03, 0.03), min_size=45, max_size=45),
)


def drawn(strategy, n=200):
    """``n`` examples of ``strategy``, to check what it reaches."""
    examples = []

    @settings(max_examples=n, deadline=None, database=None)
    @given(strategy)
    def collect(example):
        examples.append(example)

    collect()
    return examples


@pytest.fixture(scope="module")
def no_pair_model():
    return build_model(small_params(queue_capacity=2))


class TestScansMatchTheirReferences:
    @settings(max_examples=300, deadline=None)
    @given(case=policy_rows())
    def test_extract_thresholds(self, case):
        row, cog, grid, q_range = case
        got = extract_thresholds(row, cog, grid, q_range)
        want = reference_extract_thresholds(row, cog, grid, q_range)
        assert repr(got) == repr(want)

    def test_threshold_rows_are_drawn(self):
        # the strategy reaches threshold rows, censored switches and rows
        # that start beyond a block, not only violations
        rows = [extract_thresholds(*case) for case in drawn(policy_rows())]
        kept = [r for r in rows if r.is_threshold]
        assert kept and len(kept) < len(rows)
        assert any(r.q1 == 0 for r in kept)
        assert any(r.q2 == math.inf for r in kept)
        assert any(0 < r.q1 < math.inf for r in kept)

    @settings(max_examples=150, deadline=None)
    @given(
        which=st.sampled_from(["model", "no_pair_model"]),
        buffer_fraction=st.sampled_from([0.0, 0.1, 0.2, 0.45]),
        rho=st.floats(0.05, 0.95),
        steps=gap_steps,
        empty=st.one_of(st.none(), st.sampled_from([0.0, 0.01, 0.0100001]), st.floats(0, 0.05)),
    )
    def test_value_gap_bounds(
        self, model, no_pair_model, which, buffer_fraction, rho, steps, empty
    ):
        case = model if which == "model" else no_pair_model
        if case is no_pair_model:
            # capacity 2 checks q = 1 alone for any positive buffer
            buffer_fraction = max(buffer_fraction, 0.1)
        ceiling = slowest_service(case)
        shape = (case.n_q, case.n_cog)
        values = -np.cumsum(np.resize(steps, shape), axis=0)
        report = check_value_gap_bounds(
            case, values, rho, ceiling, buffer_fraction, empty_queue_fraction=empty
        )
        worst, n_pairs, failures, passed = reference_value_gap(
            case, values, rho, ceiling, buffer_fraction
        )
        assert (report.worst_lower_margin, report.worst_upper_margin) == worst
        assert report.n_pairs == n_pairs
        assert report.failures == failures
        assert report.passed() == (not report.failures) == passed
        if case is no_pair_model:
            assert n_pairs == 0 and report.passed()
        graded = StructureReport(
            light_tail=None,
            margins=None,
            thresholds=None,
            value_gap=report,
            value_shape_notes=[],
            empty_queue_fraction=empty,
        )
        if empty is None:
            assert graded.busy_assumption_ok is None
        else:
            assert graded.busy_assumption_ok is (not report.assumption_violated)
            assert graded.busy_assumption_ok is (empty <= BUSY_EMPTY_FRACTION)

    def test_value_tables_are_drawn(self, model, ceiling):
        # the value tables reach both verdicts
        verdicts = {
            check_value_gap_bounds(
                model, -np.cumsum(np.resize(steps, (model.n_q, model.n_cog)), axis=0),
                0.5, ceiling,
            ).passed()
            for steps in drawn(gap_steps, 100)
        }
        assert verdicts == {True, False}
