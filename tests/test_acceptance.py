"""Acceptance criteria for the packaged model, solver, and tooling.

Each test is one criterion, checked at its stated tolerance on the
shipped configurations, and prints a single PASS line when it holds; a
failure reads out which quantity missed. The tests intentionally go
through public entry points (built-in configs, solver, simulator, CLI)
rather than internals.
"""

import math
import time
import warnings

import numpy as np
import pytest

from fidelityq import cli
from fidelityq.actions import ACTIONS, Action
from fidelityq.config import available_configs, builtin_config, override
from fidelityq.simulate import PolicySampler
from fidelityq.solver import bellman_backup, value_iteration
from fidelityq.structure import compute_rho, enforce_guarantee, grade
from oracle import finite_horizon_table

SHIPPED = ["default", "tiny", "high_lambda", "large_gap", "skip_cheap"]


def _build(name):
    cfg = builtin_config(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = cfg.build_model()
    return cfg, model


@pytest.fixture(scope="module")
def default_solved():
    cfg, model = _build("default")
    return cfg, model, value_iteration(model)


@pytest.fixture(scope="module")
def high_lambda_solved():
    cfg, model = _build("high_lambda")
    return cfg, model, value_iteration(model)


@pytest.fixture(scope="module")
def large_gap_solved():
    cfg, model = _build("large_gap")
    return cfg, model, value_iteration(model)


def test_01_fixed_point_matches_exhaustive_enumeration():
    """Tiny instance: value iteration equals a deep finite-horizon
    backward induction within 1e-6, in under a second."""
    t0 = time.monotonic()
    cfg, model = _build("tiny")
    solution = value_iteration(model, epsilon=float(cfg.solver["epsilon"]))
    beta = model.max_discount_transform
    n_stages = 160
    oracle = finite_horizon_table(model, n_stages, 0.0)
    elapsed = time.monotonic() - t0
    drift = float(np.max(np.abs(solution.values - oracle)))
    tail = beta**n_stages * float(np.max(np.abs(solution.values)))
    assert drift <= 1e-6 + tail, f"fixed point off the oracle by {drift:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS tiny oracle equivalence: drift {drift:.2e} in {elapsed:.2f}s")


def test_02_default_solve_is_a_bellman_fixed_point(default_solved):
    """Default instance solves inside 60s and the solution moves by at
    most 1e-9 under one more independent backup."""
    t0 = time.monotonic()
    cfg, model = _build("default")
    solution = value_iteration(
        model,
        epsilon=float(cfg.solver["epsilon"]),
        max_sweeps=int(cfg.solver["max_sweeps"]),
    )
    elapsed = time.monotonic() - t0
    assert solution.converged
    backed_up, _ = bellman_backup(model, solution.values)
    residual = float(np.max(np.abs(backed_up - solution.values)))
    assert residual <= 1e-9, f"one-step residual {residual:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS default fixed point: residual {residual:.2e} in {elapsed:.1f}s")


def test_03_reward_affine_in_queue_and_peaked_at_rest(default_solved):
    """Expected epoch reward is affine in the queue length (1e-12) with
    slope -c*E[tau], and service rewards peak at the resting level."""
    _, model, _ = default_solved
    c = model.params.holding_cost
    star = model.grid.star_index
    worst = 0.0
    for a in ACTIONS:
        table = model.reward_table(a)
        for cog in range(model.n_cog):
            if a is Action.REST and cog <= star:
                continue
            col = table[:, cog]
            diffs = np.diff(col)
            slope = -c * model.sojourn(cog, a).mean
            worst = max(worst, float(np.max(np.abs(diffs - slope))))
    assert worst <= 1e-12, f"affine slope deviation {worst:.3e}"
    for a in (Action.NORMAL, Action.HIGH):
        for q in range(model.n_q):
            row = model.reward_table(a)[q, :]
            assert np.argmax(row) == star
            assert (np.diff(row[: star + 1]) > 0).all()
            assert (np.diff(row[star:]) < 0).all()
    print(f"PASS reward shape: affine within {worst:.2e}, peaked at rest level")


def test_04_value_gap_sandwich_in_heavy_traffic(high_lambda_solved):
    """Heavy-traffic instance: the queue stays busy (empty fraction
    below 1%) and every pairwise value gap obeys the two-sided rate
    bounds at 1e-9."""
    cfg, model, solution = high_lambda_solved
    sampler = PolicySampler(model, solution.policy)
    start = tuple(cfg.simulation["starts"][0])
    est = sampler.estimate(
        start,
        episodes=int(cfg.simulation["episodes"]),
        seed=int(cfg.simulation["seed"]),
    )
    assert est.empty_queue_fraction <= 0.01, (
        f"queue empty {est.empty_queue_fraction:.2%} of epochs"
    )
    gap = grade(
        model, solution, empty_queue_fraction=est.empty_queue_fraction
    ).value_gap
    assert not gap.assumption_violated
    assert gap.passed(), (
        f"worst margins {gap.worst_lower_margin:.3e} / "
        f"{gap.worst_upper_margin:.3e} over {gap.n_pairs} pairs"
    )
    print(
        f"PASS value-gap sandwich: {gap.n_pairs} pairs, busy "
        f"{1 - est.empty_queue_fraction:.2%}, "
        f"margins {gap.worst_lower_margin:.2e}/{gap.worst_upper_margin:.2e}"
    )


def test_05_light_tail_bound_reported_not_enforced():
    """Every shipped configuration gets a full discount-transform report
    with rho < 1; bound violations are recorded, never fatal, and at
    least one configuration satisfies the bound everywhere."""
    clean = []
    for name in SHIPPED:
        _, model = _build(name)
        report = compute_rho(model)
        assert 0 < report.rho < 1, f"{name}: rho {report.rho}"
        flagged = [e for e in report.entries if not e["light_tail_ok"]]
        assert len(flagged) == len(report.violations)
        if report.light_tail_ok:
            clean.append(name)
    assert clean, "no shipped configuration satisfies the bound everywhere"
    print(f"PASS light-tail reporting: satisfied everywhere by {clean}")


def test_06_threshold_guarantee_certified_end_to_end(tmp_path, large_gap_solved):
    """Slow-service instance: the switch margin is nonnegative at every
    cognitive level, the solved policy is threshold-shaped, and the CLI
    check run exits 0 (a violated guarantee would exit 2)."""
    cfg, model, solution = large_gap_solved
    graded = grade(model, solution)
    margins = graded.margins
    assert margins.all_guaranteed, "expected every level to carry the guarantee"
    enforce_guarantee(graded.thresholds, margins)
    assert all(row.is_threshold for row in graded.thresholds.rows)
    code = cli.main(
        ["check", "--config", "large_gap", "--out", str(tmp_path / "out"),
         "--episodes", "500"]
    )
    assert code == 0, f"check exited {code}"
    print(
        "PASS threshold guarantee: margins "
        + ", ".join(
            f"{margins.combined_margin(c):+.1f}" for c in range(model.n_cog)
        )
        + "; CLI check exit 0"
    )


def test_07_skip_reappears_only_outside_the_guarantee():
    """Cheap-skip sweep: some arrival rate yields a non-threshold row
    (the skip band interrupts the fidelity progression), and every such
    row has a strictly negative switch margin."""
    cfg = builtin_config("skip_cheap")
    rates = [float(x) for x in cfg.sweep["arrival_rates"]]
    assert rates == [0.5, 1.0, 4.0]
    broken = []
    for rate in rates:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = override(cfg, {"queue.arrival_rate": rate}).build_model()
        solution = value_iteration(model)
        assert solution.converged
        graded = grade(model, solution)
        for row in graded.thresholds.rows:
            cog = row.cog_index
            if not row.is_threshold:
                margin = graded.margins.combined_margin(cog)
                assert margin < 0, (
                    f"non-threshold row at rate {rate}, cog {cog} despite "
                    f"margin {margin:+.3f}"
                )
                assert row.violations
                broken.append((rate, cog, row.violations[0]))
    assert broken, "sweep produced no non-threshold row"
    rate, cog, violation = broken[0]
    print(
        f"PASS non-threshold appearance: rate {rate}, cog {cog} "
        f"({violation}); margin negative in all {len(broken)} cases"
    )


def test_08_value_surface_shape_in_heavy_traffic(high_lambda_solved):
    """Heavy-traffic instance: the value surface decreases strictly in
    queue length and is unimodal over the cognitive axis with its peak at
    the resting level."""
    _, model, solution = high_lambda_solved
    notes = grade(model, solution).value_shape_notes
    assert notes == [], f"shape deviations: {notes}"
    print("PASS value shape: monotone in queue, peaked at the rest level")


def test_09_monte_carlo_agrees_with_the_fixed_point(default_solved):
    """Default instance: five starts, ten thousand episodes each; every
    estimate lands within 3 standard errors of the solved value with the
    truncation-bias bound under a tenth of the standard error, in under
    120 seconds."""
    _, model, solution = default_solved
    sampler = PolicySampler(model, solution.policy)
    starts = [(5, 6), (15, 2), (25, 9), (1, 0), (30, 10)]
    t0 = time.monotonic()
    zs = []
    for start in starts:
        est = sampler.estimate(start, episodes=10_000, seed=7)
        target = float(solution.values[start])
        z = (est.mean - target) / est.std_error
        zs.append(z)
        assert abs(est.mean - target) <= 3 * est.std_error, (
            f"start {start}: estimate {est.mean:.4f} vs {target:.4f} "
            f"(z = {z:+.2f})"
        )
        assert est.truncation_bias_bound < 0.1 * est.std_error, (
            f"start {start}: bias bound {est.truncation_bias_bound:.2e} vs "
            f"se {est.std_error:.2e}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(
        "PASS Monte Carlo agreement: z scores "
        + ", ".join(f"{z:+.2f}" for z in zs)
        + f" in {elapsed:.1f}s"
    )


def test_10_output_files_are_byte_deterministic(tmp_path):
    """Identical invocations write identical bytes: solved tables,
    moment tables, and simulated trajectories."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli.main(["solve", "--config", "default", "--out", str(d)]) == 0
        assert cli.main(
            ["export-moments", "--config", "tiny", "--out", str(d)]
        ) == 0
        assert cli.main(
            ["simulate", "--config", "tiny", "--out", str(d),
             "--episodes", "300", "--trajectories", "2"]
        ) == 0
    compared = []
    for name in [
        "value.csv",
        "policy.csv",
        "moments.csv",
        "trajectories.csv",
        "mc_value.json",
        "convergence.json",
    ]:
        a = (dirs[0] / name).read_bytes()
        b = (dirs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(name)
    print(f"PASS determinism: {len(compared)} files byte-identical")
