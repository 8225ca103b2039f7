"""The package names the benchmark in ``bench/`` reads.

``bench/run.py`` builds, solves and grades each workload through
``bench/gate.py`` and, in a traced run, sizes the model through
``bench/counts.py``. Both are imported here unchanged, so renaming or
deleting a name they read (``model.operators``, ``solver.policy_evaluation``,
the structure checks, the Monte-Carlo estimate and its epoch count) fails
this suite, not only a traced benchmark run. ``bench/tracer.py`` skips a
``LAYER_SPANS`` name that is gone, so its span would silently read 0; the
names are checked here too.
"""

import os
import sys
import warnings

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import counts  # noqa: E402
import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, mc_start  # noqa: E402

from fidelityq import simulate, solver  # noqa: E402
from fidelityq.config import builtin_config, resolve_config  # noqa: E402

# the LAYER_SPANS names that already no longer resolve: the per-start arrival
# row, and the five grading calls that moved behind ``structure.grade``
STALE_SPANS = {
    "fidelityq.model.queue_arrival_row",
    "fidelityq.cli.compute_rho",
    "fidelityq.cli.dominance_margins",
    "fidelityq.cli.check_value_gap_bounds",
    "fidelityq.cli.check_value_shape",
    "fidelityq.cli.verify_threshold_structure",
}


@pytest.fixture(scope="module", params=["long-sojourn", "heavy-traffic"])
def solved(request):
    """(workload name, config, model, result), built and solved as
    ``bench/run.py`` does."""
    cfg = resolve_config(WORKLOADS[request.param].config)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = cfg.build_model()
    result = solver.value_iteration(
        model,
        epsilon=float(cfg.solver["epsilon"]),
        max_sweeps=int(cfg.solver["max_sweeps"]),
    )
    return request.param, cfg, model, result


def test_gate_accepts_the_solution(solved):
    name, cfg, model, result = solved
    assert gate.check_solution(model, cfg, result, gate.load_reference(name)) == []


def test_counts_size_the_pair_kernel(solved):
    _, _, model, _ = solved
    got = counts.model_counts(model)
    # one row of n_states floats per admitted (state, action) cell
    assert got["model.operator_bytes"] == int(model.admits.sum()) * model.n_states * 8
    assert got["solver.backup_bytes"] == got["model.operator_bytes"] + 5 * model.n_states * 8


# positive-probability (level, action, tau) points of each workload's laws
SUPPORT_POINTS = {"long-sojourn": 25_647, "heavy-traffic": 3_768}


def test_support_points_count_the_positive_points(solved):
    """A law keeps no zero-probability point, so the traced count of its
    points is the count of its positive ones."""
    name, _, model, _ = solved
    laws = counts.sojourn_laws(model).values()
    positive = sum(int(np.count_nonzero(pmf.probs > 0)) for pmf in laws)
    assert counts.model_counts(model)["sojourn.support_points"] == positive
    assert positive == SUPPORT_POINTS[name]


def test_monte_carlo_estimate_passes_the_gate(solved, monkeypatch):
    _, cfg, model, result = solved
    simulated = []
    run_batch = simulate.PolicySampler.run_batch

    def counted(self, start, episodes, horizon_epochs, rng):
        simulated.append(episodes * horizon_epochs)
        return run_batch(self, start, episodes, horizon_epochs, rng)

    monkeypatch.setattr(simulate.PolicySampler, "run_batch", counted)
    start = mc_start(cfg, model)
    estimate = simulate.monte_carlo_value(model, result.policy, start, 200, 1)
    solve_bound = gate.error_bound(model, result)
    assert gate.check_estimate(estimate, float(result.values[start]), solve_bound) == []
    pilot_horizon = simulate.plan_horizon(
        model, 0.01 * max(simulate.reward_ceiling(model), 1e-12)
    )
    steps = counts.epoch_steps(model, estimate)
    assert steps == (
        simulate.DEFAULT_PILOT_EPISODES * pilot_horizon + 200 * estimate.horizon_epochs
    )
    # the pilot batch and the main batch, as simulated
    assert steps == sum(simulated)


def test_layer_spans_resolve():
    """Every traced name but the stale ones wraps a live function."""
    spans = tracer.Tracer()
    with spans.instrument(tracer.LAYER_SPANS):
        pass
    assert set(spans.absent) <= STALE_SPANS


def test_traced_build_records_the_assembly_layers():
    """A build calls the sojourn laws and the step powers through the names
    the tracer wraps, so their spans nest under ``model.build``."""
    spans = tracer.Tracer()
    with spans.instrument(tracer.LAYER_SPANS):
        builtin_config("tiny").build_model()
    builds = {i for i, span in enumerate(spans.spans) if span[0] == "model.build"}
    assert builds
    for name in ("sojourn.pmf", "cogchain.step_powers"):
        parents = [span[1] for span in spans.spans if span[0] == name]
        assert parents and set(parents) <= builds, name
