"""The benchmark's exact counts repeat from run to run and agree with the
calls the tracer observes.

Run from the repository root: ``python3 -m pytest bench/test_counts.py``.
"""

import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from counts import epoch_steps, model_counts  # noqa: E402
from tracer import LAYER_SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, mc_start  # noqa: E402

from fidelityq import solver  # noqa: E402
from fidelityq.config import resolve_config  # noqa: E402
from fidelityq.simulate import monte_carlo_value  # noqa: E402

# queue-arrival rows built by one model assembly and value-iteration sweeps
EXPECTED = {
    "long-sojourn": (41_600, 14),
    "heavy-traffic": (15_996, 141),
    "wide-state": (47_336, 255),
}


def _counted_run(workload, seed):
    cfg = resolve_config(workload.config)
    tracer = Tracer()
    with tracer.instrument(LAYER_SPANS):
        model = cfg.build_model()
        result = solver.value_iteration(model, epsilon=float(cfg.solver["epsilon"]))
    estimate = monte_carlo_value(model, result.policy, mc_start(cfg, model),
                                 workload.episodes, seed)
    counts = model_counts(model)
    counts["solver.sweeps"] = result.sweeps
    counts["simulate.horizon_epochs"] = estimate.horizon_epochs
    counts["simulate.epoch_steps"] = epoch_steps(model, estimate)
    observed = {
        "model.arrival_row_calls": len(tracer.durations("model.arrival_row")),
        "solver.sweeps": len(tracer.durations("solver.backup")),
    }
    return counts, observed, tracer.absent


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly(name):
    first, observed, absent = _counted_run(WORKLOADS[name], seed=5)
    second, _, _ = _counted_run(WORKLOADS[name], seed=5)
    assert first == second
    assert absent == []
    assert observed == {k: first[k] for k in observed}
    assert (first["model.arrival_row_calls"], first["solver.sweeps"]) == EXPECTED[name]
