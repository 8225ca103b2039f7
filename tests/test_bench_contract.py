"""The package names the benchmark in ``bench/`` reads.

``bench/run.py`` builds, solves and grades each workload through
``bench/gate.py`` and, in a traced run, sizes the model through
``bench/counts.py``. Both are imported here unchanged, so renaming or
deleting a name they read (``model.operators``, ``solver.policy_evaluation``,
the structure checks) fails this suite, not only a traced benchmark run.
"""

import os
import sys
import warnings

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import counts  # noqa: E402
import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from fidelityq import solver  # noqa: E402
from fidelityq.config import resolve_config  # noqa: E402


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
    assert got["model.operator_bytes"] == model.kernel.nbytes
    assert got["solver.backup_bytes"] == got["model.operator_bytes"] + 5 * model.n_states * 8
