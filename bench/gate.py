"""Correctness gate: every timed operation is checked before it counts.

Each check returns a list of failure messages; an empty list means the
operation's output is correct. Solver, structure and simulator functions
are looked up on their modules at call time so that a traced run sees
these calls too.

Run ``PYTHONPATH=src python3 bench/gate.py`` from the repository root to
print fresh reference values in the format of ``reference.json``.
"""

import json
import os

import numpy as np

from fidelityq import solver, structure
from fidelityq.errors import GuaranteeViolationError

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# z threshold for the Monte-Carlo check. The benchmark seed changes from
# run to run, so a false alarm costs a rejected run: at k = 5 a normal
# estimate misses with probability below 6e-7, while k = 3 already fires
# on the tiny config with seed 1 (z = -3.83) although its mean z over 12
# seeds is 0.15.
MC_Z_LIMIT = 5.0


def error_bound(model, result):
    """A-posteriori value-iteration bound ||V - V*|| <= beta r / (1 - beta),
    with beta the model's contraction modulus and r the last residual. The
    greedy policy's exact value obeys the same bound."""
    beta = model.max_discount_transform
    return beta * result.residual / (1.0 - beta)


def _rounding_slack(model, values):
    # float64 rounding in the dense linear solve, amplified by at most the
    # condition number (1 + beta) / (1 - beta) of I - T_pi
    beta = model.max_discount_transform
    scale = float(np.max(np.abs(values))) + 1.0
    return 64 * np.finfo(np.float64).eps * scale * (1.0 + beta) / (1.0 - beta)


def reference_states(model, start):
    corners = [
        (0, 0),
        (model.n_q // 2, model.grid.star_index),
        tuple(start),
        (model.n_q - 1, model.n_cog - 1),
    ]
    return sorted(set(corners))


def check_solution(model, cfg, result, reference):
    """Convergence, exact policy evaluation, recorded reference values and
    the threshold guarantee."""
    if not result.converged:
        return [f"value iteration did not converge in {result.sweeps} sweeps"]
    failures = []
    bound = error_bound(model, result)
    slack = _rounding_slack(model, result.values)
    exact = solver.policy_evaluation(model, result.policy)
    gap = float(np.max(np.abs(exact - result.values)))
    if gap > bound + slack:
        failures.append(
            f"greedy policy value differs from V* by {gap:.3e} > bound {bound:.3e}"
        )
    for q, cog, ref in reference["values"]:
        tol = bound + reference["error_bound"] + slack
        miss = abs(float(result.values[q, cog]) - ref)
        if miss > tol:
            failures.append(
                f"V*({q},{cog}) = {result.values[q, cog]!r} misses reference "
                f"{ref!r} by {miss:.3e} > {tol:.3e}"
            )
    margins = structure.dominance_margins(model, structure.compute_rho(model))
    try:
        structure.verify_threshold_structure(
            model,
            result.policy,
            margins=margins,
            buffer_fraction=float(cfg.analysis["buffer_fraction"]),
        )
    except GuaranteeViolationError as exc:
        failures.append(f"threshold guarantee violated: {exc}")
    return failures


def check_estimate(estimate, v_start, solve_bound):
    """The Monte-Carlo mean must hit the solved value within k standard
    errors plus the truncation-bias and solver error bounds."""
    tol = MC_Z_LIMIT * estimate.std_error + estimate.truncation_bias_bound + solve_bound
    miss = abs(estimate.mean - v_start)
    if not np.isfinite(estimate.mean) or miss > tol:
        return [
            f"Monte-Carlo mean {estimate.mean!r} misses V* {v_start!r} by "
            f"{miss:.3e} > {tol:.3e} (se {estimate.std_error:.3e})"
        ]
    return []


def check_cli_outputs(returncode, out_dir, cfg, seed):
    """``fidelityq check`` must exit 0 and write its two reports for this
    config and seed."""
    if returncode != 0:
        return [f"fidelityq check exited with code {returncode}"]
    failures = []
    for name in ("thresholds.csv", "structure.json"):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            failures.append(f"fidelityq check wrote no {name}")
    if failures:
        return failures
    with open(os.path.join(out_dir, "structure.json")) as fh:
        report = json.load(fh)
    if report.get("config") != cfg.digest or report.get("seed") != seed:
        failures.append("structure.json names another config or seed")
    return failures


def load_reference(workload_name):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload_name]


def _record():
    from fidelityq.config import resolve_config
    from workloads import WORKLOADS, mc_start

    out = {}
    for w in WORKLOADS.values():
        cfg = resolve_config(w.config)
        model = cfg.build_model()
        result = solver.value_iteration(model, epsilon=float(cfg.solver["epsilon"]))
        states = reference_states(model, mc_start(cfg, model))
        out[w.name] = {
            "error_bound": error_bound(model, result),
            "values": [[q, c, float(result.values[q, c])] for q, c in states],
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    _record()
