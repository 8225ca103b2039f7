"""Exact work counts, computed from public model data and array sizes.

These repeat exactly from run to run, so they pin down how much work each
layer was asked to do independently of timing noise. Byte counts are
computed from array sizes, not measured.
"""

from fidelityq.actions import ACTIONS, Action
from fidelityq.errors import InadmissibleRestError
from fidelityq.simulate import DEFAULT_PILOT_EPISODES, plan_horizon, reward_ceiling


def sojourn_laws(model):
    """Every (cog, action) -> SojournPMF the model defines."""
    laws = {}
    for cog in range(model.n_cog):
        for a in ACTIONS:
            try:
                laws[(cog, a)] = model.sojourn(cog, a)
            except InadmissibleRestError:
                continue
    return laws


def model_counts(model):
    """Counts of the assembly layers for one built model."""
    laws = sojourn_laws(model)
    taus = {
        int(t) for pmf in laws.values() for t, p in zip(pmf.times, pmf.probs) if p > 0
    }
    # one step-power ladder P^0..P^t_max per action whose cognitive move
    # depends on the sojourn length
    power_matrices = sum(
        max(int(pmf.times[-1]) for (_, a2), pmf in laws.items() if a2 is a) + 1
        for a in (Action.WAIT, Action.NORMAL, Action.HIGH)
    )
    operator_bytes = sum(op.nbytes for op in model.operators.values())
    # one sweep multiplies every operator by the flattened value table
    backup_bytes = sum(op.nbytes + op.shape[1] * 8 for op in model.operators.values())
    return {
        "sojourn.support_points": sum(len(pmf.times) for pmf in laws.values()),
        "cogchain.power_matrices": power_matrices,
        "model.distinct_taus": len(taus),
        # the arrival table holds one row per (sojourn length, start length)
        "model.arrival_row_calls": len(taus) * model.n_q,
        "model.operator_bytes": operator_bytes,
        "solver.backup_bytes": backup_bytes,
    }


def epoch_steps(model, estimate):
    """Episode-epochs simulated by one estimate: the pilot batch that sizes
    the horizon plus the main batch."""
    pilot_horizon = plan_horizon(model, 0.01 * max(reward_ceiling(model), 1e-12))
    return DEFAULT_PILOT_EPISODES * pilot_horizon + estimate.episodes * estimate.horizon_epochs
