"""The small model the unit tests build: five levels resting at index 2,
capacity 8, normal and high service of base mean 4.2 and 6.0. A test
module passes what it changes as keyword overrides of ``ModelParams``."""

from fidelityq.actions import Action
from fidelityq.cogchain import ChainRates, CogGrid
from fidelityq.config import step_probs
from fidelityq.model import ModelParams
from fidelityq.sojourn import ServiceFamily


def small_params(**overrides):
    base = dict(
        queue_capacity=8,
        grid=CogGrid(n_intervals=4, star_index=2),
        rates=ChainRates(probs=step_probs(0.8)),
        service=ServiceFamily(
            base_mean={Action.NORMAL: 4.2, Action.HIGH: 6.0},
            curvature={Action.NORMAL: 5.0, Action.HIGH: 7.0},
            dispersion=12.0,
            support=30,
        ),
        skip_time=2,
        arrival_rate=0.4,
        holding_cost=0.05,
        reward_normal=1.0,
        reward_high=2.0,
        discount=0.9,
        rest_cap_factor=50,
    )
    base.update(overrides)
    return ModelParams(**base)
