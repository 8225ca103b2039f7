"""The benchmark's workloads and why each was chosen."""

import os
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # a built-in config name or a YAML path
    episodes: int  # Monte-Carlo episodes for the in-process mc_s operation
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-sojourn",
            config="large_gap",
            episodes=2000,
            why="39 states with sojourn supports up to 3,200 steps: model "
            "assembly is nearly all the work; solver and Monte Carlo do "
            "almost none",
        ),
        Workload(
            name="heavy-traffic",
            config="high_lambda",
            episodes=20000,
            why="the queue almost never empties: Monte Carlo from (20, 6) "
            "does the most simulation work and the structure checks run "
            "in their busy regime",
        ),
        Workload(
            name="wide-state",
            config=os.path.join(BENCH_DIR, "wide_state.yaml"),
            episodes=10000,
            why="976 states and 38 MB of dense operators: the only point "
            "where solver sweeps and O(n^2) operator memory matter",
        ),
    )
}


def mc_start(cfg, model):
    """The start state the CLI simulates from: the first configured start,
    else the middle of the queue at the resting level."""
    starts = cfg.simulation["starts"]
    if starts:
        return (int(starts[0][0]), int(starts[0][1]))
    return (model.n_q // 2, model.grid.star_index)
