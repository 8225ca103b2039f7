"""Every layer takes a level's actions, and their order, from the one rule
in ``model.admissible``: the sojourn laws, the light-tail table, the
epoch law, the pair kernel, the dominance margins and the threshold rows
all agree with it on the shipped configurations and on grids whose
resting level sits just above the bottom and at the top."""

import warnings

import pytest

from fidelityq.actions import ACTIONS, TIE_ORDER, Action
from fidelityq.cogchain import CogGrid
from fidelityq.config import builtin_config
from fidelityq.errors import InadmissibleRestError
from fidelityq.model import admissible, build_model
from fidelityq.solver import validate_policy, value_iteration
from fidelityq.structure import (
    compute_rho,
    dominance_margins,
    light_tail_laws,
    threshold_report,
)
from small_model import small_params

SHIPPED = ("tiny", "default", "high_lambda", "skip_cheap", "large_gap")
GRIDS = {
    "rest-above-level-1": CogGrid(n_intervals=4, star_index=1),
    "rest-at-top-only": CogGrid(n_intervals=5, star_index=4),
}


@pytest.fixture(scope="module", params=SHIPPED + tuple(GRIDS))
def model(request):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if request.param in GRIDS:
            return build_model(small_params(queue_capacity=7, grid=GRIDS[request.param]))
        return builtin_config(request.param).build_model()


def rule(model):
    """(cog, action) for every action some state of the level admits."""
    return {
        (cog, a)
        for q in range(model.n_q)
        for cog in range(model.n_cog)
        for a in admissible(q, cog, model.grid)
    }


def test_grids_put_the_resting_level_where_named():
    assert GRIDS["rest-above-level-1"].star_index == 1
    top = GRIDS["rest-at-top-only"]
    assert top.star_index == top.n_intervals - 1


def test_sojourn_laws_exist_exactly_off_the_rule(model):
    allowed = rule(model)
    for cog in range(model.n_cog):
        for a in ACTIONS:
            if (cog, a) in allowed:
                assert model.sojourn(cog, a).mean > 0
            else:
                with pytest.raises(InadmissibleRestError):
                    model.sojourn(cog, a)


def test_light_tail_laws_cover_the_rule(model):
    pairs = [(e["cog_index"], Action(e["action"])) for _, e in light_tail_laws(model)]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == rule(model)
    # the contraction table lists each level's queue actions in tie order
    entries = [(e["cog_index"], e["action"]) for e in compute_rho(model).entries]
    assert entries == [
        (cog, str(a)) for cog in range(model.n_cog) for a in admissible(1, cog, model.grid)
    ]


def test_epoch_law_has_a_segment_exactly_off_the_rule(model):
    """Segment j of the epoch law is law j of ``_sojourns``: its sojourns
    are that law's support, and the laws are exactly the rule's pairs."""
    law = model.epoch_law
    assert len(law.cdf.start) == len(model._sojourns)
    assert set(model._sojourns) == rule(model)
    for j, (cog, a) in enumerate(model._sojourns):
        rows = law.arrival_row[law.cdf.start[j] : law.cdf.end[j] + 1]
        assert set(model._taus[rows]) == set(model.sojourn(cog, a).support[0])


def test_kernel_pairs_are_each_states_admissible_actions(model):
    for s, admits in enumerate(model.admits):
        q, cog = divmod(s, model.n_cog)
        got = tuple(a for a, admitted in zip(TIE_ORDER, admits) if admitted)
        assert got == admissible(q, cog, model.grid)


def test_margins_and_thresholds_see_rest_exactly_off_the_rule(model):
    margins = dominance_margins(model)
    solution = value_iteration(model)
    validate_policy(model, solution.policy)
    thresholds = threshold_report(model, solution.policy)
    for cog in range(model.n_cog):
        rests = Action.REST in admissible(1, cog, model.grid)
        assert margins.per_cog[cog]["rest_admissible"] is rests
        assert (margins.per_cog[cog]["normal_to_rest_margin"] is None) is not rests
        assert (thresholds.rows[cog].q3 is None) is not rests
