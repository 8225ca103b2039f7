"""Numerical verification of solution structure.

Checks the solved model against its provable properties: a Gamma-matched
light-tail bound on the sojourn discount transform, the contraction factor
built from it, a two-sided sandwich on value differences along the queue
axis, per-level dominance margins for the action switch points, and
threshold extraction from the optimal policy with reappearance detection.

``grade`` is the one grading pass: it runs each check once over a solved
model and returns a ``StructureReport`` that callers only read.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ACTIONS, TIE_ORDER, Action
from .config import DEFAULTS
from .errors import ConfigError, GuaranteeViolationError
from .model import queue_actions

A3_TOL = 1e-12
# a value-gap pair fails when either margin falls below -VALUE_GAP_TOL
VALUE_GAP_TOL = 1e-9
DEFAULT_BUFFER_FRACTION = DEFAULTS["analysis"]["buffer_fraction"]
# the structural results assume the queue (almost) never empties: a run
# counts as busy while at most this fraction of its epochs start empty
BUSY_EMPTY_FRACTION = 0.01


def gamma_mgf_bound(mean, variance, discount):
    """Upper bound on E[discount^tau] from matching a Gamma moment
    generating function: (1 - Var ln(g)/E)^(-E^2/Var), continuous at
    Var = 0 where it degenerates to g^E."""
    if mean <= 0:
        raise ValueError("mean sojourn time must be positive")
    if variance < 0:
        raise ValueError("variance cannot be negative")
    if not 0 < discount < 1:
        raise ValueError("discount must lie in (0,1)")
    if variance == 0.0:
        return discount**mean
    log_g = math.log(discount)
    x = -variance * log_g / mean
    if x < 1e-8:
        # series form: -(E^2/V) log1p(x) = E log_g (1 - x/2 + O(x^2));
        # avoids overflowing E^2/V when the variance is vanishingly small
        return math.exp(mean * log_g * (1.0 - 0.5 * x))
    # exp(-E^2/V * log1p(-V log_g / E)) in a cancellation-safe form
    return math.exp(-(mean**2 / variance) * math.log1p(x))


def checked_queue_range(n_q, buffer_fraction=DEFAULT_BUFFER_FRACTION):
    """Queue lengths the structural checks look at: q = 0 forces waiting
    and the top ``buffer_fraction`` of the range is excluded to keep the
    finite capacity from contaminating boundary states."""
    if not 0 <= buffer_fraction < 1:
        raise ValueError(f"buffer fraction must lie in [0, 1), got {buffer_fraction!r}")
    capacity = n_q - 1
    hi = capacity - math.ceil(capacity * buffer_fraction)
    if hi < 1:
        raise ValueError("queue too short for the requested boundary buffer")
    return range(1, hi + 1)


# -- light-tail / contraction ---------------------------------------------


@dataclass
class TransformBoundReport:
    """Per-(cog, action) comparison of the exact discount transform with
    its light-tail bound; ``rho`` is the max bound over queue actions."""

    rho: float
    entries: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def light_tail_ok(self):
        return not self.violations


def light_tail_laws(model, actions=ACTIONS):
    """Yield ``(pmf, entry)`` for every sojourn law, cognitive level first
    and ``actions`` in the given order. ``entry`` compares the exact
    discount transform with its Gamma-MGF bound; its ``light_tail_ok``
    holds while the transform stays within ``A3_TOL`` of the bound. A
    level has laws for WAIT and its ``queue_actions`` only."""
    gamma = model.params.discount
    for cog in range(model.n_cog):
        has = (Action.WAIT, *queue_actions(cog, model.grid))
        for a in [a for a in actions if a in has]:
            pmf = model.sojourn(cog, a)
            bound = gamma_mgf_bound(pmf.mean, pmf.variance, gamma)
            transform = float(model.moment("transform", a)[cog])
            yield pmf, {
                "cog_index": cog,
                "action": str(a),
                "mean": pmf.mean,
                "variance": pmf.variance,
                "bound": bound,
                "transform": transform,
                "light_tail_ok": bool(transform <= bound + A3_TOL),
            }


def compute_rho(model):
    """Tabulate the Gamma-MGF bound against the exact transform for every
    queue action and form the contraction factor rho = max bound.

    Waiting is excluded: the structural results concern the busy regime
    where the queue never empties. Entries whose exact transform exceeds
    the bound are collected as violations (reported, never raised).
    """
    queue = [a for a in TIE_ORDER if a is not Action.WAIT]
    entries = [entry for _, entry in light_tail_laws(model, queue)]
    rho = max(entry["bound"] for entry in entries)
    if rho >= 1.0:
        raise ConfigError(f"contraction factor {rho} is not below one")
    violations = [entry for entry in entries if not entry["light_tail_ok"]]
    return TransformBoundReport(rho=rho, entries=entries, violations=violations)


# -- slowest expected service ---------------------------------------------


@dataclass(frozen=True)
class SlowestService:
    """The sojourn-time ceiling used by the bounds: the high-fidelity mean
    at the top cognitive level, replaced by the true maximum (explained in
    ``note``) whenever some other state-action pair is slower."""

    value: float
    configured: float
    true_max: float
    substituted: bool
    note: str | None


def slowest_service(model):
    """Locate the largest mean sojourn over all states and actions; on
    ties the first in ``TIE_ORDER``, then the lowest level, wins."""
    configured = float(model.moment("mu1", Action.HIGH)[model.n_cog - 1])
    mu1 = np.stack([model.moment("mu1", a) for a in TIE_ORDER])
    a, cog = np.unravel_index(np.nanargmax(mu1), mu1.shape)
    true_max = float(mu1[a, cog])
    argmax = (int(cog), str(TIE_ORDER[a]))
    substituted = true_max > configured + 1e-12
    note = None
    if substituted:
        note = (
            f"slowest mean sojourn {true_max:.4f} occurs at "
            f"(cog={argmax[0]}, {argmax[1]}) rather than high fidelity at the "
            f"top level ({configured:.4f}); bounds use the true maximum"
        )
    return SlowestService(
        value=true_max if substituted else configured,
        configured=configured,
        true_max=true_max,
        substituted=substituted,
        note=note,
    )


# -- value-gap sandwich ----------------------------------------------------


@dataclass
class ValueGapReport:
    """Worst margins of the two-sided bound on V(q) - V(q + dq); both are
    None when no pair was checked."""

    lower_bound_rate: float
    upper_bound_rate: float
    worst_lower_margin: float | None
    worst_upper_margin: float | None
    n_pairs: int
    failures: list = field(default_factory=list)
    assumption_violated: bool = False
    notes: list = field(default_factory=list)

    def passed(self):
        return not self.failures


def check_value_gap_bounds(
    model,
    values,
    rho,
    ceiling,
    buffer_fraction=DEFAULT_BUFFER_FRACTION,
    empty_queue_fraction=None,
):
    """Check c*t_s*dq/(1-g^t_max) <= V(q) - V(q+dq) <= c*t_max*dq/(1-rho)
    for every ordered pair of checked queue lengths at each cognitive
    level, with t_max the ``SlowestService`` ``ceiling``.

    The bounds hold in the busy regime; when ``empty_queue_fraction`` is
    supplied and exceeds ``BUSY_EMPTY_FRACTION``, the report is annotated as
    assumption-violated instead of being graded pass/fail. Pairs with
    dq = 0 make both sides zero and are skipped.
    """
    params = model.params
    gamma = params.discount
    t_max = ceiling.value
    lower_rate = params.holding_cost * params.skip_time / (1.0 - gamma**t_max)
    upper_rate = params.holding_cost * t_max / (1.0 - rho)

    qs = np.array(checked_queue_range(model.n_q, buffer_fraction))
    low, high = np.triu_indices(len(qs), k=1)
    q_low, q_high = qs[low], qs[high]
    dq = q_high - q_low
    # one row per level, its pairs ordered by q_low, then q_high
    gap = (values[q_low] - values[q_high]).T
    lower = gap - lower_rate * dq
    upper = upper_rate * dq - gap
    n_pairs = gap.size
    cogs, pairs = np.nonzero(np.minimum(lower, upper) < -VALUE_GAP_TOL)
    report = ValueGapReport(
        lower_bound_rate=lower_rate,
        upper_bound_rate=upper_rate,
        worst_lower_margin=float(lower.min()) if n_pairs else None,
        worst_upper_margin=float(upper.min()) if n_pairs else None,
        n_pairs=n_pairs,
        failures=[
            {
                "cog_index": int(cog),
                "q_low": int(q_low[p]),
                "q_high": int(q_high[p]),
                "gap": float(gap[cog, p]),
                "lower_margin": float(lower[cog, p]),
                "upper_margin": float(upper[cog, p]),
            }
            for cog, p in zip(cogs, pairs)
        ],
        assumption_violated=(
            empty_queue_fraction is not None and empty_queue_fraction > BUSY_EMPTY_FRACTION
        ),
    )
    if ceiling.note:
        report.notes.append(ceiling.note)
    if report.assumption_violated:
        report.notes.append(
            f"queue was empty in more than {BUSY_EMPTY_FRACTION:.0%} of epoch starts "
            "(see empty_queue_fraction); the busy-regime bounds are not guaranteed here"
        )
    return report


# -- dominance margins -----------------------------------------------------


@dataclass
class DominanceReport:
    """Signed switch margins per cognitive level.

    ``per_cog[cog]`` carries the pairwise margins (slow-to-normal,
    normal-to-rest, to-skip) and the combined margin whose nonnegativity
    guarantees a threshold policy at that level; ``guaranteed`` is that
    verdict per level.
    """

    per_cog: list
    ceiling: SlowestService

    def combined_margin(self, cog):
        return self.per_cog[cog]["combined_margin"]

    @property
    def guaranteed(self):
        return [row["combined_margin"] >= 0.0 for row in self.per_cog]

    @property
    def all_guaranteed(self):
        return all(self.guaranteed)


def dominance_margins(model, bound_report=None):
    """Margins of the sufficient switch conditions at each cognitive level.

    With B = t_s * g^E[tau|cog,H] / (1 - g^t_max) and
    RHS(a) = t_max/(1-rho) * E[g^tau | cog, a]:

      high-to-normal: E[tau|cog,H] - E[tau|cog,N] + B - RHS(N)
      normal-to-rest: E[tau|cog,N] - E[tau|cog,R] + B - RHS(R)
      to-skip:        (next-slowest mean - t_s) + B - g^t_s * t_max/(1-rho)

    and the combined margin is the smallest admissible mean gap plus B
    minus t_max/(1-rho) times the largest exact transform over the
    admissible queue actions. The exact per-level transforms enter the
    right-hand sides; only rho comes from the light-tail bound.
    """
    if bound_report is None:
        bound_report = compute_rho(model)
    gamma = model.params.discount
    t_s = model.params.skip_time
    ceiling = slowest_service(model)
    t_max = ceiling.value
    pressure = t_max / (1.0 - bound_report.rho)

    mu1 = {a: model.moment("mu1", a) for a in Action}
    tr = {a: model.moment("transform", a) for a in Action}

    rows = []
    for cog in range(model.n_cog):
        chain = queue_actions(cog, model.grid)
        mean = {a: mu1[a][cog] for a in chain}
        exact = {a: tr[a][cog] for a in chain}
        bonus = t_s * gamma ** mean[Action.HIGH] / (1.0 - gamma**t_max)
        # one switch per neighbouring pair of the chain, keyed by its faster action
        gap = {lo: mean[hi] - mean[lo] for lo, hi in zip(chain, chain[1:])}
        margin = {lo: gap[lo] + bonus - pressure * exact[lo] for lo in gap}
        combined = min(gap.values()) + bonus - pressure * max(exact.values())
        rest = Action.REST in chain
        rows.append(
            {
                "cog_index": cog,
                "level": model.grid.level(cog),
                "rest_admissible": rest,
                "bonus": float(bonus),
                "high_to_normal_margin": float(margin[Action.NORMAL]),
                "normal_to_rest_margin": float(margin[Action.REST]) if rest else None,
                "to_skip_margin": float(margin[Action.SKIP]),
                "combined_margin": float(combined),
            }
        )
    return DominanceReport(per_cog=rows, ceiling=ceiling)


# -- threshold extraction --------------------------------------------------


@dataclass
class ThresholdRow:
    """Switch points read off one cognitive level of the policy.

    ``q1`` ends the slow-fidelity prefix, ``q2`` the normal-fidelity run,
    ``q3`` the rest run (levels above the resting level only). A switch
    that never happens inside the scanned range is censored to +inf; q3 is
    None where rest is inadmissible. ``is_threshold`` is False as soon as
    the action sequence leaves the expected order or any action starts a
    second run.
    """

    cog_index: int
    q1: float
    q2: float
    q3: object
    is_threshold: bool
    violations: list = field(default_factory=list)


def extract_thresholds(policy_row, cog_index, grid, q_range):
    """Scan one policy row along increasing queue length.

    Parameters
    ----------
    policy_row : sequence of one-letter action symbols indexed by q
    cog_index : int
    grid : CogGrid
        The level's ``queue_actions`` on this grid, reversed, are the order
        a threshold policy deploys them in as the queue grows.
    q_range : iterable of int
        Queue lengths to scan (ascending).
    """
    order = queue_actions(cog_index, grid)[::-1]
    high = Action.REST in order
    rank = {a.value: i for i, a in enumerate(order)}

    qs = list(q_range)
    symbols = [str(policy_row[q]) for q in qs]
    violations = []
    runs = []  # (symbol, first q of the run)
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

    is_threshold = not violations
    if is_threshold:
        # ranks never fall along a threshold row: q_k is the last q before
        # the first action ranked k or later, 0 when the row starts there
        # and +inf when no such action appears
        ranks = [rank[sym] for sym in symbols]
        firsts = [bisect.bisect_left(ranks, k) for k in (1, 2, 3)]
        q1, q2, q3 = (math.inf if i == len(qs) else qs[i - 1] if i else 0 for i in firsts)
        q3 = q3 if high else None
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


@dataclass
class ThresholdReport:
    rows: list


def threshold_report(model, policy, buffer_fraction=DEFAULT_BUFFER_FRACTION):
    """Extract thresholds for every cognitive level; which levels carry a
    guarantee is ``DominanceReport.guaranteed``. Never raises."""
    q_range = checked_queue_range(model.n_q, buffer_fraction)
    rows = [
        extract_thresholds(policy[:, cog], cog, model.grid, q_range)
        for cog in range(model.n_cog)
    ]
    return ThresholdReport(rows=rows)


def enforce_guarantee(thresholds, margins):
    """Raise GuaranteeViolationError if a level of the ``ThresholdReport``
    that ``margins.guaranteed`` certifies is not threshold-shaped - the
    guarantee is proved, so this indicates an implementation bug."""
    for row, has_guarantee in zip(thresholds.rows, margins.guaranteed):
        if has_guarantee and not row.is_threshold:
            raise GuaranteeViolationError(
                f"policy at cog index {row.cog_index} is not threshold-shaped "
                f"despite a nonnegative switch margin "
                f"({margins.combined_margin(row.cog_index):.6f}): {row.violations}"
            )


def verify_threshold_structure(
    model, policy, margins=None, buffer_fraction=DEFAULT_BUFFER_FRACTION
):
    """``threshold_report`` plus ``enforce_guarantee``: any level whose
    combined dominance margin is nonnegative must be threshold-shaped."""
    if margins is None:
        margins = dominance_margins(model)
    report = threshold_report(model, policy, buffer_fraction)
    enforce_guarantee(report, margins)
    return report


# -- value shape -----------------------------------------------------------


def check_value_shape(model, values, buffer_fraction=DEFAULT_BUFFER_FRACTION):
    """Notes on departures from the expected value-surface shape: strict
    decrease along the queue axis and unimodality over the cognitive axis
    peaking at the resting level. An empty list means the shape holds."""
    notes = []
    qs = list(checked_queue_range(model.n_q, buffer_fraction))
    star = model.grid.star_index
    for cog in range(model.n_cog):
        col = values[qs, cog]
        if not np.all(np.diff(col) < 0):
            q_bad = qs[int(np.argmax(np.diff(col) >= 0))]
            notes.append(
                f"value not strictly decreasing in queue length at cog index "
                f"{cog} (first flat/rising step near q={q_bad})"
            )
    for q in qs:
        row = values[q, :]
        if int(np.argmax(row)) != star:
            notes.append(
                f"value at q={q} peaks at cog index {int(np.argmax(row))} "
                f"instead of the resting level {star}"
            )
            continue
        rising = np.diff(row[: star + 1])
        falling = np.diff(row[star:])
        if not (np.all(rising > 0) and np.all(falling < 0)):
            notes.append(f"value at q={q} is not unimodal across cog")
    return notes


# -- one grading pass -----------------------------------------------------


@dataclass
class StructureReport:
    """Every structural result for one solved model, each computed once:
    the light-tail report, the dominance margins (whose ``ceiling`` also
    sets the value-gap bounds), the threshold rows, the value-gap sandwich
    and the value-shape notes."""

    light_tail: TransformBoundReport
    margins: DominanceReport
    thresholds: ThresholdReport
    value_gap: ValueGapReport
    value_shape_notes: list
    empty_queue_fraction: float | None = None

    @property
    def busy_assumption_ok(self):
        """Whether the queue stayed busy enough for the busy-regime
        results; None when no empty-queue fraction was supplied."""
        if self.empty_queue_fraction is None:
            return None
        return not self.value_gap.assumption_violated


def grade(model, solution, buffer_fraction=DEFAULT_BUFFER_FRACTION,
          empty_queue_fraction=None):
    """Grade a solved model (``solution`` carries ``values`` and
    ``policy``) against its structural results. Never raises on a violated
    guarantee; ``enforce_guarantee`` on the report's thresholds does.

    ``empty_queue_fraction``, when known from simulation, marks the
    value-gap bounds as assumption-violated outside the busy regime.
    """
    light_tail = compute_rho(model)
    margins = dominance_margins(model, light_tail)
    return StructureReport(
        light_tail=light_tail,
        margins=margins,
        thresholds=threshold_report(model, solution.policy, buffer_fraction),
        value_gap=check_value_gap_bounds(
            model,
            solution.values,
            light_tail.rho,
            margins.ceiling,
            buffer_fraction=buffer_fraction,
            empty_queue_fraction=empty_queue_fraction,
        ),
        value_shape_notes=check_value_shape(model, solution.values, buffer_fraction),
        empty_queue_fraction=empty_queue_fraction,
    )
