"""Sojourn-time distributions for every action.

Service times follow a discrete family on {1..T} whose mean tracks a
quadratic in the distance of the cognitive state from the resting level,
rest times are first-passage times of the resting chain, skipping takes a
fixed time and waiting is geometric in the per-step arrival probability.
Each fidelity's service laws at all levels are built as one table, a row
per level.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import Action
from .cogchain import fpt_pmf, mean_first_passage
from .config import TRUNCATION_TOL, _check_support, check_service, wait_support
from .errors import SupportTooSmallError, TailMassError

MEAN_REL_TOL = 5e-3


@dataclass(frozen=True)
class SojournPMF:
    """Finite sojourn-time distribution with cached moments.

    ``times`` holds strictly increasing integer support points (all >= 1)
    and ``probs`` their probabilities, summing to one; the constructor
    keeps only the positive-probability points, so both are read-only and
    hold the support alone. ``truncated_mass`` records how much probability
    was cut off before renormalization when the distribution was capped.
    """

    times: np.ndarray
    probs: np.ndarray
    truncated_mass: float = 0.0
    mean: float = field(init=False)
    second_moment: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times)
        if times.dtype != np.int64:
            # a fraction, NaN or inf does not survive the cast unchanged
            with np.errstate(invalid="ignore"):
                cast = times.astype(np.int64)
            if not np.array_equal(cast, times):
                raise ValueError("sojourn times must be integers")
            times = cast
        probs = np.asarray(self.probs, dtype=np.float64)
        if times.ndim != 1 or probs.shape != times.shape:
            raise ValueError("times and probs must be matching 1-d arrays")
        if times.size == 0:
            raise ValueError("empty sojourn support")
        if times[0] < 1:
            raise ValueError("sojourn times start at 1")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("sojourn times must be strictly increasing")
        # the minimum propagates NaN, so NaN fails the comparison
        least = np.minimum.reduce(probs)
        if not least >= 0:
            raise ValueError("sojourn probabilities must be nonnegative numbers")
        total = np.add.reduce(probs)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"sojourn probabilities sum to {float(total)!r}, not 1")
        if least > 0:
            # copies, so freezing them leaves the caller's arrays writable
            times, probs = times.copy(), probs.copy()
        else:
            positive = probs > 0
            times, probs = times[positive], probs[positive]
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probs", probs)
        # numpy's pairwise sum, not a BLAS dot whose order varies by CPU
        t = times.astype(np.float64)
        object.__setattr__(self, "mean", float(np.add.reduce(probs * t)))
        object.__setattr__(self, "second_moment", float(np.add.reduce(probs * (t * t))))
        object.__setattr__(
            self, "variance", max(self.second_moment - self.mean**2, 0.0)
        )


@dataclass(frozen=True)
class ServiceFamily:
    """Parametric service-time family for the two fidelity levels.

    The target mean at cognitive level x is ``base_mean + curvature *
    (x - x*)**2``; the family hits it exactly (beta-binomial) or within the
    truncation tolerance (negative binomial) on support {1..support}.

    ``dispersion`` is the concentration of the beta mixing distribution for
    the beta-binomial family (larger = tighter) and the integer shape of
    the negative binomial family (larger = tighter).
    """

    base_mean: dict
    curvature: dict
    dispersion: float
    support: int
    family: str = "beta-binomial"

    def __post_init__(self):
        for d in (self.base_mean, self.curvature):
            if set(d) != {Action.NORMAL, Action.HIGH}:
                raise ValueError("service parameters must cover exactly N and H")
        check_service(self.base_mean, self.curvature, self.dispersion, self.support,
                      self.family)

    def target_mean(self, level, star_level, action):
        return self.base_mean[action] + self.curvature[action] * (level - star_level) ** 2


def _beta_binomial_table(means, dispersion, support):
    """Row i: the beta-binomial law of mean ``means[i]`` on {1..support}.

    f(k+1)/f(k) = (n-k)(k+alpha) / ((k+1)(n-k-1+beta)); no beta function
    is evaluated, so high dispersions lose no digits to cancellation. The
    running sums of the log ratios start at each row's mode, so the largest
    probabilities carry the fewest rounding steps. Each step is elementwise
    or runs along a row, so a row has the bits it would have alone. The
    support is the law's whole range, so every row's tail is 0."""
    n = support - 1
    p = (means - 1.0) / n
    alpha = (dispersion * p)[:, None]
    beta = (dispersion * (1.0 - p))[:, None]
    k = np.arange(n, dtype=np.float64)
    log_ratio = np.log((n - k) * (k + alpha) / ((k + 1.0) * (n - k - 1.0 + beta)))
    logs = np.zeros((len(means), support))
    np.cumsum(log_ratio, axis=1, out=logs[:, 1:])
    above = k >= logs.argmax(axis=1)[:, None]
    # the sums from the mode up, and (negated, which rounds alike) down;
    # each is zero on the other side of the mode
    np.cumsum(np.where(above, log_ratio, 0.0), axis=1, out=logs[:, 1:])
    logs[:, :n] += np.cumsum(np.where(above, 0.0, -log_ratio)[:, ::-1], axis=1)[:, ::-1]
    probs = np.exp(logs)
    probs /= probs.sum(axis=1, keepdims=True)
    return np.arange(1, support + 1), probs, [0.0] * len(means)


def _neg_binomial_table(means, shape, support):
    """Row i: the neg-binomial law of mean ``means[i]`` on {shape..support}.

    f(0) = p^r, f(j) = f(j-1) (1-p) (j+r-1) / j over j = k - r failures:
    one running product along each row with no exp or log, whose last bits
    vary with the CPU's SIMD kernels; 1 - the row sum is the row's mass
    beyond the support, returned as the tails."""
    r = int(shape)
    p = r / means
    j = np.arange(1, support - r + 1, dtype=np.float64)
    steps = np.empty((len(means), support - r + 1))
    # p^r as Python computes it for each row
    steps[:, 0] = [(r / mean) ** r for mean in means]
    steps[:, 1:] = (1.0 - p)[:, None] * (j + (r - 1)) / j
    probs = np.multiply.accumulate(steps, axis=1)
    totals = probs.sum(axis=1, keepdims=True)
    probs /= totals
    return np.arange(r, support + 1), probs, 1.0 - totals[:, 0]


def _refusal(family, mean):
    """The error that refuses a service law of target mean ``mean`` before
    it is built, or None."""
    if mean > family.support - 1:
        return SupportTooSmallError(
            f"target mean {mean:.3f} exceeds support cap {family.support} - 1; "
            "raise the cap or flatten the curvature"
        )
    if family.family == "beta-binomial":
        return None
    r = int(family.dispersion)
    if mean <= r:
        return SupportTooSmallError(f"neg-binomial shape {r} needs a target mean above {r}")
    if (r / mean) ** r < np.finfo(float).tiny:
        return SupportTooSmallError(f"neg-binomial shape {r} at mean {mean:.3f} "
                                    "underflows p^r; lower the dispersion")
    return None


def service_pmf(family, grid, action):
    """The service-time laws of fidelity ``action`` (NORMAL or HIGH) at
    every cognitive level, in level order, built as one ``(n_levels,
    support)`` table whose rows equal the laws built alone, bit for bit.

    Raises the first failing level's ``SupportTooSmallError`` (a target
    mean that does not fit inside the support cap) or ``TailMassError`` (a
    neg-binomial tail past the truncation tolerance); no row is computed
    past a level refused before its law is built.
    """
    if action not in (Action.NORMAL, Action.HIGH):
        raise ValueError("service_pmf only covers the two fidelity actions")
    means, refusal = [], None
    for cog in range(grid.n_levels):
        mean = family.target_mean(grid.level(cog), grid.star_level, action)
        refusal = _refusal(family, mean)
        if refusal is not None:
            break
        means.append(mean)
    if not means:
        raise refusal
    build = _beta_binomial_table if family.family == "beta-binomial" else _neg_binomial_table
    times, table, tails = build(np.array(means), family.dispersion, family.support)
    laws = []
    for mean, row, tail in zip(means, table, tails):
        if tail > TRUNCATION_TOL:
            raise TailMassError(
                f"neg-binomial tail mass {tail:.3e} beyond support {family.support} "
                f"exceeds {TRUNCATION_TOL:.0e}; raise the support cap"
            )
        pmf = SojournPMF(times=times, probs=row, truncated_mass=max(tail, 0.0))
        if abs(pmf.mean - mean) > MEAN_REL_TOL * mean:
            raise SupportTooSmallError(
                f"realized service mean {pmf.mean:.4f} misses target {mean:.4f} "
                "beyond 0.5%; the support cap is squeezing the distribution"
            )
        laws.append(pmf)
    if refusal is not None:
        raise refusal
    return laws


def skip_pmf(skip_time):
    """Point mass at the fixed skip duration."""
    return SojournPMF(times=np.array([skip_time]), probs=np.array([1.0]))


def wait_pmf(arrival_rate):
    """Geometric waiting time, truncated and renormalized.

    f(k) = (1-p)^(k-1) p with p = 1 - exp(-arrival_rate) the chance of an
    arrival inside one step, on a support sized so the truncated tail is
    below the truncation tolerance.

    The epoch's arrivals are then Poisson(arrival_rate * tau) from zero, not
    conditioned on the one that ended the wait, so the queue stays empty
    with probability 1/(1 + exp(arrival_rate)) (0.389 at 0.45); an open
    modelling question.
    """
    support = wait_support(arrival_rate)
    p = 1.0 - math.exp(-arrival_rate)
    ks = np.arange(1, support + 1)
    probs = p * (1.0 - p) ** (ks - 1)
    tail = (1.0 - p) ** support
    probs = probs / probs.sum()
    return SojournPMF(times=ks, probs=probs, truncated_mass=tail)


def rest_caps(step, grid, cap_factor):
    """{level: truncation point} of the rest law from each level above the
    resting level, max(1, ceil(cap_factor * mean first passage)), from one
    solve; each is checked against the support bound, lowest level first."""
    means = mean_first_passage(step, grid)
    caps = {}
    for cog in range(grid.star_index + 1, grid.n_levels):
        caps[cog] = max(1, int(np.ceil(cap_factor * means[cog])))
        _check_support(f"the rest law from level {cog}", caps[cog])
    return caps


def rest_pmf(step, grid, cog_index, t_cap):
    """Rest sojourn: first-passage time of the resting chain down to the
    resting level, truncated at ``t_cap`` (its ``rest_caps`` entry)."""
    probs, tail = fpt_pmf(step, grid, cog_index, t_cap)
    return SojournPMF(times=np.arange(1, t_cap + 1), probs=probs, truncated_mass=tail)
