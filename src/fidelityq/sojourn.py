"""Sojourn-time distributions for every action.

Service times follow a discrete family on {1..T} whose mean tracks a
quadratic in the distance of the cognitive state from the resting level,
rest times are first-passage times of the resting chain, skipping takes a
fixed time and waiting is geometric in the per-step arrival probability.
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
        times = np.asarray(self.times, dtype=np.int64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if times.ndim != 1 or probs.shape != times.shape:
            raise ValueError("times and probs must be matching 1-d arrays")
        if times.size == 0:
            raise ValueError("empty sojourn support")
        if times[0] < 1:
            raise ValueError("sojourn times start at 1")
        if np.any(np.diff(times) <= 0):
            raise ValueError("sojourn times must be strictly increasing")
        # written so that NaN fails them
        if not np.all(probs >= 0):
            raise ValueError("sojourn probabilities must be nonnegative numbers")
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"sojourn probabilities sum to {total!r}, not 1")
        positive = probs > 0
        times, probs = times[positive], probs[positive]
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probs", probs)
        # numpy's pairwise sum, not a BLAS dot whose order varies by CPU
        t = times.astype(np.float64)
        object.__setattr__(self, "mean", float((probs * t).sum()))
        object.__setattr__(self, "second_moment", float((probs * (t * t)).sum()))
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


def _beta_binomial_pmf(mean, dispersion, support):
    n = support - 1
    p = (mean - 1.0) / n
    alpha = dispersion * p
    beta = dispersion * (1.0 - p)
    # f(k+1)/f(k) = (n-k)(k+alpha) / ((k+1)(n-k-1+beta)); no beta function
    # is evaluated, so high dispersions lose no digits to cancellation. The
    # running sums of the log ratios start at the mode, so the largest
    # probabilities carry the fewest rounding steps
    k = np.arange(n, dtype=np.float64)
    log_ratio = np.log((n - k) * (k + alpha) / ((k + 1.0) * (n - k - 1.0 + beta)))
    mode = int(np.argmax(np.concatenate(([0.0], np.cumsum(log_ratio)))))
    below = -np.cumsum(log_ratio[:mode][::-1])[::-1]
    probs = np.exp(np.concatenate((below, [0.0], np.cumsum(log_ratio[mode:]))))
    probs = probs / probs.sum()
    return SojournPMF(times=np.arange(1, support + 1), probs=probs)


def _neg_binomial_pmf(mean, shape, support):
    r = int(shape)
    if mean <= r:
        raise SupportTooSmallError(
            f"neg-binomial shape {r} needs a target mean above {r}"
        )
    p = r / mean
    ks = np.arange(r, support + 1)
    # f(0) = p^r, f(j) = f(j-1) (1-p) (j+r-1) / j over j = k - r failures:
    # one running product with no exp or log, whose last bits vary with the
    # CPU's SIMD kernels; 1 - probs.sum() is the mass beyond the support
    first = p**r
    if first < np.finfo(float).tiny:
        raise SupportTooSmallError(f"neg-binomial shape {r} at mean {mean:.3f} "
                                   "underflows p^r; lower the dispersion")
    j = np.arange(1, len(ks), dtype=np.float64)
    probs = np.multiply.accumulate(np.concatenate(([first], (1.0 - p) * (j + (r - 1)) / j)))
    tail = 1.0 - probs.sum()
    if tail > TRUNCATION_TOL:
        raise TailMassError(
            f"neg-binomial tail mass {tail:.3e} beyond support {support} "
            f"exceeds {TRUNCATION_TOL:.0e}; raise the support cap"
        )
    probs = probs / probs.sum()
    return SojournPMF(times=ks, probs=probs, truncated_mass=max(tail, 0.0))


def service_pmf(family, grid, cog_index, action):
    """Service-time distribution for the given cognitive level and fidelity.

    Parameters
    ----------
    family : ServiceFamily
    grid : CogGrid
    cog_index : int
    action : Action
        NORMAL or HIGH.

    Returns
    -------
    SojournPMF

    Raises
    ------
    SupportTooSmallError
        If the target mean does not fit inside the support cap.
    """
    if action not in (Action.NORMAL, Action.HIGH):
        raise ValueError("service_pmf only covers the two fidelity actions")
    mean = family.target_mean(grid.level(cog_index), grid.star_level, action)
    if mean > family.support - 1:
        raise SupportTooSmallError(
            f"target mean {mean:.3f} exceeds support cap {family.support} - 1; "
            "raise the cap or flatten the curvature"
        )
    if family.family == "beta-binomial":
        pmf = _beta_binomial_pmf(mean, family.dispersion, family.support)
    else:
        pmf = _neg_binomial_pmf(mean, family.dispersion, family.support)
    if abs(pmf.mean - mean) > MEAN_REL_TOL * mean:
        raise SupportTooSmallError(
            f"realized service mean {pmf.mean:.4f} misses target {mean:.4f} "
            "beyond 0.5%; the support cap is squeezing the distribution"
        )
    return pmf


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
