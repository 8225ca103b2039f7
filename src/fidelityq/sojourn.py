"""Sojourn-time distributions for every action.

Service times follow a discrete family on {1..T} whose mean tracks a
quadratic in the distance of the cognitive state from the resting level,
rest times are first-passage times of the resting chain, skipping takes a
fixed time and waiting is geometric in the per-step arrival probability.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.special._ufuncs import _nbinom_pmf

from .actions import Action
from .cogchain import fpt_pmf, mean_first_passage
from .errors import SupportTooSmallError, TailMassError

TRUNCATION_TOL = 1e-6
MEAN_REL_TOL = 5e-3

SERVICE_FAMILIES = ("beta-binomial", "neg-binomial")


@dataclass(frozen=True)
class SojournPMF:
    """Finite sojourn-time distribution with cached moments.

    ``times`` holds strictly increasing integer support points (all >= 1)
    and ``probs`` their probabilities, summing to one; both may include
    zero-probability points. ``support`` is the read-only ``(times,
    probs)`` pair of the positive-probability points alone. ``truncated_mass``
    records how much probability was cut off before renormalization when
    the distribution was capped.
    """

    times: np.ndarray
    probs: np.ndarray
    truncated_mass: float = 0.0
    mean: float = field(init=False)
    second_moment: float = field(init=False)
    variance: float = field(init=False)
    support: tuple = field(init=False, repr=False)

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
        times.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "probs", probs)
        positive = probs > 0
        support = (times[positive], probs[positive])
        for array in support:
            array.setflags(write=False)
        object.__setattr__(self, "support", support)
        t = times.astype(np.float64)
        object.__setattr__(self, "mean", float(probs @ t))
        object.__setattr__(self, "second_moment", float(probs @ (t * t)))
        object.__setattr__(
            self, "variance", max(self.second_moment - self.mean**2, 0.0)
        )

    def discount_transform(self, discount):
        """E[discount^tau], an exact finite sum over the support."""
        return float(self.probs @ np.power(discount, self.times.astype(np.float64)))


def _trim_trailing(times, probs):
    """Drop trailing zero-probability support points."""
    nz = np.nonzero(probs)[0]
    if nz.size == 0:
        raise ValueError("sojourn distribution has no mass")
    last = nz[-1] + 1
    return times[:last], probs[:last]


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
        if not self.base_mean[Action.HIGH] > self.base_mean[Action.NORMAL]:
            raise ValueError("high fidelity must be slower than normal on average")
        if min(self.base_mean.values()) <= 1.0:
            raise ValueError("base service means must exceed one time step")
        if not all(0 <= k < math.inf for k in self.curvature.values()):
            raise ValueError("curvature must be nonnegative and finite")
        if not 0 < self.dispersion < math.inf:
            raise ValueError("dispersion must be positive and finite")
        if self.support < 3:
            raise ValueError("service support cap must be at least 3")
        if self.family not in SERVICE_FAMILIES:
            raise ValueError(f"unknown service family {self.family!r}")
        if self.family == "neg-binomial" and int(self.dispersion) != self.dispersion:
            raise ValueError("neg-binomial dispersion is an integer shape")

    def target_mean(self, level, star_level, action):
        return self.base_mean[action] + self.curvature[action] * (level - star_level) ** 2


def _beta_binomial_pmf(mean, dispersion, support):
    n = support - 1
    p = (mean - 1.0) / n
    alpha = dispersion * p
    beta = dispersion * (1.0 - p)
    ks = np.arange(support)
    # scipy.stats.betabinom's log-pmf, term for term and in the same order,
    # so the probabilities match it bit for bit without scipy.stats
    k = ks.astype(np.float64)
    combiln = -np.log(n + 1) - special.betaln(n - k + 1, k + 1)
    log_pmf = (combiln + special.betaln(k + alpha, n - k + beta)
               - special.betaln(alpha, beta))
    probs = np.clip(np.exp(log_pmf), 0, 1)
    probs = probs / probs.sum()
    return SojournPMF(times=ks + 1, probs=probs)


def _neg_binomial_pmf(mean, shape, support):
    r = int(shape)
    if mean <= r:
        raise SupportTooSmallError(
            f"neg-binomial shape {r} needs a target mean above {r}"
        )
    p = r / mean
    ks = np.arange(r, support + 1)
    # the Boost ufunc behind scipy.stats.nbinom.pmf, clipped as rv_discrete
    # clips it, so the probabilities match it bit for bit without scipy.stats
    probs = np.clip(_nbinom_pmf(ks - r, r, p), 0, 1)
    tail = 1.0 - probs.sum()
    if tail > TRUNCATION_TOL:
        raise TailMassError(
            f"neg-binomial tail mass {tail:.3e} beyond support {support} "
            f"exceeds {TRUNCATION_TOL:.0e}; raise the support cap"
        )
    probs = probs / probs.sum()
    times, probs = _trim_trailing(ks, probs)
    return SojournPMF(times=times, probs=probs, truncated_mass=max(tail, 0.0))


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


@dataclass(frozen=True)
class SkipWaitSpec:
    """Fixed skip duration and the arrival process driving waits.

    ``arrival_step_prob`` is the chance of at least one arrival inside one
    discrete step, 1 - exp(-arrival_rate). Queue stability under constant
    skipping needs skip_time < 1/arrival_rate; configurations violating it
    are allowed (saturated-queue studies use them) and carry stable=False.
    """

    skip_time: int
    arrival_rate: float

    def __post_init__(self):
        if self.skip_time < 1 or int(self.skip_time) != self.skip_time:
            raise ValueError("skip_time must be a positive integer")
        if not 0 < self.arrival_rate:
            raise ValueError("arrival rate must be positive")
        p = self.arrival_step_prob
        if not 0 < p < 1:
            raise ValueError("arrival probability per step must be in (0,1)")

    @property
    def arrival_step_prob(self):
        return 1.0 - math.exp(-self.arrival_rate)

    @property
    def stable(self):
        return self.skip_time < 1.0 / self.arrival_rate


def skip_pmf(spec):
    """Point mass at the fixed skip duration."""
    return SojournPMF(times=np.array([spec.skip_time]), probs=np.array([1.0]))


def wait_pmf(spec):
    """Geometric waiting time, truncated and renormalized.

    f(k) = (1-p)^(k-1) p with p the per-step arrival probability, on a
    support sized so the truncated tail is below the truncation tolerance.
    """
    p = spec.arrival_step_prob
    support = max(1, int(math.ceil(math.log(TRUNCATION_TOL) / math.log1p(-p))))
    ks = np.arange(1, support + 1)
    probs = p * (1.0 - p) ** (ks - 1)
    tail = (1.0 - p) ** support
    probs = probs / probs.sum()
    return SojournPMF(times=ks, probs=probs, truncated_mass=tail)


def rest_pmf(step, grid, cog_index, cap_factor):
    """Rest sojourn: first-passage time of the resting chain down to the
    resting level, truncated at ``cap_factor`` times its exact mean."""
    mean = mean_first_passage(step, grid, cog_index)
    t_cap = max(1, int(np.ceil(cap_factor * mean)))
    probs, tail = fpt_pmf(step, grid, cog_index, t_cap)
    times = np.arange(1, t_cap + 1)
    times, probs = _trim_trailing(times, probs)
    return SojournPMF(times=times, probs=probs, truncated_mass=tail)
