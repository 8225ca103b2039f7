"""Tests for the sojourn-time distributions.

Closed forms used as oracles: geometric first-passage moments for a
pure-downward rest chain, the negative-binomial generating function for
the discount transform, and hand-summed two-atom distributions. The
service laws are checked against ``scipy.stats`` within stated absolute
tolerances, and the beta-binomial law against a 40-digit ``mpmath``
evaluation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fidelityq import sojourn
from fidelityq.actions import Action
from fidelityq.cogchain import ChainRates, CogGrid, build_step_matrix, mean_first_passage
from fidelityq.config import from_mapping
from fidelityq.errors import SupportTooSmallError, TailMassError
from fidelityq.sojourn import (
    MAX_SUPPORT,
    TRUNCATION_TOL,
    ServiceFamily,
    SojournPMF,
    _beta_binomial_pmf,
    _neg_binomial_pmf,
    rest_caps,
    rest_pmf,
    service_pmf,
    skip_pmf,
    wait_pmf,
)


def no_allocation(*args, **kwargs):
    raise AssertionError("a sojourn law was allocated past the support bound")


def transform(pmf, gamma):
    """E[gamma^tau] of a law, summed term by term in Python."""
    return math.fsum(float(p) * gamma ** int(t) for t, p in zip(pmf.times, pmf.probs))


def capped_rest(step, grid, cog_index, cap_factor):
    """The rest law from ``cog_index`` at its ``rest_caps`` truncation point."""
    return rest_pmf(step, grid, cog_index, rest_caps(step, grid, cap_factor)[cog_index])


def two_atom():
    return SojournPMF(times=np.array([1, 3]), probs=np.array([0.75, 0.25]))


class TestSojournPMF:
    def test_moments_match_hand_sums(self):
        pmf = two_atom()
        assert pmf.mean == pytest.approx(1.5, abs=1e-15)
        assert pmf.second_moment == pytest.approx(0.75 * 1 + 0.25 * 9, abs=1e-15)
        assert pmf.variance == pytest.approx(3.0 - 1.5**2, abs=1e-15)

    def test_moments_match_python_loop(self):
        pmf = wait_pmf(0.7)
        mean = sum(float(p) * float(t) for t, p in zip(pmf.times, pmf.probs))
        second = sum(float(p) * float(t) ** 2 for t, p in zip(pmf.times, pmf.probs))
        assert pmf.mean == pytest.approx(mean, abs=1e-12)
        assert pmf.second_moment == pytest.approx(second, abs=1e-12)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([0, 1]), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([2, 2]), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([1, 2]), probs=np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([1, 2]), probs=np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([], dtype=int), probs=np.array([]))

    @pytest.mark.parametrize(
        "probs", [[np.nan, np.nan], [np.nan, 1.0]]
    )
    def test_rejects_probabilities_that_are_not_finite(self, probs):
        # every comparison with NaN is False, so checks must be written to fail
        with pytest.raises(ValueError):
            SojournPMF(times=np.array([1, 2]), probs=np.array(probs))

    def test_arrays_are_frozen(self):
        pmf = two_atom()
        with pytest.raises(ValueError):
            pmf.times[0] = 5


class TestSkipWait:
    def test_skip_is_point_mass(self):
        pmf = skip_pmf(2)
        assert pmf.times.tolist() == [2]
        assert pmf.probs.tolist() == [1.0]
        assert pmf.mean == 2.0
        assert pmf.second_moment == 4.0


class TestWait:
    def test_geometric_shape_and_tail(self):
        pmf = wait_pmf(1.0)
        # support sized so the untruncated tail exp(-support) dips below 1e-6
        assert pmf.times[-1] == 14
        assert pmf.truncated_mass == pytest.approx(math.exp(-14.0), rel=1e-12)
        # renormalization cancels in consecutive ratios
        ratios = pmf.probs[1:] / pmf.probs[:-1]
        assert ratios == pytest.approx(np.full(13, math.exp(-1.0)), abs=1e-15)

    def test_mean_close_to_untruncated_geometric(self):
        pmf = wait_pmf(1.0)
        assert pmf.mean == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), abs=1e-4)

    def test_explicit_support(self):
        # the tolerance sizes the support: (1-p)^4 > 1e-6 >= (1-p)^5
        pmf = wait_pmf(3.0)
        assert pmf.times.tolist() == [1, 2, 3, 4, 5]
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # the chance of an arrival inside one step
        p = 1.0 - math.exp(-3.0)
        assert pmf.probs[0] == pytest.approx(p / (1 - (1 - p) ** 5), abs=1e-15)
        assert pmf.truncated_mass == pytest.approx((1 - p) ** 5, rel=1e-12)

    def test_auto_support_meets_tolerance(self):
        for rate in (0.1, 0.45, 2.0):
            pmf = wait_pmf(rate)
            assert pmf.truncated_mass < 1e-6

    def test_support_bound_is_checked_before_allocating(self, monkeypatch):
        # 1e-6 arrivals per step would need 13.8M points
        monkeypatch.setattr(sojourn.np, "arange", no_allocation)
        with pytest.raises(ValueError, match=f"needs 13815511 support points, over {MAX_SUPPORT}"):
            wait_pmf(1e-6)


def pure_down_rest_rates(p_down):
    """Rates whose rest chain only steps down, w.p. p_down per step."""
    return ChainRates(
        probs={
            Action.WAIT: (0.02, 0.4),
            Action.REST: (0.0, p_down),
            Action.NORMAL: (0.48, 0.016),
            Action.HIGH: (0.56, 0.016),
        }
    )


class TestRest:
    GRID = CogGrid(n_intervals=4, star_index=2)

    def test_one_level_above_is_geometric(self):
        # From one level above the resting level a pure-down chain hits it
        # on a geometric(1/2) time: mean 2, second moment (2-p)/p^2 = 6.
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=3, cap_factor=50)
        assert pmf.probs[0] == pytest.approx(0.5, abs=1e-12)
        assert pmf.probs[3] == pytest.approx(0.5**4, abs=1e-12)
        assert pmf.mean == pytest.approx(2.0, abs=1e-9)
        assert pmf.second_moment == pytest.approx(6.0, abs=1e-8)

    def test_two_levels_is_sum_of_geometrics(self):
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=4, cap_factor=50)
        assert pmf.probs[0] == 0.0  # two steps down take at least two ticks
        assert pmf.probs[1] == pytest.approx(0.25, abs=1e-12)
        assert pmf.mean == pytest.approx(4.0, abs=1e-9)
        # sum of two independent geometric(1/2): variance 2 + 2
        assert pmf.variance == pytest.approx(4.0, abs=1e-8)

    def test_support_skips_the_leading_zero(self):
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=4, cap_factor=50)
        times, probs = pmf.support
        assert pmf.times[0] == 1 and pmf.probs[0] == 0.0
        assert times[0] == 2
        assert (probs > 0).all()

    def test_mean_matches_linear_solve(self):
        grid = CogGrid(n_intervals=6, star_index=3)
        rates = ChainRates.default(step_scale=0.8)
        step = build_step_matrix(grid, rates, Action.REST)
        for cog in range(grid.star_index + 1, grid.n_levels):
            pmf = capped_rest(step, grid, cog, cap_factor=50)
            exact = mean_first_passage(step, grid)[cog]
            assert pmf.mean == pytest.approx(exact, rel=1e-6)

    def test_every_cap_is_checked_before_the_first_ladder(self, monkeypatch):
        # on a 150-interval grid the rest law from level 83 is the first whose
        # cap passes the support bound; the build refuses it before it walks
        # the ladder of level 7
        monkeypatch.setattr(sojourn, "fpt_pmf", no_allocation)
        cfg = from_mapping({"cognition": {"intervals": 150}})
        with pytest.raises(ValueError, match="^the rest law from level 83 needs 10027 support"):
            cfg.build_model()

    def test_tight_cap_raises(self):
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        with pytest.raises(TailMassError):
            # the mean is 2, so the cap is 3 steps
            capped_rest(step, self.GRID, cog_index=3, cap_factor=1.5)

    def test_support_bound_is_checked_before_walking_the_chain(self, monkeypatch):
        # a mean first passage of 1e4 steps would cap the law at 5e5 steps
        step = build_step_matrix(self.GRID, pure_down_rest_rates(1e-4), Action.REST)
        monkeypatch.setattr(sojourn, "fpt_pmf", no_allocation)
        with pytest.raises(ValueError, match=f"support points, over {MAX_SUPPORT}$"):
            rest_caps(step, self.GRID, cap_factor=50)

    def test_transform_matches_geometric_generating_function(self):
        # E[gamma^T] for geometric(p) is p*gamma / (1 - (1-p)*gamma)
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=3, cap_factor=50)
        gamma = 0.9
        expected = 0.5 * gamma / (1.0 - 0.5 * gamma)
        assert transform(pmf, gamma) == pytest.approx(expected, abs=1e-9)


class TestServiceFamily:
    FAMILY = ServiceFamily(
        base_mean={Action.NORMAL: 12.0, Action.HIGH: 20.0},
        curvature={Action.NORMAL: 60.0, Action.HIGH: 80.0},
        dispersion=8.0,
        support=100,
    )
    GRID = CogGrid(n_intervals=10, star_index=6)

    def test_target_mean_quadratic(self):
        f = self.FAMILY
        assert f.target_mean(0.6, 0.6, Action.NORMAL) == pytest.approx(12.0)
        assert f.target_mean(1.0, 0.6, Action.NORMAL) == pytest.approx(12.0 + 60 * 0.16)
        assert f.target_mean(0.0, 0.6, Action.HIGH) == pytest.approx(20.0 + 80 * 0.36)

    def test_beta_binomial_mean_is_exact(self):
        for cog in range(self.GRID.n_levels):
            for a in (Action.NORMAL, Action.HIGH):
                target = self.FAMILY.target_mean(
                    self.GRID.level(cog), self.GRID.star_level, a
                )
                pmf = service_pmf(self.FAMILY, self.GRID, cog, a)
                assert pmf.mean == pytest.approx(target, abs=1e-9)
                assert pmf.times[0] == 1
                assert pmf.times[-1] == 100

    def test_high_fidelity_slower_with_more_spread(self):
        for cog in range(self.GRID.n_levels):
            n = service_pmf(self.FAMILY, self.GRID, cog, Action.NORMAL)
            h = service_pmf(self.FAMILY, self.GRID, cog, Action.HIGH)
            assert h.mean > n.mean
            assert h.second_moment > n.second_moment

    def test_variance_dips_at_resting_level(self):
        variances = [
            service_pmf(self.FAMILY, self.GRID, cog, Action.NORMAL).variance
            for cog in range(self.GRID.n_levels)
        ]
        star = self.GRID.star_index
        assert int(np.argmin(variances)) == star
        diffs = np.diff(variances)
        assert np.all(diffs[:star] < 0)
        assert np.all(diffs[star:] > 0)

    def test_mean_beyond_cap_raises(self):
        cramped = ServiceFamily(
            base_mean={Action.NORMAL: 12.0, Action.HIGH: 20.0},
            curvature={Action.NORMAL: 60.0, Action.HIGH: 80.0},
            dispersion=8.0,
            support=20,
        )
        grid = self.GRID
        with pytest.raises(SupportTooSmallError):
            service_pmf(cramped, grid, grid.n_levels - 1, Action.HIGH)

    def test_only_fidelity_actions(self):
        with pytest.raises(ValueError):
            service_pmf(self.FAMILY, self.GRID, 3, Action.SKIP)

    def test_parameter_validation(self):
        good = dict(
            base_mean={Action.NORMAL: 4.0, Action.HIGH: 7.0},
            curvature={Action.NORMAL: 2.0, Action.HIGH: 3.0},
            dispersion=5.0,
            support=30,
        )
        ServiceFamily(**good)
        with pytest.raises(ValueError):
            ServiceFamily(**{**good, "base_mean": {Action.NORMAL: 4.0}})
        with pytest.raises(ValueError):
            ServiceFamily(
                **{**good, "base_mean": {Action.NORMAL: 7.0, Action.HIGH: 4.0}}
            )
        with pytest.raises(ValueError):
            ServiceFamily(
                **{**good, "base_mean": {Action.NORMAL: 0.5, Action.HIGH: 7.0}}
            )
        with pytest.raises(ValueError):
            ServiceFamily(
                **{**good, "curvature": {Action.NORMAL: -1.0, Action.HIGH: 3.0}}
            )
        with pytest.raises(ValueError):
            ServiceFamily(**{**good, "dispersion": 0.0})
        with pytest.raises(ValueError):
            ServiceFamily(**{**good, "support": 2})
        with pytest.raises(ValueError):
            ServiceFamily(**{**good, "family": "zeta"})
        with pytest.raises(ValueError):
            ServiceFamily(**{**good, "family": "neg-binomial", "dispersion": 2.5})

    @pytest.mark.parametrize("family", ["beta-binomial", "neg-binomial"])
    @pytest.mark.parametrize(
        "override, match",
        [
            ({"dispersion": float("nan")}, "dispersion"),
            ({"dispersion": float("inf")}, "dispersion"),
            ({"curvature": {Action.NORMAL: np.nan, Action.HIGH: 3.0}}, "curvature"),
            ({"curvature": {Action.NORMAL: 2.0, Action.HIGH: np.inf}}, "curvature"),
        ],
    )
    def test_parameters_that_are_not_finite_rejected(self, family, override, match):
        good = dict(
            base_mean={Action.NORMAL: 4.0, Action.HIGH: 7.0},
            curvature={Action.NORMAL: 2.0, Action.HIGH: 3.0},
            dispersion=5.0,
            support=30,
            family=family,
        )
        with pytest.raises(ValueError, match=match):
            ServiceFamily(**{**good, **override})


def reference_beta_binomial(mean, dispersion, support):
    """The beta-binomial service law through ``scipy.stats.betabinom``:
    mean ``mean`` on {1..support}, concentration ``dispersion``."""
    n = support - 1
    p = (mean - 1.0) / n
    ks = np.arange(support)
    probs = stats.betabinom.pmf(ks, n, dispersion * p, dispersion * (1.0 - p))
    return ks + 1, probs / probs.sum()


@settings(max_examples=80, deadline=None)
@given(
    support=st.integers(min_value=3, max_value=4000),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    dispersion=st.floats(min_value=1e-3, max_value=1e4),
)
def test_beta_binomial_matches_scipy_stats(support, fraction, dispersion):
    # scipy's beta-function form loses up to ~2.5e-12 at high dispersion
    # (see the mpmath test below); the tolerance is scipy's error, not ours
    mean = 1.0 + fraction * (support - 2)
    if mean <= 1.0:
        mean = np.nextafter(1.0, 2.0)
    times, probs = reference_beta_binomial(mean, dispersion, support)
    pmf = _beta_binomial_pmf(mean, dispersion, support)
    assert np.array_equal(pmf.times, times)
    assert np.abs(pmf.probs - probs).max() <= 1e-11


def mpmath_beta_binomial(mean, dispersion, support):
    """The beta-binomial service law from its definition,
    C(n, k) B(k + alpha, n - k + beta) / B(alpha, beta), in 40 digits."""
    n = support - 1
    p = (mean - 1.0) / n
    with mpmath.workdps(40):
        alpha = mpmath.mpf(dispersion * p)
        beta = mpmath.mpf(dispersion * (1.0 - p))
        terms = [
            mpmath.binomial(n, k) * mpmath.beta(k + alpha, n - k + beta)
            for k in range(support)
        ]
        total = mpmath.fsum(terms)
        return np.array([float(t / total) for t in terms])


@pytest.mark.parametrize(
    "support, fraction, dispersion",
    [(126, 0.103, 9437.0), (400, 0.37, 1e4), (3000, 0.6, 8000.0)],
)
def test_beta_binomial_matches_mpmath(support, fraction, dispersion):
    """High dispersion is where a beta-function evaluation cancels most."""
    mean = 1.0 + fraction * (support - 2)
    pmf = _beta_binomial_pmf(mean, dispersion, support)
    expected = mpmath_beta_binomial(mean, dispersion, support)
    assert np.abs(pmf.probs - expected).max() <= 1e-15


def reference_neg_binomial(mean, shape, support):
    """The neg-binomial service law through ``scipy.stats.nbinom``: shape
    ``shape``, mean ``mean``, shifted onto {shape..support}; also returns
    the mass beyond the support."""
    ks = np.arange(shape, support + 1)
    probs = stats.nbinom.pmf(ks - shape, shape, shape / mean)
    return ks, probs / probs.sum(), 1.0 - probs.sum()


@settings(max_examples=80, deadline=None)
@given(
    shape=st.integers(min_value=1, max_value=10),
    support=st.integers(min_value=12, max_value=4000),
    fraction=st.floats(min_value=1e-3, max_value=1.0),
)
def test_neg_binomial_matches_scipy_stats(shape, support, fraction):
    # log-uniform means between the shape and the support, so both fitting
    # and overflowing laws are drawn
    mean = shape * (support / shape) ** fraction
    times, probs, tail = reference_neg_binomial(mean, shape, support)
    if tail > TRUNCATION_TOL:
        with pytest.raises(TailMassError):
            _neg_binomial_pmf(mean, shape, support)
        return
    pmf = _neg_binomial_pmf(mean, shape, support)
    kept = pmf.times.size
    assert np.array_equal(pmf.times, times[:kept])
    # only trailing zeros are trimmed, so the dropped points are ~0 in scipy
    got = np.zeros_like(probs)
    got[:kept] = pmf.probs
    assert np.abs(got - probs).max() <= 1e-14
    assert abs(pmf.truncated_mass - max(tail, 0.0)) <= 1e-13


def test_neg_binomial_refuses_a_first_point_below_the_normal_range():
    # shape 2000 at mean 4000: p^r = 0.5^2000, which no float holds, and the
    # running product from it would lose every digit
    with pytest.raises(SupportTooSmallError, match="underflows p\\^r"):
        _neg_binomial_pmf(4000.0, 2000, 10_000)


class TestNegBinomialFamily:
    def family(self, support=400):
        return ServiceFamily(
            base_mean={Action.NORMAL: 6.0, Action.HIGH: 10.0},
            curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
            dispersion=3.0,
            support=support,
            family="neg-binomial",
        )

    GRID = CogGrid(n_intervals=4, star_index=2)

    def test_mean_hits_target(self):
        pmf = service_pmf(self.family(), self.GRID, 2, Action.NORMAL)
        assert pmf.times[0] == 3  # the shape shifts the support
        assert pmf.mean == pytest.approx(6.0, abs=1e-5)

    def test_transform_matches_generating_function(self):
        # tau = r + NB(r, p) with p = r/mean, so E[gamma^tau] is
        # (gamma * p / (1 - (1-p)*gamma))^r; here r=3, mean 6, gamma=1/2
        # gives exactly (1/3)^3.
        pmf = service_pmf(self.family(), self.GRID, 2, Action.NORMAL)
        assert transform(pmf, 0.5) == pytest.approx((1 / 3) ** 3, abs=1e-9)

    def test_cramped_support_raises_tail_error(self):
        with pytest.raises(TailMassError):
            service_pmf(self.family(support=12), self.GRID, 2, Action.NORMAL)

    def test_mean_at_or_below_shape_raises(self):
        fam = ServiceFamily(
            base_mean={Action.NORMAL: 2.5, Action.HIGH: 10.0},
            curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
            dispersion=3.0,
            support=400,
            family="neg-binomial",
        )
        with pytest.raises(SupportTooSmallError):
            service_pmf(fam, self.GRID, 2, Action.NORMAL)


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(min_value=3.0, max_value=80.0),
    dispersion=st.floats(min_value=1.0, max_value=40.0),
    gamma=st.floats(min_value=0.5, max_value=0.99),
)
def test_transform_dominates_discounted_mean(mean, dispersion, gamma):
    """E[gamma^tau] >= gamma^E[tau]: the transform is convex in tau."""
    family = ServiceFamily(
        base_mean={Action.NORMAL: mean, Action.HIGH: mean + 1.0},
        curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
        dispersion=dispersion,
        support=120,
    )
    grid = CogGrid(n_intervals=2, star_index=1)
    pmf = service_pmf(family, grid, 1, Action.NORMAL)
    assert transform(pmf, gamma) >= gamma**pmf.mean - 1e-12
