"""Tests for the sojourn-time distributions.

Closed forms used as oracles: geometric first-passage moments for a
pure-downward rest chain, the negative-binomial generating function for
the discount transform, and hand-summed two-atom distributions. The
service laws are checked against ``scipy.stats`` within stated absolute
tolerances, and the beta-binomial law against a 40-digit ``mpmath``
evaluation. The per-level service builders kept here are the reference
that every row of ``service_pmf``'s table must equal bit for bit.
"""

import math
import os
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fidelityq import sojourn
from fidelityq.actions import Action
from fidelityq.cogchain import ChainRates, CogGrid, build_step_matrix, mean_first_passage
from fidelityq.config import (
    MAX_SUPPORT,
    TRUNCATION_TOL,
    from_mapping,
    resolve_config,
    step_probs,
)
from fidelityq.errors import SupportTooSmallError, TailMassError
from fidelityq.sojourn import (
    MEAN_REL_TOL,
    ServiceFamily,
    SojournPMF,
    _beta_binomial_table,
    _neg_binomial_table,
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


def dense(pmf, last):
    """The probabilities of ``pmf`` at tau = 0..last, zero off its points."""
    full = np.zeros(last + 1)
    full[pmf.times] = pmf.probs
    return full


def capped_rest(step, grid, cog_index, cap_factor):
    """The rest law from ``cog_index`` at its ``rest_caps`` truncation point."""
    return rest_pmf(step, grid, cog_index, rest_caps(step, grid, cap_factor)[cog_index])


def _beta_binomial_pmf(mean, dispersion, support):
    """The beta-binomial service law at one level, built alone: the
    reference each row of ``service_pmf``'s table must equal bit for bit."""
    n = support - 1
    p = (mean - 1.0) / n
    alpha = dispersion * p
    beta = dispersion * (1.0 - p)
    k = np.arange(n, dtype=np.float64)
    log_ratio = np.log((n - k) * (k + alpha) / ((k + 1.0) * (n - k - 1.0 + beta)))
    mode = int(np.argmax(np.concatenate(([0.0], np.cumsum(log_ratio)))))
    below = -np.cumsum(log_ratio[:mode][::-1])[::-1]
    probs = np.exp(np.concatenate((below, [0.0], np.cumsum(log_ratio[mode:]))))
    probs = probs / probs.sum()
    return SojournPMF(times=np.arange(1, support + 1), probs=probs)


def _neg_binomial_pmf(mean, shape, support):
    """The neg-binomial service law at one level, built alone (the
    reference of ``service_pmf``'s table)."""
    r = int(shape)
    if mean <= r:
        raise SupportTooSmallError(
            f"neg-binomial shape {r} needs a target mean above {r}"
        )
    p = r / mean
    ks = np.arange(r, support + 1)
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


def per_level_service_pmf(family, grid, cog_index, action):
    """The service law at one level and fidelity, built alone, with the
    same refusals in the same order as one row of ``service_pmf``."""
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


def table_row(build, mean, dispersion, support):
    """The one-row table of ``build`` at ``mean``, as a law, and its row's
    mass beyond the support (0 for the beta-binomial)."""
    times, probs, tails = build(np.array([mean]), dispersion, support)
    return SojournPMF(times=times, probs=probs[0]), tails[0]


def assert_same_law(pmf, expected):
    """Bit-identical laws: the same points, probabilities and moments."""
    assert np.array_equal(pmf.times, expected.times)
    assert np.array_equal(pmf.probs, expected.probs)
    assert pmf.mean == expected.mean
    assert pmf.second_moment == expected.second_moment
    assert pmf.variance == expected.variance
    assert pmf.truncated_mass == expected.truncated_mass


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
        with pytest.raises(ValueError, match=", not 1$"):
            SojournPMF(times=np.array([1, 2]), probs=np.array([0.0, 0.0]))

    def test_rejects_times_that_are_not_integers(self):
        # a cast to int64 would truncate them to [1, 2], a law of mean 1.5
        with pytest.raises(ValueError, match="^sojourn times must be integers$"):
            SojournPMF(times=np.array([1.5, 2.7]), probs=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="^sojourn times must be integers$"):
            SojournPMF(times=np.array([1.0, np.nan]), probs=np.array([0.5, 0.5]))

    def test_integer_valued_float_times_load(self):
        pmf = SojournPMF(times=np.array([1.0, 3.0]), probs=np.array([0.75, 0.25]))
        assert pmf.times.dtype == np.int64
        assert pmf.times.tolist() == [1, 3]

    def test_sum_is_printed_as_a_plain_number(self):
        with pytest.raises(ValueError, match="^sojourn probabilities sum to inf, not 1$"):
            SojournPMF(times=np.array([1, 2]), probs=np.array([np.inf, 0.5]))

    def test_leaves_the_callers_arrays_writable(self):
        times, probs = np.array([1, 3]), np.array([0.75, 0.25])
        pmf = SojournPMF(times=times, probs=probs)
        assert times.flags.writeable and probs.flags.writeable
        times[0], probs[0] = 2, 0.5
        assert pmf.times.tolist() == [1, 3]
        assert pmf.probs.tolist() == [0.75, 0.25]

    def test_keeps_only_the_positive_points(self):
        pmf = SojournPMF(times=np.array([1, 2, 3, 5]), probs=np.array([0.0, 0.75, 0.0, 0.25]))
        assert pmf.times.tolist() == [2, 5]
        assert pmf.probs.tolist() == [0.75, 0.25]
        assert not pmf.times.flags.writeable
        assert not pmf.probs.flags.writeable
        assert pmf.mean == pytest.approx(0.75 * 2 + 0.25 * 5, abs=1e-15)

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
        probs = dense(pmf, pmf.times[-1])
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[4] == pytest.approx(0.5**4, abs=1e-12)
        assert pmf.mean == pytest.approx(2.0, abs=1e-9)
        assert pmf.second_moment == pytest.approx(6.0, abs=1e-8)

    def test_two_levels_is_sum_of_geometrics(self):
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=4, cap_factor=50)
        probs = dense(pmf, pmf.times[-1])
        assert probs[1] == 0.0  # two steps down take at least two ticks
        assert probs[2] == pytest.approx(0.25, abs=1e-12)
        assert pmf.mean == pytest.approx(4.0, abs=1e-9)
        # sum of two independent geometric(1/2): variance 2 + 2
        assert pmf.variance == pytest.approx(4.0, abs=1e-8)

    def test_support_skips_the_leading_zero(self):
        step = build_step_matrix(self.GRID, pure_down_rest_rates(0.5), Action.REST)
        pmf = capped_rest(step, self.GRID, cog_index=4, cap_factor=50)
        assert pmf.times[0] == 2
        assert (pmf.probs > 0).all()

    def test_mean_matches_linear_solve(self):
        grid = CogGrid(n_intervals=6, star_index=3)
        rates = ChainRates(probs=step_probs(0.8))
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
        for a in (Action.NORMAL, Action.HIGH):
            laws = service_pmf(self.FAMILY, self.GRID, a)
            assert len(laws) == self.GRID.n_levels
            for cog, pmf in enumerate(laws):
                target = self.FAMILY.target_mean(
                    self.GRID.level(cog), self.GRID.star_level, a
                )
                assert pmf.mean == pytest.approx(target, abs=1e-9)
                assert pmf.times[0] == 1
                assert pmf.times[-1] == 100

    def test_high_fidelity_slower_with_more_spread(self):
        normal = service_pmf(self.FAMILY, self.GRID, Action.NORMAL)
        high = service_pmf(self.FAMILY, self.GRID, Action.HIGH)
        for n, h in zip(normal, high, strict=True):
            assert h.mean > n.mean
            assert h.second_moment > n.second_moment

    def test_variance_dips_at_resting_level(self):
        variances = [pmf.variance for pmf in service_pmf(self.FAMILY, self.GRID, Action.NORMAL)]
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
        # the first level whose mean passes the cap (20 + 80 * 0.36 at level 0)
        with pytest.raises(SupportTooSmallError, match="^target mean 48.800 exceeds support cap 20"):
            service_pmf(cramped, self.GRID, Action.HIGH)

    def test_only_fidelity_actions(self):
        with pytest.raises(ValueError):
            service_pmf(self.FAMILY, self.GRID, Action.SKIP)

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


WIDE_STATE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "wide_state.yaml")
SHIPPED = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]


def per_level_laws(family, grid, action):
    """Each level's law built alone, in level order, up to the first level
    refused, and that level's error (None if every level builds)."""
    laws = []
    for cog in range(grid.n_levels):
        try:
            laws.append(per_level_service_pmf(family, grid, cog, action))
        except (SupportTooSmallError, TailMassError) as error:
            return laws, error
    return laws, None


class TestServiceTable:
    """Every row of ``service_pmf``'s table equals the law built alone at
    its level bit for bit, as the rest ladder equals its per-step loop, and
    the table is refused with the first failing level's error."""

    @pytest.mark.parametrize("action", [Action.NORMAL, Action.HIGH])
    @pytest.mark.parametrize("name", SHIPPED + ["wide_state"])
    def test_shipped_rows_match_per_level_laws(self, name, action):
        params = resolve_config(WIDE_STATE if name == "wide_state" else name).model_params()
        laws = service_pmf(params.service, params.grid, action)
        assert len(laws) == params.grid.n_levels
        for cog, pmf in enumerate(laws):
            assert_same_law(pmf, per_level_service_pmf(params.service, params.grid, cog, action))

    def test_a_tail_that_underflows_is_dropped_as_alone(self):
        family = ServiceFamily(
            base_mean={Action.NORMAL: 1.0 + 0.6 * 2998, Action.HIGH: 2000.0},
            curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
            dispersion=8000.0,
            support=3000,
        )
        grid = CogGrid(n_intervals=2, star_index=1)
        for cog, pmf in enumerate(service_pmf(family, grid, Action.NORMAL)):
            assert pmf.times[0] > 1 and pmf.times[-1] < 3000
            assert_same_law(pmf, per_level_service_pmf(family, grid, cog, Action.NORMAL))

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(["beta-binomial", "neg-binomial"]),
        base=st.floats(min_value=1.01, max_value=200.0),
        gap=st.floats(min_value=0.1, max_value=50.0),
        curvature=st.floats(min_value=0.0, max_value=500.0),
        dispersion=st.floats(min_value=1e-3, max_value=1e4),
        shape=st.integers(min_value=1, max_value=12),
        support=st.integers(min_value=3, max_value=3000),
        intervals=st.integers(min_value=2, max_value=12),
        star_share=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(name="beta-binomial", base=1.0 + 0.6 * 2998, gap=1.0, curvature=0.0,
             dispersion=8000.0, shape=1, support=3000, intervals=2, star_share=0.5)
    # a shape past the support refuses every level before any row is built
    @example(name="neg-binomial", base=4.0, gap=1.0, curvature=0.0,
             dispersion=1.0, shape=10, support=8, intervals=2, star_share=0.5)
    def test_rows_match_per_level_laws(self, name, base, gap, curvature, dispersion,
                                       shape, support, intervals, star_share):
        family = ServiceFamily(
            base_mean={Action.NORMAL: base, Action.HIGH: base + gap},
            curvature={Action.NORMAL: curvature, Action.HIGH: 1.5 * curvature},
            dispersion=shape if name == "neg-binomial" else dispersion,
            support=support,
            family=name,
        )
        star = min(max(round(star_share * intervals), 1), intervals - 1)
        grid = CogGrid(n_intervals=intervals, star_index=star)
        for action in (Action.NORMAL, Action.HIGH):
            expected, error = per_level_laws(family, grid, action)
            if error is not None:
                with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                    service_pmf(family, grid, action)
                continue
            laws = service_pmf(family, grid, action)
            assert len(laws) == len(expected)
            for pmf, alone in zip(laws, expected):
                assert_same_law(pmf, alone)


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
    pmf, _ = table_row(_beta_binomial_table, mean, dispersion, support)
    # a tail that underflows to zero is dropped; compare on all of {1..support}
    assert np.abs(dense(pmf, support)[times] - probs).max() <= 1e-11


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
    pmf, _ = table_row(_beta_binomial_table, mean, dispersion, support)
    expected = mpmath_beta_binomial(mean, dispersion, support)
    assert np.abs(dense(pmf, support)[1:] - expected).max() <= 1e-15


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
    pmf, own_tail = table_row(_neg_binomial_table, mean, shape, support)
    if tail > TRUNCATION_TOL:
        # the tail service_pmf refuses with TailMassError
        assert own_tail > TRUNCATION_TOL
        return
    # a tail that underflows to zero is dropped; compare on all of {shape..support}
    assert pmf.times[0] >= shape
    assert np.abs(dense(pmf, support)[times] - probs).max() <= 1e-14
    assert abs(max(own_tail, 0.0) - max(tail, 0.0)) <= 1e-13


def test_neg_binomial_refuses_a_first_point_below_the_normal_range():
    # shape 2000 at mean 4000: p^r = 0.5^2000, which no float holds, and the
    # running product from it would lose every digit
    family = ServiceFamily(
        base_mean={Action.NORMAL: 4000.0, Action.HIGH: 4001.0},
        curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
        dispersion=2000,
        support=10_000,
        family="neg-binomial",
    )
    with pytest.raises(SupportTooSmallError, match="underflows p\\^r"):
        service_pmf(family, CogGrid(n_intervals=2, star_index=1), Action.NORMAL)


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
        pmf = service_pmf(self.family(), self.GRID, Action.NORMAL)[2]
        assert pmf.times[0] == 3  # the shape shifts the support
        assert pmf.mean == pytest.approx(6.0, abs=1e-5)

    def test_transform_matches_generating_function(self):
        # tau = r + NB(r, p) with p = r/mean, so E[gamma^tau] is
        # (gamma * p / (1 - (1-p)*gamma))^r; here r=3, mean 6, gamma=1/2
        # gives exactly (1/3)^3.
        pmf = service_pmf(self.family(), self.GRID, Action.NORMAL)[2]
        assert transform(pmf, 0.5) == pytest.approx((1 / 3) ** 3, abs=1e-9)

    def test_cramped_support_raises_tail_error(self):
        with pytest.raises(TailMassError):
            service_pmf(self.family(support=12), self.GRID, Action.NORMAL)

    def test_mean_at_or_below_shape_raises(self):
        fam = ServiceFamily(
            base_mean={Action.NORMAL: 2.5, Action.HIGH: 10.0},
            curvature={Action.NORMAL: 0.0, Action.HIGH: 0.0},
            dispersion=3.0,
            support=400,
            family="neg-binomial",
        )
        with pytest.raises(SupportTooSmallError):
            service_pmf(fam, self.GRID, Action.NORMAL)


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
    pmf = service_pmf(family, grid, Action.NORMAL)[1]
    assert transform(pmf, gamma) >= gamma**pmf.mean - 1e-12
