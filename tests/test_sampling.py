"""Tests for the segmented inverse-CDF table and the laws built on it.

The guide and the draws are checked against a per-law ``np.searchsorted``
bit for bit; the model's epoch law is checked against the sojourn laws and
cognitive moves it is built from, and its arrival law against the model's
arrival pmf and tail.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from fidelityq.actions import ACTIONS
from fidelityq.config import resolve_config
from fidelityq.sampling import SegmentedCdf

CONFIGS = ["tiny", "default", "high_lambda", "skip_cheap", "large_gap"]
# the benchmark's 976-state config: the widest epoch law, 58,508 positions
# over 70 laws
WIDE_STATE = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "wide_state.yaml")


def expected_positions(cdfs, segments, u):
    """Per-law searchsorted, clamped to the law's last outcome."""
    return np.array(
        [
            min(int(np.searchsorted(cdfs[s], x, side="right")), len(cdfs[s]) - 1)
            for s, x in zip(segments, u)
        ]
    )


def reference_guide(cdfs, refine=0):
    """Each law's guide built on its own: for m, 2**refine times the largest
    power of two no larger than max(searchable entries, 1), the positions a
    per-law searchsorted gives for u = k / m, k < m, then the law's last
    position."""
    guide, start = [], 0
    for cdf in cdfs:
        m = 1 << (max(len(cdf) - 1, 1).bit_length() - 1 + refine)
        keys = np.arange(m) / m
        guide += [start + np.searchsorted(cdf[:-1], keys, side="right"), [start + len(cdf) - 1]]
        start += len(cdf)
    return np.concatenate(guide)


def assert_guide_exact(cdfs, refine=0):
    table = SegmentedCdf(np.concatenate(cdfs), [len(cdf) for cdf in cdfs], refine)
    np.testing.assert_array_equal(table.guide, reference_guide(cdfs, refine))


def assert_draws_exact(cdfs, uniforms, refine=0):
    table = SegmentedCdf(np.concatenate(cdfs), [len(cdf) for cdf in cdfs], refine)
    segments = np.repeat(np.arange(len(cdfs)), len(uniforms))
    u = np.tile(uniforms, len(cdfs))
    got = table.draw(table.guide_start[segments], table.buckets[segments], u)
    got -= table.start[segments]
    np.testing.assert_array_equal(got, expected_positions(cdfs, segments, u))


# masses with ties (zeros) and crowds of tiny outcomes next to large ones
masses = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(1e-300, 1e-9),
        st.floats(1e-9, 1.0),
    ),
    min_size=1,
    max_size=60,
)


@st.composite
def laws(draw):
    """One cdf per law: cumulative masses scaled to a total of at most 1,
    so a law's last entry may lie below 1."""
    cdfs = []
    for mass in draw(st.lists(masses, min_size=1, max_size=6)):
        mass = np.array(mass)
        total = mass.sum()
        scale = draw(st.sampled_from([1.0, 0.97, 0.5]))
        if total > 0:
            mass = mass * (scale / total)
        cdfs.append(np.cumsum(mass))
    return cdfs


@settings(max_examples=200, deadline=None)
@given(laws(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20), st.integers(0, 3))
def test_invert_equals_clamped_searchsorted(cdfs, extra, refine):
    breakpoints = np.concatenate(cdfs)
    uniforms = np.concatenate([[0.0, 1.0 - 2.0**-53], breakpoints, extra])
    assert_draws_exact(cdfs, uniforms, refine)


@settings(max_examples=200, deadline=None)
@given(laws(), st.integers(0, 3))
def test_guide_equals_per_law_searchsorted(cdfs, refine):
    # with one-outcome laws and a law of zero-mass ties
    assert_guide_exact(cdfs + [np.array([0.0]), np.array([1.0]), np.zeros(3)], refine)


def test_single_outcome_and_crowded_laws():
    # one law whose outcomes all fall in one guide bucket forces the
    # fixed-length halving search; the single-outcome law always returns 0.
    # crowded_end puts 300 outcomes in its last bucket, [255/256, 1), so a
    # draw near its end takes steps that pass its +inf last entry; unless
    # clamped there, they land in the next law, whose cdf starts at 0
    crowded = np.cumsum(np.concatenate([np.full(500, 1e-6), [0.4], np.full(300, 1e-7)]))
    crowded_end = np.concatenate([[0.5], 0.999 + 1e-6 * np.arange(1, 301), [1.0]])
    cdfs = [crowded, np.array([0.3]), np.array([1.0]), np.array([0.2, 0.2, 0.2]),
            crowded_end, np.concatenate([np.zeros(400), [1.0]])]
    near_end = 0.999 + 1e-6 * np.array([0.5, 150.5, 298.5, 299.5, 300.5])
    grid = np.random.default_rng(3).random(2000)
    assert_guide_exact(cdfs)
    assert_draws_exact(cdfs, np.concatenate([[0.0, 1.0 - 2.0**-53], crowded, near_end, grid]))


def test_many_short_laws_as_in_large_gap():
    # large_gap's arrival law: 3,200 laws of 13 outcomes, with crowded
    # tails, zero-mass ties and laws that reach 1 before their last entry
    rng = np.random.default_rng(11)
    mass = rng.random((3200, 13)) ** 8
    mass[rng.random(mass.shape) < 0.2] = 0.0
    mass[::7, 6:] = 0.0
    mass[:, 0] += 1e-300
    cdfs = list(np.cumsum(mass / mass.sum(axis=1, keepdims=True), axis=1))
    assert_guide_exact(cdfs)
    assert_draws_exact(cdfs[::53], np.concatenate([[0.0, 1.0 - 2.0**-53], rng.random(40)]))


@pytest.mark.parametrize("lengths", [[2, 0], [], [1, 2]])
def test_lengths_must_cover_the_table_with_nonempty_laws(lengths):
    with pytest.raises(ValueError, match="at least one outcome"):
        SegmentedCdf(np.array([0.5, 1.0]), lengths)


@pytest.mark.parametrize("name", CONFIGS)
def test_epoch_law_matches_sojourn_and_moves(name):
    """For every (level, action) with a sojourn law, the mass the sampler
    draws from segment j, law j of ``_sojourns``, summed over the next
    level, is the sojourn pmf, and each tau's row of mass is P(tau) times
    the oracle's ``level_rows``; outcomes are exactly the positive ones, in
    tau-major order. The last outcome takes every draw beyond the others,
    so its mass is one minus the entry before it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = resolve_config(name).build_model()
    law = model.epoch_law
    laws = list(model._sojourns)
    assert len(law.cdf.start) == len(laws)
    for cog in range(model.n_cog):
        for a in ACTIONS:
            if (cog, a) not in model._sojourns:
                continue
            pmf = model.sojourn(cog, a)
            s = laws.index((cog, a))
            positions = np.arange(law.cdf.start[s], law.cdf.end[s] + 1)
            cdf = law.cdf.table[positions]
            assert cdf[-1] == np.inf
            cdf[-1] = 1.0
            mass = np.diff(cdf, prepend=0.0)
            taus, nxt = model._taus[law.arrival_row[positions]], law.cogs[positions]
            assert np.all(np.diff(taus * model.n_cog + nxt) > 0)
            rows = np.searchsorted(pmf.times, taus)
            np.testing.assert_array_equal(pmf.times[rows], taus)
            table = np.zeros((len(pmf.times), model.n_cog))
            table[rows, nxt] = mass
            np.testing.assert_allclose(table.sum(axis=1), pmf.probs, rtol=0, atol=1e-14)
            expected = pmf.probs[:, None] * oracle.level_rows(model, a, pmf.times, cog)
            np.testing.assert_allclose(table, expected, rtol=0, atol=1e-14)
            present = np.zeros(table.shape, dtype=bool)
            present[rows, nxt] = True
            np.testing.assert_array_equal(present, expected > 0)


@pytest.mark.parametrize("name", CONFIGS + ["wide_state"])
def test_model_laws_invert_exactly_at_every_breakpoint(name):
    """Each law of the model's epoch and arrival laws takes, in one call,
    every finite entry of its cdf, the double below each, and every bucket
    boundary k / m_s, k <= m_s, and lands where a per-law searchsorted
    does. The crowded buckets (the widest holds 487 entries in
    high_lambda's epoch law and 6,192 in large_gap's) run the halving
    search, next to narrow ranges that end at a law's last entry."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = resolve_config(WIDE_STATE if name == "wide_state" else name).build_model()
    for cdf in (model.epoch_law.cdf, model.arrival_law):
        segments, uniforms, expected = [], [], []
        for s, (lo, hi) in enumerate(zip(cdf.start, cdf.end)):
            law, m = cdf.table[lo : hi + 1], int(cdf.buckets[s])
            u = np.concatenate([law[:-1], np.nextafter(law[:-1], 0.0), np.arange(m + 1) / m])
            segments.append(np.full(len(u), s))
            uniforms.append(u)
            # the last entry is +inf, so no finite draw passes it
            expected.append(lo + np.searchsorted(law, u, side="right"))
        segments, u = np.concatenate(segments), np.concatenate(uniforms)
        got = cdf.draw(cdf.guide_start[segments], cdf.buckets[segments], u)
        np.testing.assert_array_equal(got, np.concatenate(expected))


@pytest.mark.parametrize("name", CONFIGS)
def test_arrival_law_is_the_start_0_rows(name):
    """Law i of ``arrival_law`` is the next-queue row from an empty queue
    over ``taus[i]``, cumulated: row i of the model's one table of capped
    arrivals, P(W = k) below the capacity and P(W >= L) at it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = resolve_config(name).build_model()
    law = model.arrival_law
    np.testing.assert_array_equal(law.end - law.start, np.full(len(model._taus), model.n_q - 1))
    for i, row in enumerate(model._arrivals):
        cdf = law.table[law.start[i] : law.end[i] + 1]
        np.testing.assert_array_equal(cdf[:-1], np.cumsum(row)[:-1])
        assert cdf[-1] == np.inf
