"""Distance metrics of the quality-eval harness, plus the planted-regression
selfcheck.

The metric properties are pinned two ways: Hypothesis properties for the
algebraic invariants (permutation invariance, identity, shift monotonicity,
boundedness) and fixed reference vectors computed by hand, so a refactor
that silently changes binning or normalization fails loudly.  The last test
runs the end-to-end selfcheck: a deliberately biased sampler smuggled into
the scoring path must be flagged by ``evals check``'s comparison while an
honest rerun passes — proof the CI gate can actually fire.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.evals.check import DEFAULT_TOLERANCES, compare_strategy_records
from repro.evals.metrics import (
    chi_square_quantile,
    chi_square_two_sample,
    coverage_summary,
    emd_distance,
    histogram_distance,
    ks_statistic,
)

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
samples = st.lists(values, min_size=2, max_size=60)


# ---------------------------------------------------------------------------
# Histogram (total-variation) distance properties
# ---------------------------------------------------------------------------


@given(samples)
def test_histogram_distance_zero_for_identical_samples(sample):
    assert histogram_distance(sample, list(sample)) == 0.0


@given(samples, samples, st.randoms(use_true_random=False))
def test_histogram_distance_permutation_invariant(reference, candidate, rng):
    base = histogram_distance(reference, candidate)
    shuffled_ref = list(reference)
    shuffled_cand = list(candidate)
    rng.shuffle(shuffled_ref)
    rng.shuffle(shuffled_cand)
    assert histogram_distance(shuffled_ref, shuffled_cand) == pytest.approx(base)


@given(samples, samples)
def test_histogram_distance_bounded_and_symmetric_in_zero(reference, candidate):
    distance = histogram_distance(reference, candidate)
    assert 0.0 <= distance <= 1.0


@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=2, max_size=40))
def test_histogram_distance_disjoint_supports_is_one(sample):
    shifted = [value + 100.0 for value in sample]
    assert histogram_distance(sample, shifted) == pytest.approx(1.0)


def test_histogram_distance_reference_vectors():
    # 12 evenly spread values vs 12 copies of the minimum: one shared bin.
    reference = list(range(12))
    assert histogram_distance(reference, [0.0] * 12) == pytest.approx(11 / 12)
    # Half the mass moved out of a two-bin split.
    assert histogram_distance([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.25)
    # Constant-and-equal samples have no spread and no distance.
    assert histogram_distance([3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0


def test_histogram_distance_rejects_empty():
    with pytest.raises(ValueError):
        histogram_distance([], [1.0])


# ---------------------------------------------------------------------------
# Normalized EMD properties
# ---------------------------------------------------------------------------


@given(samples)
def test_emd_zero_for_identical_samples(sample):
    assert emd_distance(sample, list(sample)) == 0.0


@given(samples, st.randoms(use_true_random=False))
def test_emd_permutation_invariant(sample, rng):
    shifted = [value + 1.5 for value in sample]
    base = emd_distance(sample, shifted)
    shuffled = list(shifted)
    rng.shuffle(shuffled)
    assert emd_distance(sample, shuffled) == pytest.approx(base)


@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=40),
    st.floats(min_value=0.001, max_value=100.0),
    st.floats(min_value=0.001, max_value=100.0),
)
@settings(max_examples=60)
def test_emd_monotone_under_shift(sample, shift, extra):
    """Shifting the candidate further from the reference never shrinks EMD."""
    near = emd_distance(sample, [value + shift for value in sample])
    far = emd_distance(sample, [value + shift + extra for value in sample])
    assert far >= near - 1e-12
    spread = max(sample) - min(sample)
    expected = shift / (spread if spread > 0 else 1.0)
    assert near == pytest.approx(expected, rel=1e-6, abs=1e-9)


def test_emd_reference_vectors():
    assert emd_distance([0, 1, 2, 3], [1, 2, 3, 4]) == pytest.approx(1 / 3)
    assert emd_distance([0.0, 10.0], [5.0, 5.0]) == pytest.approx(0.5)


def test_emd_requires_equal_sizes():
    with pytest.raises(ValueError):
        emd_distance([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# KS statistic and binned chi-square
# ---------------------------------------------------------------------------


def test_ks_statistic_reference_behaviour():
    same = [float(i) for i in range(50)]
    assert ks_statistic(same, list(same)) == pytest.approx(0.0, abs=1e-12)
    low = [float(i) for i in range(50)]
    high = [float(i) + 1000.0 for i in range(50)]
    assert ks_statistic(low, high) == pytest.approx(1.0)


def test_two_sample_tests_accept_identical_and_flag_shifted():
    rng = random.Random(12)
    base = [rng.gauss(0.0, 1.0) for _ in range(400)]
    twin = [rng.gauss(0.0, 1.0) for _ in range(400)]
    shifted = [value + 0.8 for value in twin]

    # The two-sample KS bound at a level of 1e-6: c * sqrt((n + m) / (n m))
    # with c = sqrt(-ln(1e-6 / 2) / 2).
    ks_threshold = 2.6931 * math.sqrt(2.0 / 400)
    assert ks_statistic(base, twin) < ks_threshold
    assert ks_statistic(base, shifted) > ks_threshold

    statistic, df = chi_square_two_sample(base, twin)
    assert statistic < chi_square_quantile(df)
    statistic, df = chi_square_two_sample(base, shifted)
    assert statistic > chi_square_quantile(df)


def test_chi_square_quantile_grows_with_df():
    values = [chi_square_quantile(df) for df in (1, 3, 7, 15)]
    assert values == sorted(values)
    assert values[0] > 1.0


# ---------------------------------------------------------------------------
# Coverage roll-up
# ---------------------------------------------------------------------------


def test_coverage_summary_flags_missing_property_as_worst_case():
    reference = {"object0.x": [0.0, 1.0, 2.0], "object1.x": [0.0, 1.0, 2.0]}
    candidate = {"object0.x": [0.0, 1.0, 2.0]}
    summary = coverage_summary(reference, candidate)
    assert summary["max_tv"] == 1.0
    assert summary["max_ks"] == 1.0


def test_coverage_summary_skips_deterministic_properties():
    reference = {"object0.heading": [math.pi / 2] * 10, "object0.x": [0.0, 1.0, 2.0, 3.0]}
    candidate = {"object0.heading": [math.pi / 2] * 10, "object0.x": [0.0, 1.0, 2.0, 3.0]}
    summary = coverage_summary(reference, candidate)
    assert summary["properties"] == 1  # the heading column is constant
    assert summary["max_tv"] == 0.0


# ---------------------------------------------------------------------------
# The planted-regression selfcheck (end to end)
# ---------------------------------------------------------------------------


def test_tolerance_bands_flag_synthetic_regressions():
    baseline = {
        "status": "ok",
        "acceptance_rate": 0.8,
        "candidates": 50,
        "scenes": 40,
        "coverage": {"max_tv": 0.30},
    }
    biased = {
        "status": "ok",
        "acceptance_rate": 0.8,
        "candidates": 150,  # 3x the draws: the max-of-3 signature
        "scenes": 40,
        "coverage": {"max_tv": 0.70},
    }
    problems = compare_strategy_records("s", "vectorized", biased, baseline)
    assert any("candidates" in problem for problem in problems)
    assert any("max-TV" in problem for problem in problems)
    # The honest case is clean.
    assert compare_strategy_records("s", "vectorized", dict(baseline), baseline) == []
    # A status downgrade is always a regression...
    worse = {**baseline, "status": "budget_exhausted"}
    assert compare_strategy_records("s", "vectorized", worse, baseline)
    # ...but an already-degraded baseline may stay degraded.
    assert compare_strategy_records("s", "vectorized", worse, dict(worse)) == []


def test_planted_bias_fails_evals_check():
    """The real thing: score honestly, score with the biased sampler, and
    require the gate to pass the former and fail the latter."""
    from repro.evals.selfcheck import run_selfcheck

    outcome = run_selfcheck(samples=24, max_iterations=1500)
    assert outcome["honest_problems"] == []
    assert outcome["biased_problems"], "the gate failed to flag the planted bias"
    assert outcome["passed"] is True
