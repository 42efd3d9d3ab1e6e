"""Distribution-distance metrics for the quality-eval harness.

The harness compares a strategy's output scenes against a fixed-seed
rejection ground-truth batch, per scene property (object x/y/heading and
pairwise distances — the same marginals as the fuzzer's oracle E).  Two
complementary distances are computed per property:

:func:`histogram_distance`
    Total-variation distance between the two empirical distributions after
    binning over their combined range: ``0.5 * Σ |p_i - q_i|`` with
    normalized bin masses.  0 for identical samples, 1 for disjoint
    supports.  This is the *gated* coverage metric — a biased sampler that
    systematically shifts or truncates a marginal moves it far and fast.

:func:`emd_distance`
    The empirical 1-Wasserstein (earth mover) distance for equal-size
    samples — the mean absolute difference of the sorted samples —
    normalized by the reference spread so it is scale-free.  Unlike the
    binned distance it is *exactly* monotone under shifting one sample,
    which makes it the better diagnostic number (and the property-testable
    one: shift monotonicity holds with no binning caveats).

The KS statistic and binned chi-square from PR 6's statistical-equivalence
oracle (:mod:`repro.fuzz.oracles`) are reused as-is for the significance
view; this module only adds the magnitude view on top.  The compared
properties (:func:`scene_features`, :func:`feature_columns`) come from
there too, so coverage numbers and oracle E verdicts are about the same
quantities.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..fuzz.oracles import (
    chi_square_quantile,
    chi_square_two_sample,
    feature_columns,
    ks_statistic,
    scene_features,
)

#: Bin count for :func:`histogram_distance`; coarse enough that a
#: 40-to-80-scene batch fills bins, fine enough that a half-spread shift is
#: clearly visible.
DEFAULT_BINS = 12


def histogram_distance(
    reference: Sequence[float], candidate: Sequence[float], bins: int = DEFAULT_BINS
) -> float:
    """Total-variation distance between binned empirical distributions.

    Bins span the combined range of both samples; each sample is normalized
    to unit mass, so the result is in ``[0, 1]`` regardless of sample sizes.
    Identical samples give exactly 0; samples with disjoint supports give
    exactly 1 (every bin is owned by one side).  Permutation-invariant by
    construction (only bin counts matter).
    """
    if not reference or not candidate:
        raise ValueError("histogram_distance needs non-empty samples")
    low = min(min(reference), min(candidate))
    high = max(max(reference), max(candidate))
    if high <= low:  # all values identical across both samples
        return 0.0
    width = (high - low) / bins
    if width <= 0.0:  # spread below float resolution: nothing to compare
        return 0.0
    counts_ref = [0] * bins
    counts_cand = [0] * bins
    for value in reference:
        counts_ref[min(bins - 1, int((value - low) / width))] += 1
    for value in candidate:
        counts_cand[min(bins - 1, int((value - low) / width))] += 1
    # Sum |a/n - b/m| over a common denominator in integers: summing the
    # float masses can round past 1 (e.g. 1.0000000000000002 on disjoint
    # supports), while the integer sum is at most 2nm, so the one final
    # division keeps the result exactly in [0, 1].
    n, m = len(reference), len(candidate)
    return sum(
        abs(a * m - b * n) for a, b in zip(counts_ref, counts_cand)
    ) / (2 * n * m)


def emd_distance(reference: Sequence[float], candidate: Sequence[float]) -> float:
    """Normalized empirical 1-Wasserstein distance between equal-size samples.

    ``mean(|sorted(reference) - sorted(candidate)|) / spread(reference)``
    (spread 1.0 when the reference is constant, keeping the metric finite).
    Exactly 0 for identical samples; shifting one sample by ``s`` moves the
    raw distance by exactly ``|s|`` when supports were aligned — strictly
    monotone under shift, which :mod:`tests.test_evals_metrics` pins with
    Hypothesis.
    """
    if len(reference) != len(candidate):
        raise ValueError(
            f"emd_distance needs equal-size samples ({len(reference)} vs {len(candidate)})"
        )
    if not reference:
        raise ValueError("emd_distance needs non-empty samples")
    sorted_ref = sorted(reference)
    sorted_cand = sorted(candidate)
    raw = sum(abs(a - b) for a, b in zip(sorted_ref, sorted_cand)) / len(reference)
    spread = sorted_ref[-1] - sorted_ref[0]
    return raw / (spread if spread > 0 else 1.0)


#: A property whose combined spread is below this is deterministic — there
#: is nothing distributional to compare (matches oracle E's convention).
DETERMINISTIC_SPREAD = 1e-9


def coverage_summary(
    reference_columns: Dict[str, List[float]],
    candidate_columns: Dict[str, List[float]],
) -> Dict[str, float]:
    """Distributional-coverage roll-up between two feature batches.

    Returns the max/mean total-variation histogram distance, max normalized
    EMD, max KS statistic, and the count of compared (non-deterministic)
    properties.  Properties missing from the candidate count as distance 1
    (the worst case) rather than being skipped — a sampler that drops an
    object must not look *better*.
    """
    max_tv = 0.0
    tv_sum = 0.0
    max_emd = 0.0
    max_ks = 0.0
    chi_failures = 0
    compared = 0
    for name in sorted(reference_columns):
        ref_values = reference_columns[name]
        cand_values = candidate_columns.get(name)
        if cand_values is None or not cand_values:
            max_tv = 1.0
            max_emd = 1.0
            max_ks = 1.0
            tv_sum += 1.0
            compared += 1
            continue
        spread = max(*ref_values, *cand_values) - min(*ref_values, *cand_values)
        if spread <= DETERMINISTIC_SPREAD:
            continue
        compared += 1
        tv = histogram_distance(ref_values, cand_values)
        max_tv = max(max_tv, tv)
        tv_sum += tv
        if len(cand_values) == len(ref_values):
            max_emd = max(max_emd, emd_distance(ref_values, cand_values))
        max_ks = max(max_ks, ks_statistic(ref_values, cand_values))
        chi2, df = chi_square_two_sample(ref_values, cand_values)
        if chi2 > chi_square_quantile(df):
            chi_failures += 1
    return {
        "properties": compared,
        "max_tv": max_tv,
        "mean_tv": (tv_sum / compared) if compared else 0.0,
        "max_emd": max_emd,
        "max_ks": max_ks,
        "chi_square_failures": chi_failures,
    }


__all__ = [
    "DEFAULT_BINS",
    "coverage_summary",
    "emd_distance",
    "feature_columns",
    "histogram_distance",
    "scene_features",
]
