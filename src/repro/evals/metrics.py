"""Distribution-distance metrics for the quality-eval harness.

The harness compares a strategy's output scenes against a fixed-seed
rejection ground-truth batch, per scene property (object x/y/heading and
pairwise distances, :func:`scene_features`).  Two complementary distances
are computed per property:

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

The two-sample KS statistic (:func:`ks_statistic`) and a binned chi-square
test at a ≈1e-6 level (:func:`chi_square_two_sample` against
:func:`chi_square_quantile`) give the significance view next to these
magnitudes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..core.utils import normalize_angle
from ..core.vectors import Vector

#: One-sided normal quantile at 1e-6, for the Wilson–Hilferty chi-square
#: quantile approximation (no scipy in the toolchain).
CHI2_Z_QUANTILE = 4.7534

#: Histogram bins for :func:`chi_square_two_sample`.
CHI2_BINS = 8


def scene_features(scene) -> Dict[str, float]:
    """Per-scene marginal values: object x/y/heading + pairwise distances."""
    features: Dict[str, float] = {}
    positions = [Vector.from_any(obj.position) for obj in scene.objects]
    for index, (obj, point) in enumerate(zip(scene.objects, positions)):
        features[f"object{index}.x"] = point.x
        features[f"object{index}.y"] = point.y
        features[f"object{index}.heading"] = normalize_angle(float(obj.heading))
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            features[f"distance({i},{j})"] = positions[i].distance_to(positions[j])
    return features


def feature_columns(scenes: Sequence) -> Dict[str, List[float]]:
    """Column-major feature values over a batch of scenes."""
    columns: Dict[str, List[float]] = {}
    for scene in scenes:
        for name, value in scene_features(scene).items():
            columns.setdefault(name, []).append(value)
    return columns


def ks_statistic(first: Sequence[float], second: Sequence[float]) -> float:
    """The two-sample Kolmogorov–Smirnov statistic (max CDF distance)."""
    a = sorted(first)
    b = sorted(second)
    i = j = 0
    statistic = 0.0
    while i < len(a) and j < len(b):
        # Advance both sides through every copy of the smaller value before
        # reading the CDF gap — tied values are one step of both CDFs, and
        # evaluating mid-tie would report a spurious distance.
        value = a[i] if a[i] <= b[j] else b[j]
        while i < len(a) and a[i] <= value:
            i += 1
        while j < len(b) and b[j] <= value:
            j += 1
        statistic = max(statistic, abs(i / len(a) - j / len(b)))
    return statistic


def chi_square_two_sample(
    first: Sequence[float], second: Sequence[float], bins: int = CHI2_BINS
) -> Tuple[float, int]:
    """Binned two-sample chi-square statistic and its degrees of freedom.

    Both samples are binned over their combined range; per-bin contribution
    is ``(a_i * sqrt(m/n) - b_i * sqrt(n/m))^2 / (a_i + b_i)`` (the standard
    two-sample form, exact for unequal sample sizes).  Bins empty in both
    samples contribute nothing and no degree of freedom.
    """
    low = min(min(first), min(second))
    high = max(max(first), max(second))
    if high <= low:
        return 0.0, 0
    width = (high - low) / bins
    counts_a = [0] * bins
    counts_b = [0] * bins
    for value in first:
        counts_a[min(bins - 1, int((value - low) / width))] += 1
    for value in second:
        counts_b[min(bins - 1, int((value - low) / width))] += 1
    n, m = len(first), len(second)
    scale_a, scale_b = math.sqrt(m / n), math.sqrt(n / m)
    statistic = 0.0
    occupied = 0
    for a_count, b_count in zip(counts_a, counts_b):
        total = a_count + b_count
        if total == 0:
            continue
        occupied += 1
        statistic += (a_count * scale_a - b_count * scale_b) ** 2 / total
    return statistic, max(occupied - 1, 0)


def chi_square_quantile(df: int, z: float = CHI2_Z_QUANTILE) -> float:
    """Wilson–Hilferty approximation of the chi-square upper quantile."""
    if df <= 0:
        return float("inf")
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


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
#: is nothing distributional to compare.
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
    "chi_square_quantile",
    "chi_square_two_sample",
    "coverage_summary",
    "emd_distance",
    "feature_columns",
    "histogram_distance",
    "ks_statistic",
    "scene_features",
]
