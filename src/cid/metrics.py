"""Confidence-in-decision metrics: interval overlap, the general metric, and
the cost-based metric for threshold-rule proportion estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regression import Interval


@dataclass(frozen=True)
class CostParams:
    """Analyst-set unit costs for over- and under-intervention.

    a: cost per 1% of resources spent unnecessarily on intervention.
    b: cost per 1% of the target population left above the threshold.
    theta_wc: worst-case proportion if every unobserved unit were above the cutoff.
    """

    a: float
    b: float
    theta_wc: float
    threshold: float = 0.20

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("cost parameters a, b must be nonnegative")
        if self.a == 0 and self.b == 0:
            raise ValueError("cost parameters a and b must not both be zero")
        if not (self.threshold < self.theta_wc <= 1.0):
            raise ValueError(
                f"need threshold < theta_wc <= 1, got "
                f"threshold={self.threshold}, theta_wc={self.theta_wc}"
            )


def interval_overlap(first: Interval, second: Interval) -> float:
    """Overlap statistic in [0, 1]: mean of the two intersection-length ratios.

    1 for identical intervals, 0 for disjoint ones. Zero-width inputs resolve
    by continuity: identical point intervals give 1, anything else 0.
    """
    lo = max(first.lower, second.lower)
    hi = min(first.upper, second.upper)
    if hi < lo:
        return 0.0
    if first.width == 0.0 or second.width == 0.0:
        same_point = (first.lower == first.upper == second.lower == second.upper)
        return 1.0 if same_point else 0.0
    overlap = hi - lo
    j = 0.5 * (overlap / first.width + overlap / second.width)
    return min(max(j, 0.0), 1.0)


def interval_overlaps(ref_lower: float, ref_upper: float, lower, upper) -> np.ndarray:
    """interval_overlap(reference, interval i) for arrays of interval bounds.

    Follows the scalar form step by step: the same max/min tie rules, the
    same hi < lo and zero-width branches, and the same clamp.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    lo = np.where(lower > ref_lower, lower, ref_lower)
    hi = np.where(upper < ref_upper, upper, ref_upper)
    ref_width = ref_upper - ref_lower
    width = upper - lower
    overlap = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        j = 0.5 * (overlap / ref_width + overlap / width)
    j = np.where(0.0 > j, 0.0, j)
    j = np.where(1.0 < j, 1.0, j)
    same_point = (ref_lower == ref_upper) & (ref_upper == lower) & (lower == upper)
    j = np.where((ref_width == 0.0) | (width == 0.0),
                 np.where(same_point, 1.0, 0.0), j)
    return np.where(hi < lo, 0.0, j)


def cid_general(d_t: int, j_t: float) -> float:
    """D_t * (1 + J_t): 0 when the decision changed, else in [1, 2]."""
    if d_t not in (0, 1):
        raise ValueError(f"d_t must be 0 or 1, got {d_t}")
    if not (0.0 <= j_t <= 1.0):
        raise ValueError(f"j_t must be in [0, 1], got {j_t}")
    return d_t * (1.0 + j_t)


def worst_case_theta(observed_high_count: int, n_observed: int, n_total: int) -> float:
    """Proportion above the cutoff if every unobserved unit were above it."""
    if not (0 <= observed_high_count <= n_observed <= n_total) or n_total == 0:
        raise ValueError(
            f"need 0 <= observed_high_count <= n_observed <= n_total, got "
            f"({observed_high_count}, {n_observed}, {n_total})"
        )
    return (observed_high_count + (n_total - n_observed)) / n_total


def max_cost(theta_ref: float, params: CostParams) -> float:
    """Largest attainable cost, used to normalize the metric to [0, 1]."""
    return max(
        (theta_ref - params.threshold) * params.a,
        (params.theta_wc - max(theta_ref, params.threshold)) * params.b,
    )


def cid_lead(theta_ref: float, theta_t: float, d_t: int, params: CostParams) -> float:
    """Cost-based confidence metric in [0, 1] for a threshold intervention rule.

    theta_ref is the reference estimate; theta_t the estimate under departure t.
    When the reference says intervene, overestimation wastes resources (cost a
    per 1%, capped at the spend down to the threshold) and underestimation
    leaves the target unmet (cost b per 1%). When the reference says don't
    intervene, cost accrues only if the decision flips (d_t = 0).
    """
    if not (0.0 <= theta_ref <= 1.0):
        raise ValueError(f"theta_ref must be in [0, 1], got {theta_ref}")
    if theta_t > params.theta_wc:
        raise ValueError(
            f"theta_t = {theta_t} exceeds worst case theta_wc = {params.theta_wc}"
        )
    if d_t not in (0, 1):
        raise ValueError(f"d_t must be 0 or 1, got {d_t}")
    c = max_cost(theta_ref, params)
    if c == 0.0:
        raise ValueError("degenerate scaling: maximum attainable cost is zero")
    if theta_ref > params.threshold:
        if theta_ref >= theta_t:
            cost = min(theta_ref - params.threshold, theta_ref - theta_t) * params.a
        else:
            cost = (theta_t - theta_ref) * params.b
    else:
        cost = (1 - d_t) * (theta_t - params.threshold) * params.b
    return 1.0 - cost / c
