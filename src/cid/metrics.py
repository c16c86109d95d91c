"""Confidence-in-decision metrics: interval overlap, the general metric, and
the cost-based metric for threshold-rule proportion estimates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class CostParams:
    """Analyst-set unit costs for over- and under-intervention.

    a: cost per 1% of resources spent unnecessarily on intervention.
    b: cost per 1% of the target population left above the threshold.
    threshold: the proportion above which the rule says intervene.
    """

    a: float
    b: float
    threshold: float = 0.20

    def __post_init__(self):
        for field in ("a", "b"):
            cost = getattr(self, field)
            if not 0.0 <= cost < np.inf:  # NaN included
                raise InputError(field, f"cost {field} must be finite and "
                                        f"nonnegative, got {cost}")
        if self.a == 0 and self.b == 0:
            raise InputError("b", "costs a and b must not both be zero")
        if not (0.0 < self.threshold < 1.0):
            raise InputError("threshold", f"threshold must be in (0, 1), got "
                                          f"{self.threshold}")


def _check(ok, values, message: str) -> None:
    """Raise ValueError(message.format(v)) for the first entry v of values
    where ok is False; ok and values broadcast together."""
    ok, values = np.broadcast_arrays(ok, values)
    if not ok.all():
        raise ValueError(message.format(values[~ok][0]))


def interval_overlaps(ref_lower: float, ref_upper: float, lower, upper) -> np.ndarray:
    """Overlap of the reference interval with each interval (bounds given as
    numbers or arrays): the mean of the two intersection-length ratios.

    1 for identical intervals, 0 for disjoint ones. Zero-width inputs resolve
    by continuity: identical point intervals give 1, anything else 0.
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
    same_point = (ref_lower == ref_upper) & (lower == upper)
    j = np.where((ref_width == 0.0) | (width == 0.0),
                 np.where(same_point, 1.0, 0.0), j)
    return np.where(hi < lo, 0.0, j)


def cid_general(d_t, j_t):
    """D_t * (1 + J_t) for numbers or arrays: 0 where the decision changed,
    else in [1, 2]."""
    d_t = np.asarray(d_t)
    j_t = np.asarray(j_t, dtype=float)
    _check(np.isin(d_t, (0, 1)), d_t, "d_t must be 0 or 1, got {}")
    _check((0.0 <= j_t) & (j_t <= 1.0), j_t, "j_t must be in [0, 1], got {}")
    return d_t * (1.0 + j_t)


def max_cost(theta_ref, params: CostParams, theta_wc: float):
    """Largest attainable cost (for a number or an array of reference
    estimates) up to the worst case theta_wc; it normalizes the metric."""
    if not (params.threshold < theta_wc <= 1.0):
        raise InputError("threshold", f"need threshold < theta_wc <= 1, got "
                                      f"threshold={params.threshold}, "
                                      f"theta_wc={theta_wc}")
    return np.maximum(
        (theta_ref - params.threshold) * params.a,
        (theta_wc - np.maximum(theta_ref, params.threshold)) * params.b,
    )


def cid_lead(theta_ref, theta_t, d_t, params: CostParams, theta_wc: float):
    """Cost-based confidence metric in [0, 1] for a threshold intervention
    rule; each argument but params and theta_wc is a number or an array.

    theta_ref is the reference estimate; theta_t the estimate under departure t.
    When the reference says intervene, overestimation wastes resources (cost a
    per 1%, capped at the spend down to the threshold) and underestimation
    leaves the target unmet (cost b per 1%). When the reference says don't
    intervene, cost accrues only if the decision flips (d_t = 0).
    """
    theta_ref = np.asarray(theta_ref, dtype=float)
    theta_t = np.asarray(theta_t, dtype=float)
    d_t = np.asarray(d_t)
    _check((0.0 <= theta_ref) & (theta_ref <= 1.0), theta_ref,
           "theta_ref must be in [0, 1], got {}")
    _check(~(theta_t > theta_wc), theta_t,
           f"theta_t = {{}} exceeds worst case theta_wc = {theta_wc}")
    _check(np.isin(d_t, (0, 1)), d_t, "d_t must be 0 or 1, got {}")
    c = max_cost(theta_ref, params, theta_wc)
    if np.any(c == 0.0):  # only a zero cost leaves no outcome with a cost
        raise InputError("a" if params.a == 0 else "b",
                         "degenerate scaling: maximum attainable cost is zero")
    threshold = params.threshold
    cost = np.where(
        theta_ref > threshold,
        np.where(theta_ref >= theta_t,
                 np.minimum(theta_ref - threshold, theta_ref - theta_t) * params.a,
                 (theta_t - theta_ref) * params.b),
        (1 - d_t) * (theta_t - threshold) * params.b)
    return 1.0 - cost / c
