"""Independent scalar forms of the decision and metric rules.

The library implements each rule once, over arrays; these are the
per-value bodies it replaced, written with Python comparisons and
branches, kept here as the oracle the array forms are tested against.
"""

from dataclasses import dataclass

from cid.decisions import ElectionDecision, InterventionDecision


@dataclass(frozen=True)
class Interval:
    """A closed interval, the input of the interval oracles below."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def decide_election(interval, boundary: float = 50.0) -> ElectionDecision:
    """Three-way call from a vote-share interval.

    Ties at the boundary count as Unclear: an interval touching the boundary
    carries maximal uncertainty about the winner.
    """
    if boundary < interval.lower:
        return ElectionDecision.INCUMBENT_WINS
    if interval.upper < boundary:
        return ElectionDecision.CHALLENGER_WINS
    return ElectionDecision.UNCLEAR


def decide_intervention(theta_hat: float, rule) -> InterventionDecision:
    """Two-way call from an estimated proportion; strict > at the threshold."""
    if not (0.0 <= theta_hat <= 1.0):
        raise ValueError(f"theta_hat must be in [0, 1], got {theta_hat}")
    if theta_hat > rule.threshold:
        return InterventionDecision.INTERVENE
    return InterventionDecision.DONT_INTERVENE


def interval_overlap(first, second) -> float:
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


def cid_general(d_t: int, j_t: float) -> float:
    """D_t * (1 + J_t): 0 when the decision changed, else in [1, 2]."""
    if d_t not in (0, 1):
        raise ValueError(f"d_t must be 0 or 1, got {d_t}")
    if not (0.0 <= j_t <= 1.0):
        raise ValueError(f"j_t must be in [0, 1], got {j_t}")
    return d_t * (1.0 + j_t)


def max_cost(theta_ref: float, params) -> float:
    """Largest attainable cost, used to normalize the metric to [0, 1]."""
    return max(
        (theta_ref - params.threshold) * params.a,
        (params.theta_wc - max(theta_ref, params.threshold)) * params.b,
    )


def cid_lead(theta_ref: float, theta_t: float, d_t: int, params) -> float:
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
