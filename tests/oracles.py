"""Independent scalar forms of the decision, metric and imputation rules.

The library implements each rule once, over arrays; these are per-value
forms written with Python comparisons, branches and loops, kept here as
the oracle the array forms are tested against.
"""

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from cid.decisions import ElectionDecision, InterventionDecision
from cid.imputation import _tilt_rows, draw_dirichlet_posterior, substream


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


def max_cost(theta_ref: float, params, theta_wc: float) -> float:
    """Largest attainable cost, used to normalize the metric to [0, 1]."""
    return max(
        (theta_ref - params.threshold) * params.a,
        (theta_wc - max(theta_ref, params.threshold)) * params.b,
    )


def cid_lead(theta_ref: float, theta_t: float, d_t: int, params,
             theta_wc: float) -> float:
    """Cost-based confidence metric in [0, 1] for a threshold intervention rule.

    theta_ref is the reference estimate; theta_t the estimate under departure t.
    When the reference says intervene, overestimation wastes resources (cost a
    per 1%, capped at the spend down to the threshold) and underestimation
    leaves the target unmet (cost b per 1%). When the reference says don't
    intervene, cost accrues only if the decision flips (d_t = 0).
    """
    if not (0.0 <= theta_ref <= 1.0):
        raise ValueError(f"theta_ref must be in [0, 1], got {theta_ref}")
    if theta_t > theta_wc:
        raise ValueError(
            f"theta_t = {theta_t} exceeds worst case theta_wc = {theta_wc}"
        )
    if d_t not in (0, 1):
        raise ValueError(f"d_t must be 0 or 1, got {d_t}")
    c = max_cost(theta_ref, params, theta_wc)
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


def binomial_quantile(n: int, r: float, u: float) -> int:
    """The smallest k with P(Bin(n, r) <= k) >= u, summing the pmf
    comb(n, k) r^k (1 - r)^(n - k) from k = 0; n when rounding keeps the
    sum below u."""
    cdf = 0.0
    for k in range(n + 1):
        cdf += math.comb(n, k) * r**k * (1.0 - r)**(n - k)
        if cdf >= u:
            return k
    return n


def impute_one_point(pop, mech, t: float, cfg, cell: int = 64) -> tuple:
    """The imputed fraction above the cutoff and the mean completed
    frequencies at the single knob value t, one round and one cell at a
    time: the reference for impute_theta_grid's order-statistic coupling.

    Round m draws, from substream(seed, m) after the Dirichlet posterior,
    n // cell gamma spacings of shape cell and a last one of shape
    n + 1 - cell * (n // cell), whose normalized partial sums are every
    cell-th order statistic of the n missing units' uniforms, then one
    uniform per cell. The units at or below the cutoff are those below the
    cell holding q = P_t(level <= cutoff), plus a binomial quantile of that
    cell's uniform for the units inside it. From the generator state after
    the cells, the units below and above the cutoff are spread over the
    levels by one multinomial each; a side with no units draws nothing.
    """
    n, c = pop.n_missing, pop.cutoff_level
    observed = pop.counts_array()
    theta_sum = 0.0
    freq_sum = np.zeros(pop.k)
    for m in range(cfg.m):
        rng = substream(cfg.seed, m)
        p = draw_dirichlet_posterior(pop, rng)
        p_t = _tilt_rows(p, mech.as_array(), np.array([float(t)]))[0]
        low = math.fsum(p_t[:c].tolist())
        q = low / (low + math.fsum(p_t[c:].tolist()))
        b = n // cell
        shapes = np.array([cell] * b + [n + 1 - cell * b], dtype=float)
        sums = list(accumulate(rng.standard_gamma(shapes).tolist()))
        edges = [0.0] + [s / sums[-1] for s in sums[:-1]] + [1.0]
        u = rng.random(b + 1).tolist()
        j = bisect.bisect_right(edges, q) - 1
        if j == b + 1:  # q == 1 on the top edge
            j = b
        lo, hi = edges[j], edges[j + 1]
        r = (q - lo) / (hi - lo) if q < hi else 1.0
        inside = cell - 1 if j < b else n - cell * b
        below = cell * j + binomial_quantile(inside, r, u[j])
        theta_sum += (pop.observed_high_count + n - below) / pop.n_total
        imputed = []
        for count, probs in ((below, p_t[:c]), (n - below, p_t[c:])):
            imputed.extend(rng.multinomial(count, probs / probs.sum())
                           if count else [0] * len(probs))
        freq_sum += (observed + np.array(imputed, dtype=np.int64)) / pop.n_total
    freq = freq_sum / cfg.m
    return (min(theta_sum / cfg.m, pop.worst_case_theta),
            freq / freq.sum())
