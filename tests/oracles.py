"""Independent scalar forms of the decision, metric and imputation rules,
and the argparse reading of the command line.

The library implements each rule once, over arrays; these are per-value
forms written with Python comparisons, branches and loops, kept here as
the oracle the array forms are tested against.
"""

import argparse
import bisect
import contextlib
import io
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from cid.imputation import _tilt_levels, substream
from cid.streams import UNIFORMS


@dataclass(frozen=True)
class Interval:
    """A closed interval, the input of the interval oracles below."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        return self.upper - self.lower


def decide_election(interval, boundary: float = 50.0) -> str:
    """Three-way call from a vote-share interval, as its CSV label.

    Ties at the boundary count as Unclear: an interval touching the boundary
    carries maximal uncertainty about the winner.
    """
    if boundary < interval.lower:
        return "incumbent"
    if interval.upper < boundary:
        return "challenger"
    return "unclear"


def decide_intervention(theta_hat: float, threshold: float) -> str:
    """Two-way call from an estimated proportion, as its CSV label; strict >
    at the threshold."""
    if not (0.0 <= theta_hat <= 1.0):
        raise ValueError(f"theta_hat must be in [0, 1], got {theta_hat}")
    if theta_hat > threshold:
        return "intervene"
    return "no-intervene"


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

    Round m draws from substream(seed, m) by index. Its gamma variates at
    indices 0, ..., K - 1, of shapes 1 + n_k, normalized, are the Dirichlet
    posterior draw; those at K, K + 1, ... are n // cell gamma spacings of
    shape cell and a last one of shape n + 1 - cell * (n // cell), whose
    normalized partial sums are every
    cell-th order statistic of the n missing units' uniforms. The units at
    or below the cutoff are those below the cell holding q = P_t(level <=
    cutoff), plus a binomial quantile, for the units inside that cell, of
    the uniform at the cell's index in the UNIFORMS family. The completed
    frequencies are their expectation given the tilted posterior and that
    count: the units on each side of the cutoff spread over its levels in
    proportion to the tilted posterior; a side with no units adds nothing.
    """
    n, c, k = pop.n_missing, pop.cutoff_level, pop.k
    observed = pop.counts_array()
    theta_sum = 0.0
    freq_sum = np.zeros(k)
    for m in range(cfg.m):
        rng = substream(cfg.seed, m)
        g = rng.gammas(1.0 + observed)
        p = g / g.sum()
        p_t = _tilt_levels(p, mech.as_array(), np.array([float(t)]))[:, 0]
        low = math.fsum(p_t[:c].tolist())
        q = low / (low + math.fsum(p_t[c:].tolist()))
        b = n // cell
        spacings = rng.gammas([cell] * b + [n + 1 - cell * b],
                              range(k, k + b + 1))
        sums = list(accumulate(spacings.tolist()))
        edges = [0.0] + [s / sums[-1] for s in sums[:-1]] + [1.0]
        j = bisect.bisect_right(edges, q) - 1
        if j == b + 1:  # q == 1 on the top edge
            j = b
        lo, hi = edges[j], edges[j + 1]
        r = (q - lo) / (hi - lo) if q < hi else 1.0
        inside = cell - 1 if j < b else n - cell * b
        (u,) = rng.random(UNIFORMS, [j])
        below = cell * j + binomial_quantile(inside, r, u)
        theta_sum += (pop.observed_high_count + n - below) / pop.n_total
        imputed = []
        for count, probs in ((below, p_t[:c]), (n - below, p_t[c:])):
            imputed.extend(probs * (count / probs.sum()) if count
                           else [0.0] * len(probs))
        freq_sum += (observed + np.array(imputed)) / pop.n_total
    freq = freq_sum / cfg.m
    return (min(theta_sum / cfg.m, pop.worst_case_theta),
            freq / freq.sum())


def argparse_command_line(argv: list):
    """How an argparse parser for the CLI's usage reads argv: "help",
    "error", or (command, keyword arguments) as cid.cli.read_argv returns
    them. The oracle of read_argv, which keeps argparse's reading without
    building a parser in every run."""
    parser = argparse.ArgumentParser(prog="cid")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out-dir")
    p_run.add_argument("--grid-step", type=float)
    sub.add_parser("mechanisms")
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = vars(parser.parse_args(argv))
    except SystemExit as exit_:
        return "help" if exit_.code == 0 else "error"
    command = args.pop("command")
    return command, {key: value for key, value in args.items()
                     if value is not None}
