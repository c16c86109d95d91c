"""Knob sweeps over t: build CID curves, detect decision change points,
summarize plausible regions, and average CID under a knob distribution."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .decisions import (ELECTION_DECISIONS, ThresholdRule,
                        decide_election_codes, decide_intervention,
                        decision_indicator)
from .imputation import (ImputationConfig, LeadPopulation, MnarMechanism,
                         impute_theta_grid)
from .metrics import CostParams, cid_lead, interval_overlaps
from .regression import MEAN_RESPONSE, FittedLine, Interval, predict_intervals


@dataclass(frozen=True)
class KnobGrid:
    """Evenly spaced knob values built symmetrically around the reference t0."""

    t_min: float
    t_max: float
    step: float
    t0: float = 0.0

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not (self.t_min <= self.t0 <= self.t_max):
            raise ValueError(
                f"need t_min <= t0 <= t_max, got ({self.t_min}, {self.t0}, {self.t_max})"
            )

    def values(self) -> np.ndarray:
        """Grid points t0 + k*step inside [t_min, t_max]; always contains t0."""
        eps = 1e-9 * self.step
        k_lo = int(np.floor((self.t0 - self.t_min) / self.step + eps))
        k_hi = int(np.floor((self.t_max - self.t0) / self.step + eps))
        return self.t0 + self.step * np.arange(-k_lo, k_hi + 1)

    def index_of_t0(self) -> int:
        eps = 1e-9 * self.step
        return int(np.floor((self.t0 - self.t_min) / self.step + eps))


@dataclass(frozen=True)
class CurvePoint:
    t: float
    estimate: float
    interval: Optional[Interval]
    decision: object
    d_t: int
    j_t: Optional[float]
    cid: float


@dataclass(frozen=True)
class CidCurve:
    """Swept points in grid order; a lead curve also carries the mean
    completed frequencies of every point, shape (T, K)."""

    points: tuple
    change_points: tuple
    reference_decision: object
    completed_freqs: Optional[np.ndarray] = field(default=None, compare=False)

    def ts(self) -> np.ndarray:
        return np.array([p.t for p in self.points])

    def cids(self) -> np.ndarray:
        return np.array([p.cid for p in self.points])

    def index_nearest(self, t: float) -> int:
        return int(np.argmin(np.abs(self.ts() - t)))

    def point_nearest(self, t: float) -> CurvePoint:
        return self.points[self.index_nearest(t)]

    @property
    def step(self) -> float:
        ts = self.ts()
        return float(np.min(np.diff(ts))) if len(ts) > 1 else 0.0


@dataclass(frozen=True)
class PlausibleRegion:
    """Analyst-specified realistic range of knob values."""

    lower: float
    upper: float
    rationale: str = ""

    def __post_init__(self):
        if not (self.lower < self.upper):
            raise ValueError(f"need lower < upper, got ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class KnobDistribution:
    """Discrete distribution on knob values for expected-CID summaries."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @classmethod
    def from_weights(cls, support, weights) -> "KnobDistribution":
        w = np.asarray(weights, dtype=float)
        return cls(tuple(float(t) for t in support), tuple(w / w.sum()))


def _change_points(ts, decisions):
    """Grid-adjacent (t_low, t_high) pairs where the decision differs."""
    brackets = []
    for i in range(len(ts) - 1):
        if decisions[i] != decisions[i + 1]:
            brackets.append((float(ts[i]), float(ts[i + 1])))
    return tuple(brackets)


def sweep_election(fit: FittedLine, x0: float, grid: KnobGrid,
                   level: float = 0.95, kind: str = MEAN_RESPONSE) -> CidCurve:
    """Sweep additive measurement error t, comparing each perturbed interval
    and decision against the reference at t0.

    The whole grid is evaluated as arrays: predict_intervals builds every
    interval from one Student-t quantile, and the decisions, d_t, overlaps
    and CID follow decide_election, decision_indicator, interval_overlap and
    cid_general element by element. The grid contains t0 exactly, so the
    reference is its row.
    """
    ts = grid.values()
    center, lower, upper = predict_intervals(fit, x0 + ts, level, kind)
    i0 = grid.index_of_t0()
    codes = decide_election_codes(lower, upper)
    d_t = (codes == codes[i0]).astype(int)
    j_t = interval_overlaps(lower[i0], upper[i0], lower, upper)
    cid = d_t * (1.0 + j_t)
    decisions = [ELECTION_DECISIONS[k] for k in codes.tolist()]
    points = tuple(
        CurvePoint(t=t, estimate=c,
                   interval=Interval(lower=lo, upper=hi, level=level, center=c),
                   decision=decision, d_t=d, j_t=j, cid=v)
        for t, c, lo, hi, decision, d, j, v in zip(
            ts.tolist(), center.tolist(), lower.tolist(), upper.tolist(),
            decisions, d_t.tolist(), j_t.tolist(), cid.tolist()))
    return CidCurve(points=points,
                    change_points=_change_points(ts, decisions),
                    reference_decision=decisions[i0])


def sweep_lead(pop: LeadPopulation, mech: MnarMechanism, grid: KnobGrid,
               cfg: ImputationConfig, rule: ThresholdRule,
               costs: CostParams) -> CidCurve:
    """Sweep MNAR tilt strength t against the MAR reference at t0.

    The whole grid is imputed in one common-random-numbers pass
    (impute_theta_grid): every grid point reuses the same per-imputation
    substreams, so the estimate curve is smooth in t, and each point is
    byte-identical to imputing it alone, in any evaluation order. The grid
    contains t0 exactly, so the reference estimate is its row. The curve
    carries every point's mean completed frequencies.
    """
    ts = grid.values()
    thetas, freqs = impute_theta_grid(pop, mech, ts, cfg)
    theta_ref = thetas[grid.index_of_t0()]
    ref_decision = decide_intervention(theta_ref, rule)
    points = []
    for t, theta_t in zip(ts, thetas):
        decision = decide_intervention(theta_t, rule)
        d_t = decision_indicator(ref_decision, decision)
        points.append(CurvePoint(t=float(t), estimate=theta_t, interval=None,
                                 decision=decision, d_t=d_t, j_t=None,
                                 cid=cid_lead(theta_ref, theta_t, d_t, costs)))
    return CidCurve(points=tuple(points),
                    change_points=_change_points(ts, [p.decision for p in points]),
                    reference_decision=ref_decision, completed_freqs=freqs)


def expected_cid(curve: CidCurve, dist: KnobDistribution) -> float:
    """Weighted average of the curve's CID over the distribution's support.

    Each support point snaps to the nearest grid point; points farther than
    half a grid step from the grid are rejected.
    """
    ts = curve.ts()
    half_step = curve.step / 2.0 if len(ts) > 1 else 0.0
    total = 0.0
    for t, w in zip(dist.support, dist.weights):
        i = int(np.argmin(np.abs(ts - t)))
        if abs(ts[i] - t) > half_step + 1e-12:
            raise ValueError(
                f"support off grid: t = {t} is farther than step/2 from any grid point"
            )
        total += w * curve.points[i].cid
    return total


@dataclass(frozen=True)
class RegionSummary:
    min_cid: Optional[float]
    max_cid: Optional[float]
    change_points_inside: tuple
    n_points: int

    @property
    def empty(self) -> bool:
        return self.n_points == 0

    @property
    def has_change_point(self) -> bool:
        return len(self.change_points_inside) > 0


def annotate_plausible_region(curve: CidCurve,
                              region: PlausibleRegion) -> RegionSummary:
    """Min/max CID over the grid points inside the region, and any decision
    change brackets overlapping it."""
    inside = [p for p in curve.points if region.lower <= p.t <= region.upper]
    if not inside:
        warnings.warn("plausible region contains no grid points", stacklevel=2)
        return RegionSummary(None, None, (), 0)
    cids = [p.cid for p in inside]
    brackets = tuple(
        (lo, hi) for lo, hi in curve.change_points
        if hi >= region.lower and lo <= region.upper
    )
    return RegionSummary(min(cids), max(cids), brackets, len(inside))
