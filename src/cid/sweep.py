"""Knob sweeps over t: build CID curves, detect decision change points,
summarize plausible regions, and average CID under a knob distribution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decisions import (ELECTION_DECISIONS, INTERVENTION_DECISIONS,
                        ThresholdRule, decide_election_codes,
                        decide_intervention_codes)
from .imputation import (ImputationConfig, LeadPopulation, MnarMechanism,
                         impute_theta_grid)
from .metrics import (CostParams, cid_general, cid_lead, interval_overlaps,
                      max_cost)
from .regression import MEAN_RESPONSE, FittedLine, predict_intervals


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

    def _k_range(self) -> tuple:
        """(k_lo, k_hi) as floats: the grid is t0 + k*step, -k_lo <= k <= k_hi."""
        return (np.floor((self.t0 - self.t_min) / self.step + 1e-9),
                np.floor((self.t_max - self.t0) / self.step + 1e-9))

    def values(self) -> np.ndarray:
        """Grid points t0 + k*step inside [t_min, t_max]; always contains t0."""
        k_lo, k_hi = self._k_range()
        return self.t0 + self.step * np.arange(-int(k_lo), int(k_hi) + 1)

    def index_of_t0(self) -> int:
        return int(self._k_range()[0])

    def index_on_grid(self, t: float) -> int:
        """The row of the grid point nearest t, rejecting a t farther than
        half a step from every grid point (CidCurve.index_on_grid on the
        swept curve)."""
        return _row_on_grid(self.values(), t)

    def n_points(self) -> float:
        """len(values()), computed without building the grid. A float: it
        is inf when the step is so small that the count overflows."""
        k_lo, k_hi = self._k_range()
        return float(k_lo + k_hi + 1)


def _spacing(ts: np.ndarray) -> float:
    """The grid step of the grid points ts: their smallest spacing, 0 for a
    single point."""
    return float(np.min(np.diff(ts))) if len(ts) > 1 else 0.0


def _row_on_grid(ts: np.ndarray, t: float) -> int:
    """The row of ts nearest t; a t farther than half the grid step from
    every grid point is a ValueError."""
    i = int(np.argmin(np.abs(ts - t)))
    if abs(ts[i] - t) > _spacing(ts) / 2.0 + 1e-12:
        raise ValueError(f"off grid: t = {t} is farther than step/2 from "
                         f"any grid point")
    return i


@dataclass(frozen=True, eq=False)
class CidCurve:
    """A swept CID curve as columns in grid order.

    t, estimate, codes, d_t and cid are arrays of length T. codes[i] is the
    index of point i's decision in family, the rule family's tuple of
    decisions (ELECTION_DECISIONS or INTERVENTION_DECISIONS). An election
    curve also has the interval bounds lower and upper and the overlap j_t;
    a lead curve has the grid rows of its snapshots, snapshot_rows, and
    their mean completed frequencies, shape (S, K). i0 is the row of the
    reference t0, and change_points are the grid-adjacent (t_low, t_high)
    pairs where the decision differs.
    """

    t: np.ndarray
    estimate: np.ndarray
    codes: np.ndarray
    family: tuple
    d_t: np.ndarray
    cid: np.ndarray
    change_points: tuple
    i0: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    j_t: Optional[np.ndarray] = None
    snapshot_rows: tuple = ()
    completed_freqs: Optional[np.ndarray] = None

    @property
    def decision(self) -> tuple:
        """Each point's decision, in grid order."""
        return tuple(self.family[k] for k in self.codes.tolist())

    @property
    def reference_decision(self):
        """The decision at the reference t0."""
        return self.family[self.codes[self.i0]]

    def index_nearest(self, t: float) -> int:
        return int(np.argmin(np.abs(self.t - t)))

    def index_on_grid(self, t: float) -> int:
        """index_nearest(t), rejecting a t farther than half a grid step from
        every grid point."""
        return _row_on_grid(self.t, t)

    @property
    def step(self) -> float:
        return _spacing(self.t)


def _curve(ts: np.ndarray, i0: int, estimate: np.ndarray, codes: np.ndarray,
           family: tuple, cid, **columns) -> CidCurve:
    """A curve with the reference at row i0 of the grid ts.

    codes index family; d_t marks the points whose decision equals the
    reference's, and cid maps the d_t array to the CID column. columns holds
    the study's optional columns.
    """
    d_t = (codes == codes[i0]).astype(int)
    changed = np.flatnonzero(codes[1:] != codes[:-1])
    change_points = tuple(zip(ts[changed].tolist(), ts[changed + 1].tolist()))
    return CidCurve(t=ts, estimate=estimate, codes=codes, family=family,
                    d_t=d_t, cid=np.asarray(cid(d_t), dtype=float),
                    change_points=change_points, i0=i0, **columns)


@dataclass(frozen=True)
class PlausibleRegion:
    """Analyst-specified realistic range of knob values."""

    lower: float
    upper: float

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
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")

    @classmethod
    def from_weights(cls, support, weights) -> "KnobDistribution":
        """The distribution with weights scaled to sum to 1."""
        w = np.asarray(weights, dtype=float)
        total = w.sum()
        if not 0.0 < total < np.inf:
            raise ValueError(f"weights must sum to a positive finite number, "
                             f"got {total!r}")
        return cls(tuple(float(t) for t in support), tuple(w / total))


def sweep_election(fit: FittedLine, x0: float, grid: KnobGrid,
                   level: float = 0.95, kind: str = MEAN_RESPONSE) -> CidCurve:
    """Sweep additive measurement error t, comparing each perturbed interval
    and decision against the reference at t0.

    The whole grid is evaluated as arrays: predict_intervals builds every
    interval from one Student-t quantile, and decide_election_codes,
    interval_overlaps and cid_general each take the whole grid. The grid
    contains t0 exactly, so the reference is its row.
    """
    ts = grid.values()
    center, lower, upper = predict_intervals(fit, x0 + ts, level, kind)
    i0 = grid.index_of_t0()
    codes = decide_election_codes(lower, upper)
    j_t = interval_overlaps(lower[i0], upper[i0], lower, upper)
    return _curve(ts, i0, center, codes, ELECTION_DECISIONS,
                  lambda d_t: cid_general(d_t, j_t),
                  lower=lower, upper=upper, j_t=j_t)


def sweep_lead(pop: LeadPopulation, mech: MnarMechanism, grid: KnobGrid,
               cfg: ImputationConfig, costs: CostParams,
               snapshot_rows=()) -> CidCurve:
    """Sweep MNAR tilt strength t against the MAR reference at t0, deciding
    with the threshold rule at costs.threshold.

    A threshold not below pop.worst_case_theta is a ValueError, raised
    before any imputation. The whole grid is imputed in one
    common-random-numbers pass (impute_theta_grid): every grid point reuses
    the same per-imputation substreams, and each point is byte-identical to
    imputing it alone, in any evaluation order; for the accordion and
    parametric mechanisms the estimate is nonincreasing in t. The grid
    contains t0 exactly, so the reference estimate is its row; the
    decisions and cid_lead take the whole grid. The curve carries the mean
    completed frequencies of the grid rows in snapshot_rows.
    """
    max_cost(0.0, costs, pop.worst_case_theta)  # checks the threshold
    ts = grid.values()
    snapshot_rows = tuple(snapshot_rows)
    thetas, freqs = impute_theta_grid(pop, mech, ts, cfg, snapshot_rows)
    i0 = grid.index_of_t0()
    theta_ref = thetas[i0]
    codes = decide_intervention_codes(thetas, ThresholdRule(costs.threshold))
    return _curve(ts, i0, thetas, codes, INTERVENTION_DECISIONS,
                  lambda d_t: cid_lead(theta_ref, thetas, d_t, costs,
                                       pop.worst_case_theta),
                  snapshot_rows=snapshot_rows, completed_freqs=freqs)


def expected_cid(curve: CidCurve, dist: KnobDistribution) -> float:
    """Weighted average of the curve's CID over the distribution's support.

    Each support point snaps to the nearest grid point; points farther than
    half a grid step from the grid are rejected (CidCurve.index_on_grid).
    """
    total = 0.0
    for t, w in zip(dist.support, dist.weights):
        total += w * curve.cid[curve.index_on_grid(t)]
    return float(total)


@dataclass(frozen=True)
class RegionSummary:
    min_cid: float
    change_points_inside: tuple

    @property
    def has_change_point(self) -> bool:
        return len(self.change_points_inside) > 0


def annotate_plausible_region(curve: CidCurve,
                              region: PlausibleRegion) -> RegionSummary:
    """Min CID over the grid points inside the region, and any decision
    change brackets overlapping it. A region holding no grid point is a
    ValueError."""
    cids = curve.cid[(region.lower <= curve.t) & (curve.t <= region.upper)]
    if not len(cids):
        raise ValueError(f"[{region.lower}, {region.upper}] contains no grid "
                         f"points")
    brackets = tuple(
        (lo, hi) for lo, hi in curve.change_points
        if hi >= region.lower and lo <= region.upper
    )
    return RegionSummary(float(cids.min()), brackets)
