"""Knob sweeps over t: build CID curves, detect decision change points,
find the lowest CID in a plausible region, and average CID under a knob
distribution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decisions import (ELECTION_DECISIONS, INTERVENTION_DECISIONS,
                        decide_election_codes, decide_intervention_codes)
from .errors import InputError
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
        if not self.step > 0:  # NaN included
            raise InputError("step", f"step must be positive, got {self.step}")
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

    def n_points(self) -> float:
        """len(values()), computed without building the grid. A float: it
        is inf when the step is so small that the count overflows."""
        k_lo, k_hi = self._k_range()
        return float(k_lo + k_hi + 1)


def grid_spacing(ts: np.ndarray) -> float:
    """The grid step of the grid points ts: their smallest spacing, 0 for a
    single point."""
    return float(np.min(np.diff(ts))) if len(ts) > 1 else 0.0


def row_on_grid(ts: np.ndarray, t: float,
                spacing: Optional[float] = None) -> int:
    """The row of the ascending grid points ts nearest t, the lower one on a
    tie; a t farther than half the grid step from every grid point, or NaN,
    is a ValueError. The step's rounding is forgiven up to 1e-9 of a step,
    as KnobGrid forgives it at the grid's ends. spacing is grid_spacing(ts),
    which a caller looking up many t in one grid computes once."""
    if spacing is None:
        spacing = grid_spacing(ts)
    # t lies between rows j - 1 and j, the first row at or above it
    j = int(np.searchsorted(ts, t))
    if j == len(ts) or (j > 0 and t - ts[j - 1] <= ts[j] - t):
        j -= 1
    if not abs(ts[j] - t) <= (0.5 + 1e-9) * spacing:
        raise ValueError(f"off grid: t = {t} is farther than step/2 from "
                         f"any grid point")
    return j


@dataclass(frozen=True, eq=False)
class CidCurve:
    """A swept CID curve as columns in grid order.

    t, estimate, codes and cid are arrays of length T. codes[i] is the index
    of point i's decision in family, the rule family's tuple of decision
    labels (ELECTION_DECISIONS or INTERVENTION_DECISIONS). An election curve
    also has the interval bounds lower and upper and the overlap j_t; a lead
    curve has the grid rows of its snapshots, snapshot_rows, and their mean
    completed frequencies, shape (S, K). i0 is the row of the reference t0.
    d_t and change_points are read from codes, i0 and t.
    """

    t: np.ndarray
    estimate: np.ndarray
    codes: np.ndarray
    family: tuple
    cid: np.ndarray
    i0: int
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    j_t: Optional[np.ndarray] = None
    snapshot_rows: tuple = ()
    completed_freqs: Optional[np.ndarray] = None

    @property
    def reference_decision(self) -> str:
        """The label of the decision at the reference t0."""
        return self.family[self.codes[self.i0]]

    @property
    def d_t(self) -> np.ndarray:
        """1 where the decision equals the reference decision, else 0."""
        return (self.codes == self.codes[self.i0:self.i0 + 1]).astype(int)

    @property
    def change_rows(self) -> np.ndarray:
        """The rows i whose decision differs from row i + 1's."""
        return np.flatnonzero(self.codes[1:] != self.codes[:-1])

    @property
    def change_points(self) -> tuple:
        """The grid neighbours (t_low, t_high) where the decision changes."""
        rows = self.change_rows
        return tuple(zip(self.t[rows].tolist(), self.t[rows + 1].tolist()))


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
    """Discrete distribution on knob values for expected-CID summaries: the
    probability of support[i] is weights[i] / sum(weights)."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        with np.errstate(over="ignore"):  # an infinite sum is rejected below
            total = w.sum()
        if not 0.0 < total < np.inf:
            raise ValueError(f"weights must sum to a positive finite number, "
                             f"got {float(total)!r}")
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")


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
    return CidCurve(t=ts, estimate=center, codes=codes,
                    family=ELECTION_DECISIONS,
                    cid=cid_general(codes == codes[i0], j_t), i0=i0,
                    lower=lower, upper=upper, j_t=j_t)


def sweep_lead(pop: LeadPopulation, mech: MnarMechanism, grid: KnobGrid,
               cfg: ImputationConfig, costs: CostParams,
               snapshot_rows=()) -> CidCurve:
    """Sweep MNAR tilt strength t against the MAR reference at t0, deciding
    with the threshold rule at costs.threshold.

    A threshold not below pop.worst_case_theta is a ValueError, raised
    before any imputation. With a zero cost, the row at t0 is imputed alone
    first, and a reference estimate that leaves no outcome a cost is
    cid_lead's InputError, raised before the grid is imputed. The whole
    grid is imputed in one common-random-numbers pass (impute_theta_grid):
    every grid point reuses the same per-imputation substreams, and each
    point is byte-identical to imputing it alone, in any evaluation order;
    for the accordion and parametric mechanisms the estimate is
    nonincreasing in t. The grid contains t0 exactly, so the reference
    estimate is its row; the decisions and cid_lead take the whole grid.
    The curve carries the mean completed frequencies of the grid rows in
    snapshot_rows.
    """
    max_cost(0.0, costs, pop.worst_case_theta)  # checks the threshold
    ts = grid.values()
    i0 = grid.index_of_t0()
    if costs.a == 0 or costs.b == 0:
        # the row at t0 is the same imputed alone as in the grid
        theta_ref = impute_theta_grid(pop, mech, ts[i0:i0 + 1], cfg)[0]
        cid_lead(theta_ref, theta_ref, 1, costs, pop.worst_case_theta)
    snapshot_rows = tuple(snapshot_rows)
    thetas, freqs = impute_theta_grid(pop, mech, ts, cfg, snapshot_rows)
    codes = decide_intervention_codes(thetas, costs.threshold)
    cid = cid_lead(thetas[i0], thetas, codes == codes[i0], costs,
                   pop.worst_case_theta)
    return CidCurve(t=ts, estimate=thetas, codes=codes,
                    family=INTERVENTION_DECISIONS, cid=cid, i0=i0,
                    snapshot_rows=snapshot_rows, completed_freqs=freqs)


def expected_cid(curve: CidCurve, dist: KnobDistribution) -> float:
    """Average of the curve's CID over the distribution's support, weighted
    by its probabilities.

    Each support point snaps to the nearest grid point; points farther than
    half a grid step from the grid are rejected (row_on_grid, with the grid
    step computed once).
    """
    # scaling each weight first keeps w * cid finite near the float maximum
    scale = np.sum(dist.weights)
    spacing = grid_spacing(curve.t)
    total = 0.0
    for t, w in zip(dist.support, dist.weights):
        total += w / scale * curve.cid[row_on_grid(curve.t, t, spacing)]
    return float(total)


def min_cid_in_region(curve: CidCurve, region: PlausibleRegion) -> float:
    """The lowest CID over the grid points inside the region. A region
    holding no grid point is a ValueError."""
    cids = curve.cid[(region.lower <= curve.t) & (curve.t <= region.upper)]
    if not len(cids):
        raise ValueError(f"[{region.lower}, {region.upper}] contains no grid "
                         f"points")
    return float(cids.min())
