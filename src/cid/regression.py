"""Simple linear regression with mean-response and new-observation intervals."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special


@dataclass(frozen=True)
class Interval:
    """A two-sided interval around a center value, at a given confidence level."""

    lower: float
    upper: float
    level: float
    center: float

    def __post_init__(self):
        if not (0.0 < self.level < 1.0):
            raise ValueError(f"level must be in (0, 1), got {self.level}")
        if not (self.lower <= self.center <= self.upper):
            raise ValueError(
                f"interval must satisfy lower <= center <= upper, "
                f"got ({self.lower}, {self.center}, {self.upper})"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class ElectionDataset:
    """Election records: (year, income growth %, incumbent-party vote share %)."""

    years: tuple
    growth: tuple
    vote: tuple

    def __post_init__(self):
        n = len(self.years)
        if not (n == len(self.growth) == len(self.vote)):
            raise ValueError("years, growth and vote must have equal length")
        if n < 3:
            raise ValueError(f"insufficient data: need at least 3 records, got {n}")
        g = np.asarray(self.growth, dtype=float)
        if np.ptp(g) == 0.0:
            raise ValueError("singular design: growth values are all identical")

    @property
    def n(self) -> int:
        return len(self.years)

    @classmethod
    def from_records(cls, records: Sequence[tuple]) -> "ElectionDataset":
        years, growth, vote = zip(*records) if records else ((), (), ())
        return cls(tuple(int(y) for y in years),
                   tuple(float(g) for g in growth),
                   tuple(float(v) for v in vote))

    @classmethod
    def from_csv(cls, path) -> "ElectionDataset":
        """Read a `year,growth,vote` CSV file."""
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = [(r["year"], r["growth"], r["vote"]) for r in reader]
        return cls.from_records(rows)


@dataclass(frozen=True)
class FittedLine:
    """A least-squares line plus the sufficient statistics for interval construction."""

    intercept: float
    slope: float
    sigma2: float
    n: int
    x_mean: float
    sxx: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"insufficient data: n = {self.n}")
        if self.sxx <= 0.0:
            raise ValueError(f"sxx must be positive, got {self.sxx}")
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")

    def predict(self, x0: float) -> float:
        return self.intercept + self.slope * x0


def fit_simple_ols(data: ElectionDataset) -> FittedLine:
    """Least-squares fit of vote share on growth, residual variance on n - 2 df."""
    x = np.asarray(data.growth, dtype=float)
    y = np.asarray(data.vote, dtype=float)
    n = data.n
    x_mean = float(x.mean())
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x_mean)
    resid = y - (intercept + slope * x)
    sigma2 = float(np.sum(resid**2) / (n - 2))
    return FittedLine(intercept=intercept, slope=slope, sigma2=sigma2,
                      n=n, x_mean=x_mean, sxx=sxx)


MEAN_RESPONSE = "mean-response"
NEW_OBSERVATION = "new-observation"
_DELTA = {MEAN_RESPONSE: 0.0, NEW_OBSERVATION: 1.0}


def predict_intervals(fit: FittedLine, x0s, level: float = 0.95,
                      kind: str = MEAN_RESPONSE):
    """Intervals at every x0 in x0s, as (center, lower, upper) arrays.

    Half-width is q * sqrt(sigma2 * (delta + 1/n + (x0 - x_mean)^2 / sxx)) with
    delta = 0 for mean-response, 1 for new-observation, and q the two-sided
    Student-t quantile on n - 2 degrees of freedom, computed once per call.
    """
    delta = _DELTA.get(kind)
    if delta is None:
        raise ValueError(f"unknown interval kind: {kind!r}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    x = np.atleast_1d(np.asarray(x0s, dtype=float))
    center = fit.intercept + fit.slope * x
    q = float(special.stdtrit(fit.n - 2, 0.5 + level / 2.0))
    with np.errstate(invalid="ignore"):  # non-finite x fails the check below
        half = q * np.sqrt(
            fit.sigma2 * (delta + 1.0 / fit.n + (x - fit.x_mean) ** 2 / fit.sxx))
        lower = center - half
        upper = center + half
    ordered = (lower <= center) & (center <= upper)
    if not np.all(ordered):
        i = int(np.argmin(ordered))
        raise ValueError(
            f"interval must satisfy lower <= center <= upper, "
            f"got ({lower[i]}, {center[i]}, {upper[i]})"
        )
    return center, lower, upper


def predict_interval(fit: FittedLine, x0: float, level: float = 0.95,
                     kind: str = MEAN_RESPONSE) -> Interval:
    """Interval for the regression line at x0 (mean-response) or for a new
    draw: predict_intervals at the single point x0."""
    center, lower, upper = predict_intervals(fit, [x0], level, kind)
    return Interval(lower=float(lower[0]), upper=float(upper[0]),
                    level=level, center=float(center[0]))
