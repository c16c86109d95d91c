"""Simple linear regression with mean-response and new-observation intervals."""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
        if not np.all(np.isfinite([*self.growth, *self.vote])):
            raise ValueError("growth and vote must be finite numbers")
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
            reader = csv.DictReader(fh, restval="")
            for column in ("year", "growth", "vote"):
                if column not in (reader.fieldnames or ()):
                    raise ValueError(f"{path} has no {column!r} column")
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


def _inv_beta_half(df: int) -> float:
    """1 / B(df/2, 1/2) for an integer df >= 1."""
    k = df // 2
    if df < 512:
        # B(k, 1/2) = 4^k / (k C(2k, k)) and B(k + 1/2, 1/2) = pi C(2k, k) / 4^k;
        # the integers are exact and int / int rounds once
        if df % 2:
            return 4**k / math.comb(2 * k, k) / math.pi
        return k * math.comb(2 * k, k) / 4**k
    # Gamma(a + 1/2) / (sqrt(a) Gamma(a)) = 1 - 1/(8a) + 1/(128a^2) + ...; the
    # first term left out is below 1e-19 for a >= 256
    a = df / 2.0
    series = 869.0 / 4194304.0
    for c in (-399.0 / 262144.0, -21.0 / 32768.0, 5.0 / 1024.0, 1.0 / 128.0,
              -1.0 / 8.0, 1.0):
        series = c + series / a
    return math.sqrt(a / math.pi) * series


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """The continued fraction f with I_x(a, b) = x^a y^b / (B(a, b) f)
    (DiDonato and Morris, ACM TOMS 18, 1992), by the modified Lentz method.
    It converges fast for x <= a / (a + b). y = 1 - x is passed separately,
    so no coefficient loses digits by subtracting x from 1."""
    tiny = 1e-300  # stands in for a zero denominator
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    c, d = f, 0.0
    for m in range(1, 10_000):
        an = ((a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x
              / (a + 2 * m - 1.0) ** 2)
        bn = (m + m * (b - m) * x / (a + 2 * m - 1.0)
              + (a + m) * (a * y - b * x + 1.0 + m * (2.0 - x)) / (a + 2 * m + 1.0))
        d = 1.0 / ((bn + an * d) or tiny)
        c = (bn + an / c) or tiny
        f *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return f
    raise ArithmeticError(f"incomplete beta fraction did not converge "
                          f"(a={a}, b={b}, x={x})")


@functools.lru_cache(maxsize=64)
def _t_quantile(df: int, level: float) -> float:
    """The q > 0 with P(|T| <= q) = level for T Student-t on df degrees of
    freedom; df is an integer >= 1 and 0 < level < 1.

    Newton's method in log q, on whichever mass the continued fraction gives
    directly at the current q: the upper tail P(|T| > q) = I_x(df/2, 1/2),
    x = df / (df + q^2), or the central mass P(|T| <= q) = I_(1-x)(1/2, df/2).
    Neither is taken as 1 minus the other, so no level loses digits. Both log
    masses are concave in log q, so from the start below, each step lands on
    the side of the root from which the steps then approach it monotonically.
    """
    a = df / 2.0
    inv_beta = _inv_beta_half(df)
    if level < 0.5:
        # the central mass is at most 2 q f(0), f the density, so this q is
        # left of the root
        q = level * math.sqrt(df) / (2.0 * inv_beta)
        if q < 1e-8:  # 2 q f(0) is then the central mass to within rounding
            return q
    else:
        # the tail is at most 2 inv_beta df^(a-1) q^-df (the density's
        # power-law envelope) and, for df >= 2, (1 + q^2/df)^((1-df)/2):
        # each bound's quantile is right of the root
        alpha = 1.0 - level
        q = math.sqrt(df) * (2.0 * inv_beta / (df * alpha)) ** (1.0 / df)
        if df > 1:
            s = math.expm1(-2.0 * math.log(alpha) / (df - 1))
            q = min(q, math.sqrt(df * s))
    for _ in range(50):
        s = q * q / df
        x, y = 1.0 / (1.0 + s), s / (1.0 + s)
        # x^a y^(1/2) / B(a, 1/2) is q times the density at q. Each mass is it
        # over the mass's fraction, so d log(mass) / d log(q) is -+2 fraction.
        q_density = math.exp(-a * math.log1p(s)) * math.sqrt(y) * inv_beta
        if a * s >= 0.5:  # x <= a / (a + 1/2): the upper tail, falling in q
            frac, target, sign = _beta_fraction(a, 0.5, x, y), 1.0 - level, 1.0
        else:  # the central mass, rising in q
            frac, target, sign = _beta_fraction(0.5, a, y, x), level, -1.0
        step = sign * math.log(q_density / (frac * target)) / (2.0 * frac)
        q += q * math.expm1(step)
        if abs(step) < 1e-11:
            return q
    raise ArithmeticError(f"Student-t quantile did not converge "
                          f"(df={df}, level={level})")


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
    q = _t_quantile(fit.n - 2, level)
    # a non-finite x, or one far enough out to overflow, fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        center = fit.intercept + fit.slope * x
        half = q * np.sqrt(
            fit.sigma2 * (delta + 1.0 / fit.n + (x - fit.x_mean) ** 2 / fit.sxx))
        lower = center - half
        upper = center + half
        ok = (lower <= center) & (center <= upper) & np.isfinite(upper - lower)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ValueError(
            f"interval at x0 = {x[i]} must have a finite width and lower "
            f"<= center <= upper, got ({lower[i]}, {center[i]}, {upper[i]})"
        )
    return center, lower, upper

