import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from cid.regression import (MEAN_RESPONSE, NEW_OBSERVATION, ElectionDataset,
                            FittedLine, _t_quantile, fit_simple_ols,
                            predict_intervals)


def normal_equations_fit(x, y):
    """Independent closed-form oracle: slope/intercept from raw sums."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx, sy = x.sum(), y.sum()
    sxy, sxx = (x * y).sum(), (x * x).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return intercept, slope


def t_quantile_oracle(df, p, lo=0.0, hi=50.0):
    """Two-sided Student-t quantile by quadrature of the density + bisection."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def cdf(x):
        val, _ = quad(lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), 0, abs(x))
        return 0.5 + val if x >= 0 else 0.5 - val

    for _ in range(80):
        mid = (lo + hi) / 2
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestFit:
    def test_hibbs_reproduction(self, hibbs_fit):
        assert hibbs_fit.intercept == pytest.approx(46.248, abs=0.01)
        assert hibbs_fit.slope == pytest.approx(3.061, abs=0.01)
        assert hibbs_fit.sigma2 == pytest.approx(14.16, abs=0.01)

    def test_exact_fit(self):
        data = ElectionDataset.from_records([(1, 0, 0), (2, 1, 1), (3, 2, 2)])
        fit = fit_simple_ols(data)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        data = ElectionDataset.from_records(
            [(2000 + i, xi, yi) for i, (xi, yi) in enumerate(zip(x, y))])
        fit = fit_simple_ols(data)
        intercept, slope = normal_equations_fit(x, y)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)
        assert fit.slope == pytest.approx(slope, rel=1e-10)

    def test_line_through_means_and_zero_residual_sum(self, hibbs_data, hibbs_fit):
        x = np.asarray(hibbs_data.growth)
        y = np.asarray(hibbs_data.vote)
        assert hibbs_fit.intercept + hibbs_fit.slope * x.mean() == \
            pytest.approx(y.mean(), rel=1e-12)
        resid = y - (hibbs_fit.intercept + hibbs_fit.slope * x)
        assert abs(resid.sum()) < 1e-9 * abs(y).sum()

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            ElectionDataset.from_records([(1, 0, 0), (2, 1, 1)])

    def test_singular_design(self):
        with pytest.raises(ValueError, match="singular design"):
            ElectionDataset.from_records([(1, 2, 0), (2, 2, 1), (3, 2, 2)])


def widths(fit, x0s, kind=MEAN_RESPONSE):
    _, lower, upper = predict_intervals(fit, x0s, 0.95, kind)
    return upper - lower


class TestPredictInterval:
    def test_hibbs_2024_prediction(self, hibbs_fit):
        center, lower, upper = predict_intervals(hibbs_fit, [-0.728], 0.95,
                                                 MEAN_RESPONSE)
        assert center[0] == pytest.approx(44.0, abs=0.1)
        assert lower[0] == pytest.approx(39.6, abs=0.3)
        assert upper[0] == pytest.approx(48.4, abs=0.3)

    def test_zero_variance_gives_point_interval(self):
        fit = FittedLine(intercept=1.0, slope=2.0, sigma2=0.0,
                         n=5, x_mean=0.0, sxx=10.0)
        center, lower, upper = predict_intervals(fit, [3.7], 0.95,
                                                 NEW_OBSERVATION)
        assert lower[0] == upper[0] == center[0] == pytest.approx(8.4)

    def test_half_width_minimized_at_x_mean(self, hibbs_fit):
        grid = np.linspace(hibbs_fit.x_mean - 5, hibbs_fit.x_mean + 5, 201)
        assert np.argmin(widths(hibbs_fit, grid)) == 100
        at_mean = widths(hibbs_fit, [hibbs_fit.x_mean])[0]
        q = stats.t.ppf(0.975, hibbs_fit.n - 2)
        expected = q * math.sqrt(hibbs_fit.sigma2 / hibbs_fit.n)
        assert at_mean / 2 == pytest.approx(expected, rel=1e-12)

    def test_center_affine_in_x0(self, hibbs_fit):
        ts = (-3.0, -0.5, 0.25, 2.0)
        base = predict_intervals(hibbs_fit, [-0.728], 0.95)[0][0]
        shifted = predict_intervals(hibbs_fit, [-0.728 + t for t in ts], 0.95)[0]
        for t, center in zip(ts, shifted):
            assert center == base + hibbs_fit.slope * t

    def test_new_observation_wider_than_mean_response(self, hibbs_fit):
        x0s = (-2.0, 0.0, 1.9, 4.0)
        assert np.all(widths(hibbs_fit, x0s, NEW_OBSERVATION)
                      > widths(hibbs_fit, x0s, MEAN_RESPONSE))

    def test_mean_response_width_convex(self, hibbs_fit):
        w = widths(hibbs_fit, np.linspace(-4, 8, 61))
        # strict convexity: every interior point below the chord of its neighbors
        assert np.all(w[1:-1] < (w[:-2] + w[2:]) / 2)

    def test_unknown_kind(self, hibbs_fit):
        with pytest.raises(ValueError, match="kind"):
            predict_intervals(hibbs_fit, 0.0, 0.95, "bootstrap")


class TestPredictIntervals:
    @pytest.mark.parametrize("kind", [MEAN_RESPONSE, NEW_OBSERVATION])
    def test_rows_equal_single_point_intervals(self, hibbs_fit, kind):
        x0s = -0.728 + np.linspace(-4, 4, 81)
        rows = np.column_stack(predict_intervals(hibbs_fit, x0s, 0.9, kind))
        for i, x0 in enumerate(x0s):
            single = np.column_stack(predict_intervals(hibbs_fit, [x0], 0.9,
                                                       kind))
            assert single.tolist() == [rows[i].tolist()]

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
    def test_level_outside_unit_interval(self, hibbs_fit, level):
        with pytest.raises(ValueError, match="level must be in"):
            predict_intervals(hibbs_fit, [0.0, 1.0], level)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, hibbs_fit, bad):
        with pytest.raises(ValueError, match="lower <= center <= upper"):
            predict_intervals(hibbs_fit, [0.0, bad, 1.0])

    def test_unknown_kind(self, hibbs_fit):
        with pytest.raises(ValueError, match="kind"):
            predict_intervals(hibbs_fit, [0.0], 0.95, "bootstrap")


def test_shift_y_shifts_intercept_only(hibbs_data, hibbs_fit):
    c = 7.5
    shifted = ElectionDataset(hibbs_data.years, hibbs_data.growth,
                              tuple(v + c for v in hibbs_data.vote))
    refit = fit_simple_ols(shifted)
    assert refit.intercept == pytest.approx(hibbs_fit.intercept + c, rel=1e-9)
    assert refit.slope == pytest.approx(hibbs_fit.slope, rel=1e-9)
    assert refit.sigma2 == pytest.approx(hibbs_fit.sigma2, rel=1e-9)


@pytest.mark.parametrize("df,p", [(5, 0.975), (14, 0.975), (30, 0.995)])
def test_t_quantile_matches_quadrature_oracle(df, p):
    oracle = t_quantile_oracle(df, p)
    assert stats.t.ppf(p, df) == pytest.approx(oracle, abs=1e-6)
    assert _t_quantile(df, 2 * p - 1) == pytest.approx(oracle, abs=1e-6)


T_LEVELS = (1e-6, 0.1, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 14, 16, 30, 100, 1000])
def test_stdtrit_equals_t_ppf(df):
    """The two scipy quantiles these tests use as oracles agree exactly."""
    for level in T_LEVELS:
        p = 0.5 + level / 2.0
        assert special.stdtrit(df, p) == stats.t.ppf(p, df)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 14, 16, 30, 100, 1000, 10**6])
def test_t_quantile_backward_error(df):
    """At q, scipy's upper tail is within 1e-11 of 1 - level or its central
    mass within 1e-11 of level, relative, whichever is closer. The central
    mass comes from betainc, since 1 - tail loses digits at small levels."""
    for level in T_LEVELS:
        q = _t_quantile(df, level)
        tail = 2.0 * special.stdtr(df, -q)
        central = special.betainc(0.5, df / 2.0, q * q / (df + q * q))
        assert min(abs(tail - (1.0 - level)) / (1.0 - level),
                   abs(central - level) / level) <= 1e-11, level


@pytest.mark.parametrize("level", [v for v in T_LEVELS if v <= 0.999])
def test_t_quantile_closed_forms(level):
    """df = 1 gives tan(pi level / 2) and df = 2 gives
    level sqrt(2 / (1 - level^2)). Near level = 1 both are written so that
    they lose no digits: tan as 1 / tan(pi (1 - level) / 2), where
    1 - level is exact, and 1 - level^2 as (1 - level)(1 + level)."""
    cauchy = (math.tan(math.pi * level / 2.0) if level <= 0.5
              else 1.0 / math.tan(math.pi * (1.0 - level) / 2.0))
    two = level * math.sqrt(2.0 / ((1.0 - level) * (1.0 + level)))
    for df, expected in ((1, cauchy), (2, two)):
        assert abs(_t_quantile(df, level) - expected) <= 4 * math.ulp(expected)


def test_t_quantile_election_df_matches_stdtrit():
    expected = special.stdtrit(14, 0.975)
    assert abs(_t_quantile(14, 0.95) - expected) <= math.ulp(expected)


def test_t_quantile_extremes_stay_finite_and_ordered():
    levels = (1e-300, 1e-12, 0.3, 0.5, 0.95, 1 - 2**-53)
    previous = [0.0] * len(levels)
    for df in (10**8, 10**4, 512, 511, 14, 2, 1):  # q falls as df grows
        qs = [_t_quantile(df, level) for level in levels]
        assert all(math.isfinite(q) and q > 0 for q in qs), df
        assert qs == sorted(qs), df
        assert all(q >= p for q, p in zip(qs, previous)), df
        previous = qs
