import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.integrate import quad

from cid.regression import (MEAN_RESPONSE, NEW_OBSERVATION, ElectionDataset,
                            FittedLine, fit_simple_ols, predict_interval,
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


class TestPredictInterval:
    def test_hibbs_2024_prediction(self, hibbs_fit):
        iv = predict_interval(hibbs_fit, -0.728, 0.95, MEAN_RESPONSE)
        assert iv.center == pytest.approx(44.0, abs=0.1)
        assert iv.lower == pytest.approx(39.6, abs=0.3)
        assert iv.upper == pytest.approx(48.4, abs=0.3)

    def test_zero_variance_gives_point_interval(self):
        fit = FittedLine(intercept=1.0, slope=2.0, sigma2=0.0,
                         n=5, x_mean=0.0, sxx=10.0)
        iv = predict_interval(fit, 3.7, 0.95, NEW_OBSERVATION)
        assert iv.lower == iv.upper == iv.center == pytest.approx(8.4)

    def test_half_width_minimized_at_x_mean(self, hibbs_fit):
        grid = np.linspace(hibbs_fit.x_mean - 5, hibbs_fit.x_mean + 5, 201)
        widths = [predict_interval(hibbs_fit, x0, 0.95).width for x0 in grid]
        assert np.argmin(widths) == 100
        at_mean = predict_interval(hibbs_fit, hibbs_fit.x_mean, 0.95)
        from scipy import stats
        q = stats.t.ppf(0.975, hibbs_fit.n - 2)
        expected = q * math.sqrt(hibbs_fit.sigma2 / hibbs_fit.n)
        assert at_mean.width / 2 == pytest.approx(expected, rel=1e-12)

    def test_center_affine_in_x0(self, hibbs_fit):
        base = predict_interval(hibbs_fit, -0.728, 0.95)
        for t in (-3.0, -0.5, 0.25, 2.0):
            shifted = predict_interval(hibbs_fit, -0.728 + t, 0.95)
            assert shifted.center == base.center + hibbs_fit.slope * t

    def test_new_observation_wider_than_mean_response(self, hibbs_fit):
        for x0 in (-2.0, 0.0, 1.9, 4.0):
            mr = predict_interval(hibbs_fit, x0, 0.95, MEAN_RESPONSE)
            no = predict_interval(hibbs_fit, x0, 0.95, NEW_OBSERVATION)
            assert no.width > mr.width

    def test_mean_response_width_convex(self, hibbs_fit):
        xs = np.linspace(-4, 8, 61)
        w = np.array([predict_interval(hibbs_fit, x, 0.95).width for x in xs])
        # strict convexity: every interior point below the chord of its neighbors
        assert np.all(w[1:-1] < (w[:-2] + w[2:]) / 2)

    def test_unknown_kind(self, hibbs_fit):
        with pytest.raises(ValueError, match="kind"):
            predict_interval(hibbs_fit, 0.0, 0.95, "bootstrap")


class TestPredictIntervals:
    @pytest.mark.parametrize("kind", [MEAN_RESPONSE, NEW_OBSERVATION])
    def test_rows_equal_single_point_intervals(self, hibbs_fit, kind):
        x0s = -0.728 + np.linspace(-4, 4, 81)
        center, lower, upper = predict_intervals(hibbs_fit, x0s, 0.9, kind)
        for i, x0 in enumerate(x0s):
            iv = predict_interval(hibbs_fit, x0, 0.9, kind)
            assert (iv.center, iv.lower, iv.upper) == (center[i], lower[i],
                                                       upper[i])

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
    assert stats.t.ppf(p, df) == pytest.approx(t_quantile_oracle(df, p), abs=1e-6)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 14, 16, 30, 100, 1000])
def test_stdtrit_equals_t_ppf(df):
    for level in (1e-6, 0.1, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 1 - 1e-9):
        p = 0.5 + level / 2.0
        assert special.stdtrit(df, p) == stats.t.ppf(p, df)
