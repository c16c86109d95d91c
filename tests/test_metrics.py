import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cid.metrics import (CostParams, cid_general, cid_lead, interval_overlap,
                         interval_overlaps, max_cost, worst_case_theta)
from cid.regression import Interval


def iv(lo, hi):
    return Interval(lower=lo, upper=hi, level=0.95, center=(lo + hi) / 2)


intervals = st.builds(
    lambda lo, w: iv(lo, lo + w),
    st.floats(-100, 100), st.floats(0.01, 100),
)


# Few distinct endpoints, so ties, shared endpoints and zero widths are common.
tie_prone_intervals = st.builds(
    lambda lo, w: iv(lo, lo + w),
    st.sampled_from([-0.0, 0.0, 1.0, 2.5, 3.0]), st.sampled_from([0.0, 0.5, 2.0]),
)


class TestIntervalOverlaps:
    @given(ref=tie_prone_intervals | intervals,
           others=st.lists(tie_prone_intervals | intervals, min_size=1,
                           max_size=8))
    def test_equals_scalar_overlap(self, ref, others):
        got = interval_overlaps(ref.lower, ref.upper,
                                [o.lower for o in others],
                                [o.upper for o in others])
        expected = [interval_overlap(ref, o) for o in others]
        # compare signs too: -0.0 == 0.0, but they print differently
        assert [(j, math.copysign(1.0, j)) for j in got.tolist()] == \
            [(j, math.copysign(1.0, j)) for j in expected]


class TestIntervalOverlap:
    def test_identical(self):
        assert interval_overlap(iv(39.6, 48.4), iv(39.6, 48.4)) == 1.0

    def test_disjoint(self):
        assert interval_overlap(iv(0, 1), iv(2, 3)) == 0.0

    def test_half_overlap(self):
        assert interval_overlap(iv(0, 2), iv(1, 3)) == pytest.approx(0.5)

    def test_nested_half_length(self):
        # A inside B with half B's length: mean of 1.0 and 0.5
        assert interval_overlap(iv(1, 2), iv(0.5, 2.5)) == pytest.approx(0.75)

    def test_zero_width_inputs(self):
        assert interval_overlap(iv(3, 3), iv(3, 3)) == 1.0
        assert interval_overlap(iv(3, 3), iv(2, 5)) == 0.0
        assert interval_overlap(iv(2, 5), iv(3, 3)) == 0.0

    @given(a=intervals, b=intervals)
    def test_symmetric_and_bounded(self, a, b):
        j = interval_overlap(a, b)
        assert 0.0 <= j <= 1.0
        assert j == interval_overlap(b, a)

    @given(a=intervals)
    def test_equals_one_for_identical(self, a):
        assert interval_overlap(a, a) == 1.0

    def test_below_one_when_not_identical(self):
        assert interval_overlap(iv(0, 2), iv(0, 2.01)) < 1.0
        assert interval_overlap(iv(0, 2), iv(0.01, 2)) < 1.0
        assert interval_overlap(iv(0, 2), iv(-1, 3)) < 1.0


class TestCidGeneral:
    def test_reference_point(self):
        assert cid_general(1, 1.0) == 2.0

    def test_changed_decision_annihilates(self):
        assert cid_general(0, 0.7) == 0.0

    def test_midpoint(self):
        assert cid_general(1, 0.5) == 1.5

    @given(d=st.sampled_from([0, 1]), j=st.floats(0, 1))
    def test_range_never_in_open_unit_interval(self, d, j):
        v = cid_general(d, j)
        assert v == 0.0 or 1.0 <= v <= 2.0


class TestWorstCaseTheta:
    def test_lead_case_study(self):
        assert worst_case_theta(27_500, 110_000, 400_000) == pytest.approx(
            0.79375)

    def test_fully_observed_none_high(self):
        assert worst_case_theta(0, 1000, 1000) == 0.0

    def test_all_observed_all_high(self):
        assert worst_case_theta(1000, 1000, 1000) == 1.0

    def test_count_violations(self):
        with pytest.raises(ValueError):
            worst_case_theta(10, 5, 20)
        with pytest.raises(ValueError):
            worst_case_theta(1, 5, 4)


THETA_WC = 0.79375


class TestCidLead:
    params = CostParams(a=1.0, b=1.0, theta_wc=THETA_WC)

    def test_overestimate_capped_at_threshold_spend(self):
        c = max_cost(0.25, self.params)
        got = cid_lead(0.25, 0.15, 0, self.params)
        assert got == pytest.approx(1.0 - 0.05 / c, abs=1e-12)
        assert got == pytest.approx(1.0 - 0.05 / 0.54, abs=0.01)

    def test_small_overestimate(self):
        c = max_cost(0.25, self.params)
        assert cid_lead(0.25, 0.22, 1, self.params) == pytest.approx(
            1.0 - 0.03 / c, abs=1e-12)

    def test_no_cost_at_reference(self):
        assert cid_lead(0.25, 0.25, 1, self.params) == 1.0

    def test_reference_below_threshold(self):
        c = max_cost(0.18, self.params)
        assert c == pytest.approx((THETA_WC - 0.20) * 1.0)
        assert cid_lead(0.18, 0.27, 0, self.params) == pytest.approx(
            1.0 - 0.07 / c, abs=1e-12)
        # decision unchanged: no cost
        assert cid_lead(0.18, 0.19, 1, self.params) == 1.0

    def test_degenerate_scaling(self):
        params = CostParams(a=1.0, b=0.0, theta_wc=THETA_WC)
        with pytest.raises(ValueError, match="degenerate scaling"):
            cid_lead(0.20, 0.15, 1, params)

    def test_theta_t_above_worst_case_rejected(self):
        with pytest.raises(ValueError, match="worst case"):
            cid_lead(0.25, 0.80, 0, self.params)

    @given(theta_ref=st.floats(0, THETA_WC), theta_t=st.floats(0, THETA_WC),
           a=st.floats(0.01, 10), b=st.floats(0.01, 10))
    def test_bounded_in_unit_interval(self, theta_ref, theta_t, a, b):
        # d_t must be consistent with the threshold rule for inputs to be valid
        d = int((theta_ref > 0.20) == (theta_t > 0.20))
        params = CostParams(a=a, b=b, theta_wc=THETA_WC)
        v = cid_lead(theta_ref, theta_t, d, params)
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(theta_ref=st.floats(0, THETA_WC), theta_t=st.floats(0, THETA_WC),
           scale=st.floats(0.1, 100))
    def test_cost_scale_invariance(self, theta_ref, theta_t, scale):
        d = int((theta_ref > 0.20) == (theta_t > 0.20))
        base = CostParams(a=1.0, b=2.0, theta_wc=THETA_WC)
        scaled = CostParams(a=scale, b=2.0 * scale, theta_wc=THETA_WC)
        assert cid_lead(theta_ref, theta_t, d, base) == pytest.approx(
            cid_lead(theta_ref, theta_t, d, scaled), abs=1e-9)

    def test_flat_once_below_threshold(self):
        # overestimation cost caps at the spend down to the threshold
        capped = cid_lead(0.25, 0.20, 1, self.params)
        assert cid_lead(0.25, 0.10, 0, self.params) == pytest.approx(capped)
        assert cid_lead(0.25, 0.02, 0, self.params) == pytest.approx(capped)

    def test_monotone_away_from_reference(self):
        vals_up = [cid_lead(0.25, t, 1, self.params)
                   for t in (0.25, 0.30, 0.40, 0.60)]
        assert all(x >= y for x, y in zip(vals_up, vals_up[1:]))
        vals_down = [cid_lead(0.25, t, 1, self.params)
                     for t in (0.25, 0.23, 0.21, 0.20)]
        assert all(x >= y for x, y in zip(vals_down, vals_down[1:]))


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(a=0.0, b=0.0, theta_wc=0.5)
    with pytest.raises(ValueError):
        CostParams(a=1.0, b=1.0, theta_wc=0.1, threshold=0.2)
