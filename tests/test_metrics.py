import math
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cid.imputation import LeadPopulation
from cid.metrics import (CostParams, cid_general, cid_lead, interval_overlaps,
                         max_cost)
from tests import oracles
from tests.oracles import Interval as iv


def interval_overlap(a, b):
    return float(interval_overlaps(a.lower, a.upper, b.lower, b.upper))


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
        expected = [oracles.interval_overlap(ref, o) for o in others]
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


def worst_case_theta(observed_high_count, n_observed, n_total):
    """LeadPopulation.worst_case_theta of a two-level population with these
    counts, level 2 being the high one."""
    return LeadPopulation((n_observed - observed_high_count,
                           observed_high_count), n_total,
                          cutoff_level=1).worst_case_theta


class TestWorstCaseTheta:
    def test_lead_case_study(self, lead_population):
        assert worst_case_theta(27_500, 110_000, 400_000) == pytest.approx(
            0.79375)
        assert lead_population.worst_case_theta == 0.79375
        # (high observed + missing) / total, from the population's counts
        assert lead_population.worst_case_theta == (
            (sum(lead_population.observed_counts[3:]) + 400_000
             - sum(lead_population.observed_counts)) / 400_000)

    def test_fully_observed_none_high(self):
        assert worst_case_theta(0, 1000, 1000) == 0.0

    def test_all_observed_all_high(self):
        assert worst_case_theta(1000, 1000, 1000) == 1.0

    def test_count_violations(self):
        with pytest.raises(ValueError, match="exceeds n_total"):
            worst_case_theta(1, 5, 4)
        with pytest.raises(ValueError, match="n_total >= 1"):
            worst_case_theta(0, 0, 0)


THETA_WC = 0.79375


class TestCidLead:
    params = CostParams(a=1.0, b=1.0)

    def test_overestimate_capped_at_threshold_spend(self):
        c = max_cost(0.25, self.params, THETA_WC)
        got = cid_lead(0.25, 0.15, 0, self.params, THETA_WC)
        assert got == pytest.approx(1.0 - 0.05 / c, abs=1e-12)
        assert got == pytest.approx(1.0 - 0.05 / 0.54, abs=0.01)

    def test_small_overestimate(self):
        c = max_cost(0.25, self.params, THETA_WC)
        assert cid_lead(0.25, 0.22, 1, self.params,
                        THETA_WC) == pytest.approx(
            1.0 - 0.03 / c, abs=1e-12)

    def test_no_cost_at_reference(self):
        assert cid_lead(0.25, 0.25, 1, self.params, THETA_WC) == 1.0

    def test_reference_below_threshold(self):
        c = max_cost(0.18, self.params, THETA_WC)
        assert c == pytest.approx((THETA_WC - 0.20) * 1.0)
        assert cid_lead(0.18, 0.27, 0, self.params,
                        THETA_WC) == pytest.approx(
            1.0 - 0.07 / c, abs=1e-12)
        # decision unchanged: no cost
        assert cid_lead(0.18, 0.19, 1, self.params, THETA_WC) == 1.0

    def test_degenerate_scaling(self):
        params = CostParams(a=1.0, b=0.0)
        with pytest.raises(ValueError, match="degenerate scaling"):
            cid_lead(0.20, 0.15, 1, params, THETA_WC)

    def test_theta_t_above_worst_case_rejected(self):
        with pytest.raises(ValueError, match="worst case"):
            cid_lead(0.25, 0.80, 0, self.params, THETA_WC)

    @given(theta_ref=st.floats(0, THETA_WC), theta_t=st.floats(0, THETA_WC),
           a=st.floats(0.01, 10), b=st.floats(0.01, 10))
    def test_bounded_in_unit_interval(self, theta_ref, theta_t, a, b):
        # d_t must be consistent with the threshold rule for inputs to be valid
        d = int((theta_ref > 0.20) == (theta_t > 0.20))
        params = CostParams(a=a, b=b)
        v = cid_lead(theta_ref, theta_t, d, params, THETA_WC)
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(theta_ref=st.floats(0, THETA_WC), theta_t=st.floats(0, THETA_WC),
           scale=st.floats(0.1, 100))
    def test_cost_scale_invariance(self, theta_ref, theta_t, scale):
        d = int((theta_ref > 0.20) == (theta_t > 0.20))
        base = CostParams(a=1.0, b=2.0)
        scaled = CostParams(a=scale, b=2.0 * scale)
        assert cid_lead(theta_ref, theta_t, d, base,
                        THETA_WC) == pytest.approx(
            cid_lead(theta_ref, theta_t, d, scaled, THETA_WC), abs=1e-9)

    def test_flat_once_below_threshold(self):
        # overestimation cost caps at the spend down to the threshold
        capped = cid_lead(0.25, 0.20, 1, self.params, THETA_WC)
        assert cid_lead(0.25, 0.10, 0, self.params,
                        THETA_WC) == pytest.approx(capped)
        assert cid_lead(0.25, 0.02, 0, self.params,
                        THETA_WC) == pytest.approx(capped)

    def test_monotone_away_from_reference(self):
        vals_up = [cid_lead(0.25, t, 1, self.params, THETA_WC)
                   for t in (0.25, 0.30, 0.40, 0.60)]
        assert all(x >= y for x, y in zip(vals_up, vals_up[1:]))
        vals_down = [cid_lead(0.25, t, 1, self.params, THETA_WC)
                     for t in (0.25, 0.23, 0.21, 0.20)]
        assert all(x >= y for x, y in zip(vals_down, vals_down[1:]))


class TestCidLeadArrays:
    """cid_lead over an array of estimates equals the scalar oracle at
    every entry."""

    # ties: theta_t == theta_ref, theta_ref == threshold, theta_t == threshold
    ties = st.sampled_from([0.0, 0.15, 0.20, 0.25, THETA_WC])

    @given(theta_ref=ties | st.floats(0, THETA_WC),
           entries=st.lists(st.tuples(ties | st.floats(0, THETA_WC),
                                      st.sampled_from([0, 1])),
                            min_size=1, max_size=8),
           a=st.sampled_from([0.0, 1.0]) | st.floats(0.01, 10),
           b=st.sampled_from([0.0, 2.0]) | st.floats(0.01, 10))
    def test_equals_oracle_elementwise(self, theta_ref, entries, a, b):
        assume(a > 0 or b > 0)
        params = CostParams(a=a, b=b)
        theta_ts = [theta_t for theta_t, _ in entries]
        d_ts = [d for _, d in entries]
        try:
            expected = [oracles.cid_lead(theta_ref, theta_t, d, params,
                                         THETA_WC)
                        for theta_t, d in entries]
        except ValueError as err:  # degenerate scaling, for every entry
            with pytest.raises(ValueError, match=re.escape(str(err))):
                cid_lead(theta_ref, theta_ts, d_ts, params, THETA_WC)
            return
        assert cid_lead(theta_ref, theta_ts, d_ts, params,
                        THETA_WC).tolist() == expected
        assert cid_lead([theta_ref] * len(entries), theta_ts, d_ts,
                        params, THETA_WC).tolist() == expected

    @pytest.mark.parametrize("theta_ref, theta_t, d_t", [
        (0.25, 0.80, 1),  # above theta_wc
        (0.25, 0.30, 2),
        (0.25, 0.30, -1),
        (1.5, 0.30, 1),
    ])
    def test_out_of_range_entry_raises_like_scalar(self, theta_ref, theta_t,
                                                   d_t):
        params = CostParams(a=1.0, b=1.0)
        with pytest.raises(ValueError) as scalar:
            oracles.cid_lead(theta_ref, theta_t, d_t, params, THETA_WC)
        message = re.escape(str(scalar.value))
        with pytest.raises(ValueError, match=f"^{message}$"):
            cid_lead(theta_ref, [0.25, theta_t, 0.1], [1, d_t, 0], params,
                     THETA_WC)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cid_lead(theta_ref, theta_t, d_t, params, THETA_WC)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(a=0.0, b=0.0)
    # a worst case theta_wc at or below the threshold, or above 1, is
    # rejected where it is used
    params = CostParams(a=1.0, b=1.0, threshold=0.2)
    for theta_wc in (0.1, 0.2, 1.5):
        with pytest.raises(ValueError, match="need threshold < theta_wc <= 1"):
            max_cost(0.15, params, theta_wc)
        with pytest.raises(ValueError, match="need threshold < theta_wc <= 1"):
            cid_lead(0.15, 0.05, 1, params, theta_wc)
