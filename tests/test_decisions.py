import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cid.decisions import (ELECTION_DECISIONS, INTERVENTION_DECISIONS,
                           decide_election_codes, decide_intervention_codes)
from cid.sweep import CidCurve
from tests import oracles


def decide_election(lo, hi):
    return ELECTION_DECISIONS[decide_election_codes(lo, hi)]


def decide_intervention(theta, threshold):
    return INTERVENTION_DECISIONS[decide_intervention_codes(theta, threshold)]


class TestDecideElection:
    def test_challenger(self):
        assert decide_election(39.6, 48.4) == "challenger"

    def test_incumbent(self):
        assert decide_election(51, 55) == "incumbent"

    def test_unclear_straddling(self):
        assert decide_election(49, 51) == "unclear"

    def test_unclear_tie_at_boundary(self):
        assert decide_election(48, 50) == "unclear"
        assert decide_election(50, 52) == "unclear"

    @given(lo=st.floats(0, 100), width=st.floats(0, 50), shift=st.floats(0, 20))
    def test_monotone_in_endpoints(self, lo, width, shift):
        order = ["challenger", "unclear", "incumbent"]
        before = decide_election(lo, lo + width)
        after = decide_election(lo + shift, lo + shift + width)
        assert order.index(after) >= order.index(before)


    @given(bounds=st.lists(st.tuples(st.sampled_from([48.0, 50.0, 52.0]) |
                                     st.floats(0, 100),
                                     st.sampled_from([0.0, 2.0]) |
                                     st.floats(0, 50)),
                           min_size=1, max_size=8))
    def test_codes_equal_scalar_decisions(self, bounds):
        intervals = [oracles.Interval(lo, lo + w) for lo, w in bounds]
        codes = decide_election_codes([i.lower for i in intervals],
                                      [i.upper for i in intervals])
        assert [ELECTION_DECISIONS[k] for k in codes.tolist()] == \
            [oracles.decide_election(i) for i in intervals]


class TestDecideIntervention:
    threshold = 0.20

    def test_above_threshold(self):
        assert decide_intervention(0.25, self.threshold) == "intervene"

    def test_at_threshold_is_strict(self):
        assert decide_intervention(0.20, self.threshold) == "no-intervene"

    def test_below_threshold(self):
        assert decide_intervention(0.19, self.threshold) == "no-intervene"

    def test_domain_error(self):
        with pytest.raises(ValueError):
            decide_intervention(1.2, self.threshold)
        with pytest.raises(ValueError):
            decide_intervention(-0.1, self.threshold)

    @given(theta=st.floats(0, 1))
    def test_single_step_at_threshold(self, theta):
        decision = decide_intervention(theta, self.threshold)
        expected = "intervene" if theta > 0.20 else "no-intervene"
        assert decision == expected

    def test_custom_threshold(self):
        assert decide_intervention(0.25, 0.30) == "no-intervene"

    @given(thetas=st.lists(st.sampled_from([0.0, 0.2, 0.30, 1.0]) |
                           st.floats(0, 1), min_size=1, max_size=8),
           threshold=st.sampled_from([0.2, 0.3]) |
           st.floats(0.01, 0.99))
    def test_codes_equal_scalar_decisions(self, thetas, threshold):
        codes = decide_intervention_codes(thetas, threshold)
        assert [INTERVENTION_DECISIONS[k] for k in codes.tolist()] == \
            [oracles.decide_intervention(theta, threshold) for theta in thetas]

    def test_codes_tie_is_strict(self):
        codes = decide_intervention_codes([0.19, 0.20, 0.21], self.threshold)
        assert [INTERVENTION_DECISIONS[k] for k in codes.tolist()] == [
            "no-intervene", "no-intervene", "intervene"]

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError, match=r"^threshold must be in "
                                             r"\(0, 1\), got "):
            decide_intervention_codes([0.1, 0.5], threshold)

    @pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan, math.inf])
    def test_codes_domain_error(self, bad):
        with pytest.raises(ValueError, match="theta_hat must be in"):
            decide_intervention_codes(bad, self.threshold)
        with pytest.raises(ValueError, match="theta_hat must be in"):
            decide_intervention_codes([0.5, bad, 0.1], self.threshold)


@pytest.mark.parametrize("decision", ELECTION_DECISIONS + INTERVENTION_DECISIONS)
def test_labels_need_no_csv_quoting(decision):
    # the CSV (cli._csv_blocks) writes labels unquoted
    assert not set(decision) & {",", '"', "\n", "\r"}


def reference_indicator(codes, i0=0):
    """The d_t column of a curve with these decision codes, reference row i0."""
    codes = np.asarray(codes)
    t = np.arange(len(codes), dtype=float)
    curve = CidCurve(t=t, estimate=t, codes=codes, family=ELECTION_DECISIONS,
                     cid=t, i0=i0)
    return curve.d_t.tolist()


class TestDecisionIndicator:
    def test_identity(self):
        assert reference_indicator([0, 0]) == [1, 1]

    def test_changed(self):
        assert reference_indicator([0, 1]) == [1, 0]
        assert reference_indicator([1, 0]) == [1, 0]

    @given(a=st.integers(0, 2), b=st.integers(0, 2))
    def test_reflexive_and_symmetric(self, a, b):
        assert reference_indicator([a, a]) == [1, 1]
        assert reference_indicator([a, b]) == reference_indicator([b, a])


@given(data=st.data(), family=st.sampled_from([ELECTION_DECISIONS,
                                               INTERVENTION_DECISIONS]),
       n=st.integers(0, 40))
def test_derived_columns_equal_per_row_loop(data, family, n):
    codes = data.draw(st.lists(st.integers(0, len(family) - 1), min_size=n,
                               max_size=n))
    t = np.arange(n) * 0.25 - 1.0
    i0 = data.draw(st.integers(0, n - 1)) if n else 0
    curve = CidCurve(t=t, estimate=t, codes=np.array(codes, dtype=int),
                     family=family, cid=t, i0=i0)
    assert curve.d_t.tolist() == [int(c == codes[i0]) for c in codes]
    assert curve.change_points == tuple(
        (t[i], t[i + 1]) for i in range(n - 1) if codes[i] != codes[i + 1])
    if n:
        assert curve.reference_decision == family[codes[i0]]
