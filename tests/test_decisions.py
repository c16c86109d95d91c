import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cid.decisions import (ELECTION_DECISIONS, INTERVENTION_DECISIONS,
                           ElectionDecision, InterventionDecision,
                           ThresholdRule, decide_election,
                           decide_election_codes, decide_intervention,
                           decide_intervention_codes, decision_indicator)
from cid.regression import Interval


def iv(lo, hi, level=0.95):
    return Interval(lower=lo, upper=hi, level=level, center=(lo + hi) / 2)


class TestDecideElection:
    def test_challenger(self):
        assert decide_election(iv(39.6, 48.4)) is ElectionDecision.CHALLENGER_WINS

    def test_incumbent(self):
        assert decide_election(iv(51, 55)) is ElectionDecision.INCUMBENT_WINS

    def test_unclear_straddling(self):
        assert decide_election(iv(49, 51)) is ElectionDecision.UNCLEAR

    def test_unclear_tie_at_boundary(self):
        assert decide_election(iv(48, 50)) is ElectionDecision.UNCLEAR
        assert decide_election(iv(50, 52)) is ElectionDecision.UNCLEAR

    @given(lo=st.floats(0, 100), width=st.floats(0, 50), shift=st.floats(0, 20))
    def test_monotone_in_endpoints(self, lo, width, shift):
        order = [ElectionDecision.CHALLENGER_WINS, ElectionDecision.UNCLEAR,
                 ElectionDecision.INCUMBENT_WINS]
        before = decide_election(iv(lo, lo + width))
        after = decide_election(iv(lo + shift, lo + shift + width))
        assert order.index(after) >= order.index(before)


    @given(bounds=st.lists(st.tuples(st.sampled_from([48.0, 50.0, 52.0]) |
                                     st.floats(0, 100),
                                     st.sampled_from([0.0, 2.0]) |
                                     st.floats(0, 50)),
                           min_size=1, max_size=8))
    def test_codes_equal_scalar_decisions(self, bounds):
        intervals = [iv(lo, lo + w) for lo, w in bounds]
        codes = decide_election_codes([i.lower for i in intervals],
                                      [i.upper for i in intervals])
        assert [ELECTION_DECISIONS[k] for k in codes.tolist()] == \
            [decide_election(i) for i in intervals]


class TestDecideIntervention:
    rule = ThresholdRule()

    def test_above_threshold(self):
        assert decide_intervention(0.25, self.rule) is InterventionDecision.INTERVENE

    def test_at_threshold_is_strict(self):
        assert decide_intervention(0.20, self.rule) is InterventionDecision.DONT_INTERVENE

    def test_below_threshold(self):
        assert decide_intervention(0.19, self.rule) is InterventionDecision.DONT_INTERVENE

    def test_domain_error(self):
        with pytest.raises(ValueError):
            decide_intervention(1.2, self.rule)
        with pytest.raises(ValueError):
            decide_intervention(-0.1, self.rule)

    @given(theta=st.floats(0, 1))
    def test_single_step_at_threshold(self, theta):
        decision = decide_intervention(theta, self.rule)
        expected = (InterventionDecision.INTERVENE if theta > 0.20
                    else InterventionDecision.DONT_INTERVENE)
        assert decision is expected

    def test_custom_threshold(self):
        assert decide_intervention(0.25, ThresholdRule(0.30)) is \
            InterventionDecision.DONT_INTERVENE

    @given(thetas=st.lists(st.sampled_from([0.0, 0.2, 0.30, 1.0]) |
                           st.floats(0, 1), min_size=1, max_size=8),
           threshold=st.sampled_from([0.2, 0.3]) |
           st.floats(0.01, 0.99))
    def test_codes_equal_scalar_decisions(self, thetas, threshold):
        rule = ThresholdRule(threshold)
        codes = decide_intervention_codes(thetas, rule)
        assert [INTERVENTION_DECISIONS[k] for k in codes.tolist()] == \
            [decide_intervention(theta, rule) for theta in thetas]

    def test_codes_tie_is_strict(self):
        codes = decide_intervention_codes([0.19, 0.20, 0.21], self.rule)
        assert [INTERVENTION_DECISIONS[k] for k in codes.tolist()] == [
            InterventionDecision.DONT_INTERVENE,
            InterventionDecision.DONT_INTERVENE,
            InterventionDecision.INTERVENE]

    @pytest.mark.parametrize("bad", [-0.1, 1.2, math.nan, math.inf])
    def test_codes_domain_error(self, bad):
        with pytest.raises(ValueError, match="theta_hat must be in"):
            decide_intervention(bad, self.rule)
        with pytest.raises(ValueError, match="theta_hat must be in"):
            decide_intervention_codes([0.5, bad, 0.1], self.rule)


@pytest.mark.parametrize("decision", ELECTION_DECISIONS + INTERVENTION_DECISIONS)
def test_labels_need_no_csv_quoting(decision):
    # curve_to_csv writes labels unquoted
    assert not set(decision.value) & {",", '"', "\n", "\r"}


class TestDecisionIndicator:
    def test_identity(self):
        assert decision_indicator(ElectionDecision.CHALLENGER_WINS,
                                  ElectionDecision.CHALLENGER_WINS) == 1

    def test_changed(self):
        assert decision_indicator(ElectionDecision.CHALLENGER_WINS,
                                  ElectionDecision.UNCLEAR) == 0
        assert decision_indicator(InterventionDecision.INTERVENE,
                                  InterventionDecision.DONT_INTERVENE) == 0

    def test_mixed_families_rejected(self):
        with pytest.raises(TypeError):
            decision_indicator(ElectionDecision.UNCLEAR,
                               InterventionDecision.INTERVENE)

    @given(a=st.sampled_from(ElectionDecision), b=st.sampled_from(ElectionDecision))
    def test_reflexive_and_symmetric(self, a, b):
        assert decision_indicator(a, a) == 1
        assert decision_indicator(a, b) == decision_indicator(b, a)
