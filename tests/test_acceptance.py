"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
output.
"""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cid.decisions import (INTERVENTION_DECISIONS, InterventionDecision,
                           ThresholdRule, decide_intervention_codes)
from cid.imputation import (ImputationConfig, LeadPopulation, MnarMechanism,
                            _tilt_rows, accordion_mechanism,
                            impute_theta_grid, mar_mechanism,
                            parametric_mechanism)
from cid.metrics import (CostParams, cid_general, cid_lead, interval_overlaps,
                         max_cost)
from cid.regression import MEAN_RESPONSE, predict_intervals
from cid.svgfig import render_election_figure
from cid.sweep import KnobGrid, sweep_election, sweep_lead
from tests.conftest import (ACCORDION_T05_FREQS, LEAD_PROBS,
                            PARAMETRIC_T1_FREQS)

SEED = 20240101


def ok(n, message):
    print(f"ACCEPTANCE PASS criterion {n}: {message}")


@pytest.fixture(scope="module")
def election_curve(hibbs_fit):
    return sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, 0.02))


@pytest.fixture(scope="module")
def lead_costs():
    return CostParams(a=1.0, b=1.0)


@pytest.fixture(scope="module")
def theta_wc(lead_population):
    return lead_population.worst_case_theta


@pytest.fixture(scope="module")
def lead_cfg():
    return ImputationConfig(m=200, seed=SEED)


@pytest.fixture(scope="module")
def accordion_curve(lead_population, lead_cfg, lead_costs):
    return sweep_lead(lead_population, accordion_mechanism(),
                      KnobGrid(-2, 4, 0.05), lead_cfg, lead_costs)


@pytest.fixture(scope="module")
def parametric_curve(lead_population, lead_cfg, lead_costs):
    return sweep_lead(lead_population, parametric_mechanism(),
                      KnobGrid(-2, 4, 0.05), lead_cfg, lead_costs)


def test_criterion_1_regression_reproduction(hibbs_fit):
    assert hibbs_fit.intercept == pytest.approx(46.248, abs=0.01)
    assert hibbs_fit.slope == pytest.approx(3.061, abs=0.01)
    assert hibbs_fit.sigma2 == pytest.approx(14.16, abs=0.05)
    ok(1, f"intercept {hibbs_fit.intercept:.3f}, slope {hibbs_fit.slope:.3f}, "
          f"sigma2 {hibbs_fit.sigma2:.2f}")


def test_criterion_2_prediction_reproduction(hibbs_fit):
    (center,), (lower,), (upper,) = predict_intervals(hibbs_fit, [-0.728],
                                                      0.95, MEAN_RESPONSE)
    assert center == pytest.approx(44.0, abs=0.1)
    assert lower == pytest.approx(39.6, abs=0.3)
    assert upper == pytest.approx(48.4, abs=0.3)
    ok(2, f"center {center:.1f}, interval ({lower:.1f}, {upper:.1f})")


def test_criterion_3_election_change_points(election_curve):
    brackets = election_curve.change_points
    assert any(lo - 0.05 <= 0.88 <= hi + 0.05 for lo, hi in brackets)
    assert any(lo - 0.05 <= 2.62 <= hi + 0.05 for lo, hi in brackets)
    covered = election_curve.t[election_curve.j_t >= 0.5]
    assert covered.min() == pytest.approx(-2.0, abs=0.05)
    assert covered.max() == pytest.approx(1.2, abs=0.05)
    ok(3, f"brackets {brackets}, J>=0.5 on "
          f"[{covered.min():.2f}, {covered.max():.2f}]")


def test_criterion_4_lead_mar_reference(lead_population, lead_cfg):
    (theta,), _ = impute_theta_grid(lead_population, mar_mechanism(), [0.0],
                                    lead_cfg)
    assert theta == pytest.approx(0.25, abs=0.005)
    assert INTERVENTION_DECISIONS[decide_intervention_codes(
        theta, ThresholdRule())] is InterventionDecision.INTERVENE
    ok(4, f"MAR theta {theta:.4f}, decision intervene")


def test_criterion_5_worst_case_and_scaling(lead_population, lead_costs,
                                            theta_wc):
    assert theta_wc == pytest.approx(0.79, abs=0.01)
    observed_fraction_high = (lead_population.observed_high_count
                              / lead_population.n_observed)
    c = max_cost(observed_fraction_high, lead_costs, theta_wc)
    assert c == pytest.approx(0.54, abs=0.01)
    ok(5, f"theta_wc {theta_wc:.4f}, C {c:.4f}")


def test_criterion_6_lead_change_points_and_frequencies(
        lead_population, lead_cfg, accordion_curve, parametric_curve):
    acc_mids = [(lo + hi) / 2 for lo, hi in accordion_curve.change_points]
    par_mids = [(lo + hi) / 2 for lo, hi in parametric_curve.change_points]
    assert any(abs(m - 0.4) <= 0.1 for m in acc_mids)
    assert any(abs(m - 0.8) <= 0.1 for m in par_mids)

    (theta_acc,), (freqs_acc,) = impute_theta_grid(
        lead_population, accordion_mechanism(), [0.5], lead_cfg, rows=[0])
    assert theta_acc == pytest.approx(0.19, abs=0.01)
    assert freqs_acc == pytest.approx(ACCORDION_T05_FREQS, abs=0.01)

    (theta_par,), (freqs_par,) = impute_theta_grid(
        lead_population, parametric_mechanism(), [1.0], lead_cfg, rows=[0])
    assert theta_par == pytest.approx(0.19, abs=0.01)
    assert freqs_par == pytest.approx(PARAMETRIC_T1_FREQS, abs=0.01)
    ok(6, f"accordion bracket near {acc_mids}, parametric near {par_mids}; "
          f"theta(acc, 0.5) {theta_acc:.3f}, theta(par, 1) {theta_par:.3f}")


def test_criterion_7_cid_spot_values(lead_costs, theta_wc):
    c = max_cost(0.25, lead_costs, theta_wc)
    got = cid_lead(0.25, 0.15, 0, lead_costs, theta_wc)
    assert got == pytest.approx(1.0 - 0.05 / c, abs=1e-9)
    assert cid_general(1, 1.0) == 2.0
    ok(7, f"cid_lead(0.25, 0.15) = {got:.6f} = 1 - 0.05/{c:.4f}; "
          f"cid_general at t0 = 2.0")


class TestCriterion8Properties:
    """Property suite: all must pass for criterion 8."""

    def test_overlap_symmetry_bounds_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            a_lo, b_lo = rng.uniform(-10, 10, 2)
            a = (a_lo, a_lo + rng.uniform(0.1, 5))
            b = (b_lo, b_lo + rng.uniform(0.1, 5))
            j = interval_overlaps(*a, *b)
            assert 0.0 <= j <= 1.0
            assert j == interval_overlaps(*b, *a)
            assert interval_overlaps(*a, *a) == 1.0

    def test_cid_general_range(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            v = cid_general(int(rng.integers(2)), float(rng.random()))
            assert v == 0.0 or 1.0 <= v <= 2.0

    def test_cid_lead_bounds(self, lead_costs, theta_wc):
        rng = np.random.default_rng(2)
        for _ in range(500):
            theta_ref, theta_t = rng.uniform(0, theta_wc, 2)
            d = int((theta_ref > 0.20) == (theta_t > 0.20))
            assert 0.0 <= cid_lead(theta_ref, theta_t, d, lead_costs,
                                   theta_wc) <= 1.0

    def test_softmax_shift_invariance_and_composition(self):
        p = np.array(LEAD_PROBS) / sum(LEAD_PROBS)
        w = parametric_mechanism().as_array()

        def tilt(q, weights, t):
            return _tilt_rows(q, weights, np.array([t]))[0]

        a = tilt(p, w, 1.3)
        assert tilt(p, w + 2.5, 1.3) == pytest.approx(a, abs=1e-10)
        assert tilt(tilt(p, w, 0.7), w, 0.6) == pytest.approx(a, abs=1e-10)

    def test_count_based_vs_per_record_oracle(self):
        # K = 3, N = 20, n = 10; compare the mean theta of 5,000 rounds of
        # impute_theta_grid with 50,000 imputations one record at a time
        pop = LeadPopulation(observed_counts=(4, 3, 3), n_total=20,
                             cutoff_level=2)
        mech = MnarMechanism(weights=(1.0, 0.5, 0.0))
        t = 0.7
        reps = 50_000

        (count_theta,), _ = impute_theta_grid(
            pop, mech, [t], ImputationConfig(m=5_000, seed=101))

        # oracle: impute the 10 missing records one categorical draw at a time
        oracle_rng = np.random.default_rng(202)
        g = oracle_rng.standard_gamma(
            1.0 + np.broadcast_to(pop.counts_array(), (reps, 3)))
        p = g / g.sum(axis=1, keepdims=True)
        p_t = p * np.exp(t * np.array(mech.weights))
        p_t /= p_t.sum(axis=1, keepdims=True)
        cdf = np.cumsum(p_t, axis=1)
        high = np.zeros(reps, dtype=np.int64)
        for _ in range(pop.n_missing):
            u = oracle_rng.random((reps, 1))
            draw = (u > cdf[:, :-1]).sum(axis=1)
            high += draw == 2
        oracle_thetas = (pop.observed_high_count + high) / pop.n_total

        assert count_theta == pytest.approx(oracle_thetas.mean(), abs=0.005)

    def test_seed_determinism_byte_identical(self, lead_population, lead_costs):
        from cid.cli import curve_to_csv
        cfg = ImputationConfig(m=25, seed=SEED)
        grid = KnobGrid(-0.5, 1.0, 0.25)
        runs = [sweep_lead(lead_population, accordion_mechanism(), grid, cfg,
                           lead_costs) for _ in range(2)]
        assert curve_to_csv(runs[0]).encode() == curve_to_csv(runs[1]).encode()

    def test_svg_parse_back_within_half_pixel(self, hibbs_fit):
        curve = sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, 0.05))
        svg = render_election_figure(curve, "")
        root = ET.fromstring(svg)
        panel = next(el for el in root.iter()
                     if el.get("class") == "cid-panel")
        attrs = {k.replace("data-", ""): float(v)
                 for k, v in panel.attrib.items() if k.startswith("data-")}
        poly = next(el for el in root.iter()
                    if el.get("class") == "cid-polyline")
        for raw, t, cid in zip(poly.get("points").split(), curve.t, curve.cid):
            x, y = map(float, raw.split(","))
            expect_x = attrs["left"] + (t - attrs["xmin"]) / \
                (attrs["xmax"] - attrs["xmin"]) * attrs["width"]
            expect_y = attrs["top"] + (attrs["ymax"] - cid) / \
                (attrs["ymax"] - attrs["ymin"]) * attrs["height"]
            assert abs(x - expect_x) <= 0.5
            assert abs(y - expect_y) <= 0.5

    def test_summary_line(self):
        ok(8, "property suite (overlap, CID ranges, softmax, imputation "
              "oracle, determinism, SVG parse-back)")
