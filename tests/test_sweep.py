import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from cid import sweep
from cid.imputation import (ImputationConfig, accordion_mechanism,
                            mar_mechanism, parametric_mechanism)
from cid.metrics import CostParams
from cid.regression import (MEAN_RESPONSE, NEW_OBSERVATION, FittedLine,
                            predict_intervals)
from cid.sweep import (KnobDistribution, KnobGrid, PlausibleRegion,
                       expected_cid, min_cid_in_region, row_on_grid,
                       sweep_election, sweep_lead)
from tests import oracles


@pytest.fixture(scope="module")
def election_curve(hibbs_fit):
    return sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, 0.02))


def decisions(curve):
    """Each point's decision, in grid order."""
    return [curve.family[code] for code in curve.codes.tolist()]


@pytest.fixture(scope="module")
def lead_costs():
    return CostParams(a=1.0, b=1.0)


class TestKnobGrid:
    def test_contains_t0_exactly(self):
        grid = KnobGrid(-1.0, 1.0, 0.3, t0=0.0)
        assert 0.0 in grid.values()

    def test_symmetric_around_t0(self):
        vals = KnobGrid(-0.95, 1.0, 0.3, t0=0.1).values()
        assert vals.min() >= -0.95 and vals.max() <= 1.0 + 1e-12
        assert np.allclose(np.diff(vals), 0.3)
        assert np.isclose(vals, 0.1).any()

    @given(lo=st.floats(-10, 0), hi=st.floats(0, 10),
           step=st.sampled_from([0.3, 0.1, 0.02, 0.001]) | st.floats(1e-3, 5),
           frac=st.floats(0, 1))
    def test_n_points_counts_values(self, lo, hi, step, frac):
        grid = KnobGrid(lo, hi, step, t0=min(hi, lo + frac * (hi - lo)))
        assert grid.n_points() == len(grid.values())

    @pytest.mark.parametrize("lo, hi, step, n", [
        (-0.3, 0.3, 1e-4, 6001),  # 0.3 / 1e-4 == 2999.9999999999995
        (-4e9, 4e9, 1e9, 9),
    ])
    def test_grid_keeps_to_its_range(self, lo, hi, step, n):
        values = KnobGrid(lo, hi, step).values()
        assert len(values) == n
        assert values[0] == pytest.approx(lo) and values[-1] == pytest.approx(hi)
        assert lo - 1e-9 * step <= values.min()
        assert values.max() <= hi + 1e-9 * step

    def test_index_on_grid_is_the_nearest_row(self):
        grid = KnobGrid(-0.45, 1.3, 0.1, t0=-0.25)  # -0.45, -0.35, ..., 1.25
        ts = grid.values()
        for t in (-0.45, -0.25, 0.04, 0.06, 1.25, 1.29):
            assert sweep.row_on_grid(ts, t) == int(np.argmin(np.abs(ts - t)))
        for t in (-0.51, 1.31, 100.0):
            with pytest.raises(ValueError, match=r"^off grid: t = "):
                sweep.row_on_grid(ts, t)

    @staticmethod
    def probes(ts, spacing, i, step, u):
        """Knob values around grid row i and the grid's ends: the point,
        half a step either side, the rejection bound half the spacing plus
        1e-9 of it either side, with each's float neighbours, and one value
        anywhere from a step below the grid to a step above it."""
        bound = (0.5 + 1e-9) * spacing
        centres = [ts[i], ts[0], ts[-1]]
        ts_near = [c + d for c in centres
                   for d in (0.0, step / 2, -step / 2, bound, -bound)]
        return ([v for t in ts_near for v in (np.nextafter(t, -np.inf), t,
                                              np.nextafter(t, np.inf))]
                + [ts[0] - step + u * (ts[-1] - ts[0] + 2 * step)])

    @given(centre=st.floats(-10, 10) | st.floats(-1e6, 1e6),
           below=st.integers(0, 300), above=st.integers(0, 300),
           frac=st.floats(0, 1),
           step=st.sampled_from([0.3, 0.1, 0.02, 0.001, 1e-5])
           | st.floats(1e-4, 5),
           where=st.floats(0, 1), u=st.floats(0, 1))
    def test_index_on_grid_equals_argmin_lookup(self, centre, below, above,
                                                frac, step, where, u):
        grid = KnobGrid(centre - (below + frac) * step,
                        centre + (above + frac) * step, step, t0=centre)
        ts = grid.values()
        spacing = sweep.grid_spacing(ts)

        def lookup(find, t):
            try:
                return find(t)
            except ValueError as err:
                return str(err)

        def argmin_row(t):
            i = int(np.argmin(np.abs(ts - t)))
            if abs(ts[i] - t) > (0.5 + 1e-9) * spacing:
                raise ValueError(f"off grid: t = {t} is farther than step/2 "
                                 f"from any grid point")
            return i

        i = round(where * (len(ts) - 1))
        for t in self.probes(ts, spacing, i, step, u):
            t = float(t)
            assert lookup(lambda t: sweep.row_on_grid(grid.values(), t),
                          t) == lookup(argmin_row, t), t

    def test_index_on_grid_rejects_nan(self):
        with pytest.raises(ValueError, match=r"^off grid: t = nan "):
            sweep.row_on_grid(KnobGrid(-1, 1, 0.5).values(), math.nan)

    def test_validation(self):
        with pytest.raises(ValueError):
            KnobGrid(-1, 1, 0.0)
        with pytest.raises(ValueError):
            KnobGrid(1, -1, 0.1)
        with pytest.raises(ValueError):
            KnobGrid(-1, 1, 0.1, t0=2.0)


class TestSweepElection:
    def test_change_point_brackets(self, election_curve):
        brackets = election_curve.change_points
        assert len(brackets) == 2
        assert abs((brackets[0][0] + brackets[0][1]) / 2 - 0.88) <= 0.05
        assert abs((brackets[1][0] + brackets[1][1]) / 2 - 2.62) <= 0.05

    def test_overlap_half_region(self, election_curve):
        covered = election_curve.t[election_curve.j_t >= 0.5]
        assert abs(covered.min() - (-2.0)) <= 0.05
        assert abs(covered.max() - 1.2) <= 0.05

    def test_reference_point_is_maximum(self, election_curve):
        i0 = row_on_grid(election_curve.t, 0.0)
        assert election_curve.cid[i0] == 2.0
        assert election_curve.d_t[i0] == 1
        assert election_curve.reference_decision == "challenger"

    def test_estimate_affine_in_t(self, election_curve, hibbs_fit):
        ts, estimate = election_curve.t, election_curve.estimate
        i0 = row_on_grid(election_curve.t, 0.0)
        for i in range(0, len(ts), 40):
            expected = estimate[i0] + hibbs_fit.slope * (ts[i] - ts[i0])
            assert estimate[i] == pytest.approx(expected, abs=1e-9)

    def test_degenerate_single_point_grid(self, hibbs_fit):
        curve = sweep_election(hibbs_fit, -0.728, KnobGrid(0, 0, 0.02))
        assert len(curve.t) == 1
        assert curve.cid[0] == 2.0
        assert curve.change_points == ()

    def test_refinement_preserves_brackets(self, hibbs_fit, election_curve):
        fine = sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, 0.01))
        for lo, hi in election_curve.change_points:
            assert any(lo - 1e-9 <= flo and fhi <= hi + 1e-9
                       for flo, fhi in fine.change_points)


def interval_at(fit, x0, level, kind):
    """The center and interval at the single point x0."""
    center, lower, upper = predict_intervals(fit, [x0], level, kind)
    return float(center[0]), oracles.Interval(float(lower[0]), float(upper[0]))


def scalar_sweep_election(fit, x0, grid, level, kind):
    """Per-point oracle: the interval at each point, then the scalar
    decision and metric oracles."""
    _, ref = interval_at(fit, x0 + grid.t0, level, kind)
    ref_decision = oracles.decide_election(ref)
    rows = []
    for t in grid.values():
        center, interval = interval_at(fit, x0 + t, level, kind)
        decision = oracles.decide_election(interval)
        d_t = int(decision == ref_decision)
        j_t = oracles.interval_overlap(ref, interval)
        rows.append((float(t), center, interval.lower, interval.upper,
                     decision, d_t, j_t, oracles.cid_general(d_t, j_t)))
    return rows, ref_decision


# sigma2 = 0 gives zero-width intervals; the center is exactly 50 at x = 3.
POINT_FIT = FittedLine(intercept=44.0, slope=2.0, sigma2=0.0, n=16,
                       x_mean=0.5, sxx=30.0)


class TestSweepElectionMatchesScalarOracle:
    @pytest.mark.parametrize("kind", [MEAN_RESPONSE, NEW_OBSERVATION])
    @pytest.mark.parametrize("level", [0.5, 0.8, 0.95, 0.999])
    @pytest.mark.parametrize("x0, grid", [
        (-0.728, KnobGrid(-4, 4, 0.02)),
        (0.3, KnobGrid(-2, 3, 0.05, t0=0.5)),
        (-0.728, KnobGrid(0, 0, 0.02)),
    ])
    def test_hibbs_fit(self, hibbs_fit, x0, grid, level, kind):
        self.check(hibbs_fit, x0, grid, level, kind)

    @pytest.mark.parametrize("kind", [MEAN_RESPONSE, NEW_OBSERVATION])
    @pytest.mark.parametrize("x0, grid", [
        (1.0, KnobGrid(-4, 4, 0.25)),
        (3.0, KnobGrid(-1, 1, 0.5)),
        (3.0, KnobGrid(0, 0, 0.5)),
    ])
    def test_zero_width_intervals(self, x0, grid, kind):
        self.check(POINT_FIT, x0, grid, 0.95, kind)

    @staticmethod
    def check(fit, x0, grid, level, kind):
        curve = sweep_election(fit, x0, grid, level, kind)
        rows, ref_decision = scalar_sweep_election(fit, x0, grid, level, kind)
        got = list(zip(curve.t.tolist(), curve.estimate.tolist(),
                       curve.lower.tolist(), curve.upper.tolist(),
                       decisions(curve), curve.d_t.tolist(), curve.j_t.tolist(),
                       curve.cid.tolist()))
        assert got == rows
        assert curve.reference_decision == ref_decision
        expected = tuple((rows[i][0], rows[i + 1][0])
                         for i in range(len(rows) - 1)
                         if rows[i][4] != rows[i + 1][4])
        assert curve.change_points == expected


def election_roots(fit, x0, level, kind):
    """Knob values where center(t) +- q*se(t) = 50, in closed form.

    Squaring (center - 50)^2 = q^2 sigma2 (delta + 1/n + (u - x_mean)^2 / sxx)
    gives a quadratic in u = x0 + t whose roots are the decision boundaries.
    """
    delta = 1.0 if kind == NEW_OBSERVATION else 0.0
    k = stats.t.ppf(0.5 + level / 2.0, fit.n - 2) ** 2 * fit.sigma2
    c = fit.intercept - 50.0
    a = fit.slope ** 2 - k / fit.sxx
    b = 2.0 * fit.slope * c + 2.0 * k * fit.x_mean / fit.sxx
    c = c ** 2 - k * (delta + 1.0 / fit.n) - k * fit.x_mean ** 2 / fit.sxx
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return []
    return sorted((-b + sign * math.sqrt(disc)) / (2.0 * a) - x0
                  for sign in (-1.0, 1.0))


class TestElectionChangePointOracle:
    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(-3.0, 3.0), level=st.floats(0.5, 0.99),
           kind=st.sampled_from([MEAN_RESPONSE, NEW_OBSERVATION]),
           step=st.sampled_from([0.5, 0.1, 0.02, 0.005]))
    def test_brackets_hold_the_closed_form_roots(self, hibbs_fit, x0, level,
                                                 kind, step):
        roots = election_roots(hibbs_fit, x0, level, kind)
        # two crossings inside one step may leave the decision unchanged
        assume(len(roots) < 2 or roots[1] - roots[0] > step)
        curve = sweep_election(hibbs_fit, x0, KnobGrid(-4, 4, step), level, kind)
        ts = curve.t
        tol = 1e-9

        def in_bracket(r, lo, hi):
            return lo - tol <= r <= hi + tol

        for r in roots:
            if ts[0] + tol < r < ts[-1] - tol:
                assert any(in_bracket(r, lo, hi)
                           for lo, hi in curve.change_points), (r, curve.change_points)
        for lo, hi in curve.change_points:
            assert any(in_bracket(r, lo, hi) for r in roots), ((lo, hi), roots)


    @settings(max_examples=60, deadline=None)
    @given(x0=st.floats(-3.0, 3.0),
           delta=st.sampled_from([0.25, 0.3, 0.5, 1.0]) | st.floats(-2.0, 2.0),
           level=st.floats(0.5, 0.99),
           kind=st.sampled_from([MEAN_RESPONSE, NEW_OBSERVATION]),
           step=st.sampled_from([0.5, 0.1, 0.02]),
           k_lo=st.integers(0, 200), k_hi=st.integers(0, 200))
    def test_shifting_x0_shifts_the_curve(self, hibbs_fit, x0, delta, level,
                                          kind, step, k_lo, k_hi):
        # the interval at t depends on x0 + t alone: x0 moved by delta and
        # the grid, reference included, by -delta give the same rows, at
        # knob values and change points moved by -delta
        t_min, t_max = -k_lo * step, k_hi * step
        base = sweep_election(hibbs_fit, x0, KnobGrid(t_min, t_max, step),
                              level, kind)
        shifted = sweep_election(
            hibbs_fit, x0 + delta,
            KnobGrid(t_min - delta, t_max - delta, step, t0=-delta),
            level, kind)
        # a bound within rounding of 50 may be decided either way
        assume(np.all(np.abs(np.r_[base.lower, base.upper] - 50.0) > 1e-9))
        assert (len(shifted.t), shifted.i0) == (len(base.t), base.i0)
        np.testing.assert_allclose(shifted.t, base.t - delta, rtol=0,
                                   atol=1e-12)
        for column in ("estimate", "lower", "upper", "j_t", "cid"):
            np.testing.assert_allclose(getattr(shifted, column),
                                       getattr(base, column), rtol=0,
                                       atol=1e-11)
        assert shifted.codes.tolist() == base.codes.tolist()
        np.testing.assert_allclose(
            np.reshape(shifted.change_points, -1),
            np.reshape(base.change_points, -1) - delta, rtol=0, atol=1e-12)


class TestSweepLead:
    def test_accordion_change_point(self, lead_population, lead_costs):
        cfg = ImputationConfig(m=200, seed=20240101)
        curve = sweep_lead(lead_population, accordion_mechanism(),
                           KnobGrid(-2, 4, 0.05), cfg, lead_costs)
        assert curve.reference_decision == "intervene"
        assert curve.cid[row_on_grid(curve.t, 0.0)] == 1.0
        mids = [(lo + hi) / 2 for lo, hi in curve.change_points]
        assert any(abs(m - 0.4) <= 0.1 for m in mids)

    def test_zero_weight_mechanism_is_flat(self, lead_population, lead_costs):
        cfg = ImputationConfig(m=500, seed=3)
        curve = sweep_lead(lead_population, mar_mechanism(),
                           KnobGrid(-1, 1, 0.2), cfg, lead_costs)
        assert curve.change_points == ()
        assert np.ptp(curve.estimate) == 0.0
        assert np.all(curve.cid == curve.cid[0])

    def test_deterministic_given_seed(self, lead_population, lead_costs):
        cfg = ImputationConfig(m=20, seed=99)
        grid = KnobGrid(-0.5, 1.0, 0.25)
        a = sweep_lead(lead_population, parametric_mechanism(), grid, cfg,
                       lead_costs)
        b = sweep_lead(lead_population, parametric_mechanism(), grid, cfg,
                       lead_costs)
        assert a.estimate.tolist() == b.estimate.tolist()
        assert a.cid.tolist() == b.cid.tolist()

    def test_completed_freqs_equal_single_point_imputation(
            self, lead_population, lead_costs):
        cfg = ImputationConfig(m=3, seed=7)
        mech = accordion_mechanism()
        grid = KnobGrid(-1, 1, 0.25)
        rows = (8, 0, 3, 3)
        curve = sweep_lead(lead_population, mech, grid, cfg, lead_costs, rows)
        assert curve.snapshot_rows == rows
        assert curve.completed_freqs.shape == (len(rows), lead_population.k)
        for t, estimate in zip(curve.t, curve.estimate):
            theta, _ = oracles.impute_one_point(lead_population, mech, t, cfg)
            assert estimate == theta
        for i, row in zip(rows, curve.completed_freqs):
            _, freqs = oracles.impute_one_point(lead_population, mech,
                                                curve.t[i], cfg)
            assert row.tolist() == freqs.tolist()

    def test_threshold_checked_before_imputing(self, lead_population,
                                               monkeypatch):
        def fail(*args):
            raise AssertionError("imputed before checking the threshold")

        monkeypatch.setattr(sweep, "impute_theta_grid", fail)
        with pytest.raises(ValueError, match=r"^need threshold < theta_wc "
                                             r"<= 1, got threshold=0\.9, "
                                             r"theta_wc=0\.79375$"):
            sweep_lead(lead_population, accordion_mechanism(),
                       KnobGrid(-2, 4, 0.001), ImputationConfig(m=5, seed=1),
                       CostParams(a=1, b=1, threshold=0.9))


    @pytest.mark.parametrize("threshold", [0.15, 0.2, 0.3])
    def test_decides_at_the_cost_threshold(self, lead_population, threshold):
        costs = CostParams(a=1.0, b=1.0, threshold=threshold)
        curve = sweep_lead(lead_population, accordion_mechanism(),
                           KnobGrid(-4, 4, 0.1), ImputationConfig(m=3, seed=7),
                           costs)
        assert curve.codes.tolist() == (curve.estimate > threshold).tolist()
        assert set(curve.codes.tolist()) == {0, 1}  # the grid crosses it
        assert np.all((0.0 <= curve.cid) & (curve.cid <= 1.0))


def scalar_sweep_lead(pop, mech, grid, cfg, costs):
    """Per-point oracle: impute each knob value alone with the scalar
    imputation oracle, then the scalar decision and metric oracles,
    deciding at costs.threshold."""
    theta_ref = oracles.impute_one_point(pop, mech, grid.t0, cfg)[0]
    ref_decision = oracles.decide_intervention(theta_ref, costs.threshold)
    rows = []
    for t in grid.values():
        theta = oracles.impute_one_point(pop, mech, t, cfg)[0]
        decision = oracles.decide_intervention(theta, costs.threshold)
        d_t = int(decision == ref_decision)
        rows.append((float(t), theta, decision, d_t,
                     oracles.cid_lead(theta_ref, theta, d_t, costs,
                                      pop.worst_case_theta)))
    return rows, ref_decision


class TestSweepLeadMatchesScalarOracle:
    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism(), mar_mechanism()],
                             ids=lambda mech: mech.name)
    @pytest.mark.parametrize("grid, seed", [
        (KnobGrid(-1, 2, 0.25, t0=0.5), 20240101),
        (KnobGrid(-0.45, 1.3, 0.1, t0=-0.25), 7),
    ])
    def test_matches_per_point_loop(self, lead_population, mech, grid, seed):
        cfg = ImputationConfig(m=3, seed=seed)
        costs = CostParams(a=1.0, b=2.0)
        curve = sweep_lead(lead_population, mech, grid, cfg, costs)
        rows, ref_decision = scalar_sweep_lead(lead_population, mech, grid,
                                               cfg, costs)
        got = list(zip(curve.t.tolist(), curve.estimate.tolist(),
                       decisions(curve), curve.d_t.tolist(),
                       curve.cid.tolist()))
        assert got == rows
        assert curve.reference_decision == ref_decision
        expected = tuple((rows[i][0], rows[i + 1][0])
                         for i in range(len(rows) - 1)
                         if rows[i][2] != rows[i + 1][2])
        assert curve.change_points == expected
        if mech.name != "mar":
            assert expected  # the grid crosses the decision threshold


class TestExpectedCid:
    def test_point_mass_at_reference(self, election_curve):
        dist = KnobDistribution(support=(0.0,), weights=(1.0,))
        assert expected_cid(election_curve, dist) == 2.0

    def test_uniform_three_points(self, election_curve):
        dist = KnobDistribution((-0.5, 0.0, 0.5), (1, 1, 1))
        cids = [election_curve.cid[row_on_grid(election_curve.t, t)]
                for t in (-0.5, 0.0, 0.5)]
        assert expected_cid(election_curve, dist) == pytest.approx(
            np.mean(cids))

    def test_point_mass_on_changed_decision(self, election_curve):
        dist = KnobDistribution(support=(1.0,), weights=(1.0,))
        assert expected_cid(election_curve, dist) == 0.0

    def test_point_mass_snaps_exactly(self, election_curve):
        for t in (-3.14, 0.42, 2.0):
            dist = KnobDistribution(support=(t,), weights=(1.0,))
            assert expected_cid(election_curve, dist) == \
                election_curve.cid[row_on_grid(election_curve.t, t)]

    def test_support_off_grid(self, election_curve):
        dist = KnobDistribution(support=(4.5,), weights=(1.0,))
        with pytest.raises(ValueError, match="off grid"):
            expected_cid(election_curve, dist)

    def test_weights_need_not_sum_to_1(self, election_curve):
        dist = KnobDistribution(support=(0.0, 1.0), weights=(1.0, 3.0))
        cid = election_curve.cid
        assert expected_cid(election_curve, dist) == \
            0.25 * cid[row_on_grid(election_curve.t, 0.0)] + \
            0.75 * cid[row_on_grid(election_curve.t, 1.0)]

    def test_grid_step_computed_once(self, election_curve, monkeypatch):
        rng = np.random.default_rng(7)
        ts = election_curve.t
        support = ts[rng.integers(0, len(ts), 200)] + rng.uniform(
            -0.4, 0.4, 200) * sweep.grid_spacing(ts)
        dist = KnobDistribution(tuple(support.tolist()),
                                tuple(rng.uniform(0.1, 2.0, 200).tolist()))
        # the sum as expected_cid formed it with one lookup per support point
        scale = np.sum(dist.weights)
        before = 0.0
        for t, w in zip(dist.support, dist.weights):
            before += w / scale * election_curve.cid[
                row_on_grid(election_curve.t, t)]
        calls = []

        def grid_spacing(values):
            calls.append(len(values))
            return spacing(values)

        spacing = sweep.grid_spacing
        monkeypatch.setattr(sweep, "grid_spacing", grid_spacing)
        assert expected_cid(election_curve, dist) == float(before)
        assert calls == [len(ts)]

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            KnobDistribution(support=(0.0,), weights=(-1.0,))
        with pytest.raises(ValueError):
            KnobDistribution(support=(0.0,), weights=(math.nan,))
        for weights in ((0.0, 0.0), (1.0, -1.0), (math.nan, 1.0),
                        (math.inf, 1.0)):
            with pytest.raises(ValueError, match="positive finite"):
                KnobDistribution((0.0, 1.0), weights)
        with pytest.raises(ValueError, match="^weights must be nonnegative$"):
            KnobDistribution((0.0, 1.0), (2.0, -1.0))
        with pytest.raises(ValueError, match="equal length"):
            KnobDistribution((0.0, 1.0), (1.0,))


class TestAnnotatePlausibleRegion:
    """The plausible region's summary, its lowest CID (min_cid_in_region)."""

    def test_paper_region_is_stable(self, election_curve):
        assert min_cid_in_region(election_curve,
                                 PlausibleRegion(-0.635, 0.728)) >= 1.0

    def test_region_containing_both_change_points(self, election_curve):
        assert min_cid_in_region(election_curve,
                                 PlausibleRegion(0.5, 3.0)) == 0.0

    def test_bounds_on_grid_points_are_inside(self, election_curve):
        # the region is closed: a bound that is a grid point takes that point
        # in, at either end
        t, cid = election_curve.t, election_curve.cid
        first_changed = int(np.flatnonzero(cid == 0.0)[0])
        below = cid[first_changed - 5:first_changed]
        assert below.min() >= 1.0
        assert min_cid_in_region(election_curve, PlausibleRegion(
            t[first_changed - 5], t[first_changed])) == 0.0
        # the overlap, and so the CID, falls away from t0 = 0: on the
        # negative side the lowest CID of a region is at its lower bound
        i = int(np.flatnonzero(t == -3.0)[0])
        assert cid[i] < cid[i + 1:i + 6].min()
        assert min_cid_in_region(election_curve,
                                 PlausibleRegion(t[i], t[i + 5])) == cid[i]

    def test_empty_intersection_raises(self, election_curve):
        with pytest.raises(ValueError, match=r"^\[10\.0, 11\.0\] contains no "
                                             r"grid points"):
            min_cid_in_region(election_curve, PlausibleRegion(10.0, 11.0))

    def test_region_validation(self):
        with pytest.raises(ValueError):
            PlausibleRegion(1.0, 1.0)
