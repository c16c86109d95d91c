import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from cid import imputation, textcols
from cid.errors import InputError
from cid.imputation import (BATCH, CELL, MAX_MISSING, ImputationConfig,
                            LeadPopulation, MnarMechanism, _cell_fields,
                            _cell_shapes, _draw_round, _quantile_binomial,
                            _tilt_levels, accordion_mechanism,
                            impute_theta_grid, mar_mechanism,
                            parametric_mechanism, substream)
from cid.streams import UNIFORMS
from tests import oracles
from tests.conftest import LEAD_PROBS


def dist(*probs):
    p = np.asarray(probs, dtype=float)
    return p / p.sum()


def tilt(p, mech, t):
    """p tilted by mech at the single knob value t, normalized."""
    tilted = _tilt_levels(p, mech.as_array(), np.array([t]))[:, 0]
    return tilted / tilted.sum()


def impute_theta(pop, mech, t, cfg):
    """impute_theta_grid at the single knob value t."""
    thetas, freqs = impute_theta_grid(pop, mech, [t], cfg, rows=[0])
    return thetas[0], freqs[0]


def count_below(q, bounds, rng, n):
    """Units at or below each probability q among n uniforms with the cell
    edges bounds of _draw_round and the cell uniforms of rng, as
    impute_theta_grid counts them."""
    j, inside, r, u_j = _cell_fields(q, bounds, rng, n)
    return CELL * j + _quantile_binomial(inside, r, u_j)


def posterior_draws(pop, seed, rounds):
    """The posterior draws of rounds 0, ..., rounds - 1 as impute_theta_grid
    makes them (_draw_round), one per row."""
    shapes = np.concatenate((1.0 + pop.counts_array(),
                             _cell_shapes(pop.n_missing)))
    return np.array([_draw_round(substream(seed, i), shapes, pop.k)[0]
                     for i in range(rounds)])


def draw_cells(rng, n):
    """The cell edges of n uniforms drawn from rng (_draw_round, with no
    posterior before them)."""
    return _draw_round(rng, _cell_shapes(n), 0)[1]


class TestMechanisms:
    def test_accordion_weights(self):
        w = accordion_mechanism().weights
        assert w[:3] == (1, 1, 1)
        assert all(x == 0 for x in w[3:])

    def test_parametric_weights(self):
        w = parametric_mechanism().weights
        assert w == (1, 0.9, 0.8, 0.6, 0.4, 0, 0, 0, -0.2, -0.25)

    def test_zero_tilt_is_identity(self):
        p = dist(*LEAD_PROBS)
        for mech in (accordion_mechanism(), parametric_mechanism()):
            assert tilt(p, mech, 0.0) == pytest.approx(p)


class TestDirichletPosterior:
    def test_flat_prior_is_uniform_on_simplex(self):
        pop = LeadPopulation(observed_counts=(0,) * 10, n_total=100)
        draws = posterior_draws(pop, 0, 10_000)
        assert draws.mean(axis=0) == pytest.approx([0.1] * 10, abs=0.01)

    def test_posterior_mean_matches_observed_frequencies(self, lead_population):
        draws = posterior_draws(lead_population, 1, 2_000)
        assert draws.mean(axis=0) == pytest.approx(LEAD_PROBS, abs=0.005)

    def test_against_rejection_sampling_oracle(self):
        # Dirichlet(2,1,1): density proportional to x1, component-1 mean 1/2.
        pop = LeadPopulation(observed_counts=(1, 0, 0), n_total=1,
                             cutoff_level=1)
        draws = posterior_draws(pop, 2, 50_000)[:, 0]

        # oracle: uniform simplex proposals accepted with probability x1
        oracle_rng = np.random.default_rng(3)
        e = oracle_rng.standard_exponential((50_000, 3))
        proposals = e / e.sum(axis=1, keepdims=True)
        accepted = proposals[oracle_rng.random(50_000) < proposals[:, 0], 0]
        assert draws.mean() == pytest.approx(accepted.mean(), abs=0.01)
        assert draws.mean() == pytest.approx(0.5, abs=0.01)


class TestTilt:
    def test_accordion_half_tilt_direct_softmax(self):
        p = dist(*LEAD_PROBS)
        out = tilt(p, accordion_mechanism(), 0.5)
        w = np.exp(0.5 * np.array(accordion_mechanism().weights))
        expected = np.array(LEAD_PROBS) * w
        expected /= expected.sum()
        assert out == pytest.approx(expected, abs=1e-12)
        assert out[0] == pytest.approx(0.244, abs=0.001)
        assert out[1] == pytest.approx(0.344, abs=0.001)
        assert out[3] == pytest.approx(0.0875, abs=0.001)

    def test_parametric_full_tilt_blended_matches_published_row(self):
        p = dist(*LEAD_PROBS)
        p_t = tilt(p, parametric_mechanism(), 1.0)
        n, big_n = 110_000, 400_000
        blended = (n * np.array(LEAD_PROBS) + (big_n - n) * p_t) / big_n
        published = (0.26, 0.33, 0.22, 0.11, 0.03, 0.02, 0.01,
                     0.006, 0.006, 0.005)
        assert blended == pytest.approx(published, abs=0.01)

    def test_baseline_category_empty(self):
        p = dist(0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="baseline category empty"):
            tilt(p, MnarMechanism(weights=(1, 0, 0)), 1.0)

    def test_overflow_names_the_farthest_t(self, monkeypatch):
        # the largest |t| and |w| decide, before any round draws
        def fail(*args):
            raise AssertionError("drew before checking t * w")

        monkeypatch.setattr(imputation, "substream", fail)
        pop = LeadPopulation((2, 1, 1), n_total=10, cutoff_level=1)
        for weights, ts, message in [
            ((1e308, 1.0, -1e308), np.linspace(-2.0, 4.0, 121),
             "weight 1e+308 times knob value t = 4.0 is not finite"),
            # 1.5e308 is finite, 3e308 is not
            ((1e308, 1.0, -1e308), [0.5, 1.5, 2.0, -3.0],
             "weight 1e+308 times knob value t = -3.0 is not finite"),
            ((0.0, 0.0, 0.0), [0.0, np.inf],
             "weight 0.0 times knob value t = inf is not finite"),
            ((1.0, 0.0, 0.0), [0.0, np.nan, 1.0],
             "weight 1.0 times knob value t = nan is not finite"),
        ]:
            with pytest.raises(InputError,
                               match=f"^{re.escape(message)}$") as err:
                impute_theta_grid(pop, MnarMechanism(weights), ts,
                                  ImputationConfig(m=1))
            assert err.value.field == "weights"

    def test_weight_length_mismatch(self):
        pop = LeadPopulation((5, 5), n_total=10, cutoff_level=1)
        with pytest.raises(InputError, match="^accordion has 10 weights for "
                                             "the 2 levels$") as err:
            impute_theta_grid(pop, accordion_mechanism(), [1.0],
                              ImputationConfig(m=1))
        assert err.value.field == "weights"

    @given(probs=arrays(float, 10,
                        elements=st.floats(0.01, 1.0)),
           shift=st.floats(-5, 5))
    @settings(max_examples=50)
    def test_shift_invariance(self, probs, shift):
        # adding a constant to every log-odds component changes nothing
        p = dist(*probs)
        base = tilt(p, parametric_mechanism(), 1.0)
        shifted_mech = MnarMechanism(
            weights=tuple(w + shift for w in parametric_mechanism().weights))
        shifted = tilt(p, shifted_mech, 1.0)
        assert sum(base) == pytest.approx(1.0, abs=1e-12)
        assert shifted == pytest.approx(base, abs=1e-10)

    @given(probs=arrays(float, 10, elements=st.floats(0.01, 1.0)),
           t1=st.floats(-2, 2), t2=st.floats(-2, 2))
    @settings(max_examples=50)
    def test_tilt_composition(self, probs, t1, t2):
        p = dist(*probs)
        mech = parametric_mechanism()
        twice = tilt(tilt(p, mech, t1), mech, t2)
        once = tilt(p, mech, t1 + t2)
        assert twice == pytest.approx(once, abs=1e-10)

    @given(probs=arrays(float, 6, elements=st.floats(0.01, 1.0)),
           weights=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=50)
    def test_extreme_tilt_moves_mass_to_extreme_weights(self, probs, weights,
                                                        sign):
        # t -> +inf keeps only the levels with the largest w, t -> -inf the
        # smallest, in proportion to p; exp(t*w) alone overflows long before
        p = dist(*probs)
        w = np.array(weights, dtype=float)
        out = tilt(p, MnarMechanism(weights=tuple(weights)), sign * 1e4)
        extreme = w == (w.max() if sign > 0 else w.min())
        expected = np.where(extreme, p, 0.0)
        assert np.all(np.isfinite(out))
        assert out == pytest.approx(expected / expected.sum(), abs=1e-12)

    def test_accordion_high_mass_decreasing_in_t(self):
        p = dist(*LEAD_PROBS)
        masses = [sum(tilt(p, accordion_mechanism(), t)[3:])
                  for t in np.linspace(-2, 4, 25)]
        assert all(x > y for x, y in zip(masses, masses[1:]))

    def test_weights_spanning_beyond_the_float_range(self):
        # w_1 - w_3 overflows, while each t*w is +-10 or 0
        p = dist(1, 2, 3)
        w = np.array([1e308, 0.0, -1e308])
        ts = np.array([-1e-307, 0.0, 1e-307])
        expected = [p[0] * np.exp(t * w[0]) / (p * np.exp(t * w)).sum()
                    for t in ts]
        assert imputation._low_share(_tilt_levels(p, w, ts), 1) == \
            pytest.approx(expected, rel=1e-12)

    @given(c=st.floats(-1e300, 1e300) | st.sampled_from([1e300, -1e300]),
           ts=st.lists(st.floats(-1, 1), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_equal_weights_do_not_tilt(self, lead_population, c, ts):
        # ten equal weights are no tilt, however large: theta(t) = theta(t0)
        thetas, _ = impute_theta_grid(lead_population, MnarMechanism((c,) * 10),
                                      [0.0] + ts, ImputationConfig(m=2, seed=3))
        assert thetas.tolist() == [thetas[0]] * len(thetas)

    @given(probs=arrays(float, 10, elements=st.floats(0.01, 1.0)),
           ks=st.lists(st.integers(-8, 8), min_size=10, max_size=10),
           offset=st.integers(-(2**53 - 16), 2**53 - 16),
           scale=st.integers(-30, 900),
           ts=st.lists(st.floats(-4, 4), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_weight_offset(self, probs, ks, offset, scale, ts):
        # w + c is exact: each k + offset is an integer below 2^53 times the
        # same power of two; adding c to every weight leaves q_t as it was
        p = dist(*probs)
        w = np.ldexp(np.array(ks, dtype=float), scale)
        shifted = np.ldexp(np.array(ks, dtype=float) + offset, scale)
        ts = np.array(ts)
        q = imputation._low_share(_tilt_levels(p, w, ts), 3)
        np.testing.assert_array_max_ulp(
            imputation._low_share(_tilt_levels(p, shifted, ts), 3), q,
            maxulp=4)


class TestImputeTheta:
    def test_mar_reference(self, lead_population):
        cfg = ImputationConfig(m=5, seed=20240101)
        theta, _ = impute_theta(lead_population, mar_mechanism(), 0.0, cfg)
        assert theta == pytest.approx(0.25, abs=0.01)

    def test_fully_observed_is_exact(self):
        pop = LeadPopulation(observed_counts=(30, 30, 20, 20), n_total=100,
                             cutoff_level=2)
        cfg = ImputationConfig(m=7, seed=42)
        theta, freqs = impute_theta(pop, mar_mechanism(4), 1.3, cfg)
        assert theta == pytest.approx(0.40, abs=1e-12)
        assert freqs == pytest.approx((0.3, 0.3, 0.2, 0.2), abs=1e-12)
        # no Monte-Carlo variance: any seed gives the same answer
        other, _ = impute_theta(pop, mar_mechanism(4), 1.3,
                                ImputationConfig(m=3, seed=9))
        assert other == pytest.approx(theta, abs=1e-15)

    def test_accordion_half_tilt(self, lead_population):
        cfg = ImputationConfig(m=200, seed=20240101)
        theta, freqs = impute_theta(lead_population, accordion_mechanism(),
                                    0.5, cfg)
        assert theta == pytest.approx(0.19, abs=0.005)
        assert freqs[0] == pytest.approx(0.24, abs=0.01)
        assert freqs[1] == pytest.approx(0.34, abs=0.01)
        assert freqs[3] == pytest.approx(0.10, abs=0.01)

    def test_seed_determinism(self, lead_population):
        cfg = ImputationConfig(m=20, seed=777)
        a = impute_theta(lead_population, accordion_mechanism(), 0.7, cfg)
        b = impute_theta(lead_population, accordion_mechanism(), 0.7, cfg)
        assert a[0] == b[0]
        assert a[1].tolist() == b[1].tolist()

    def test_monte_carlo_consistency_under_mar(self, lead_population):
        cfg = ImputationConfig(m=2_000, seed=11)
        theta, _ = impute_theta(lead_population, mar_mechanism(), 0.0, cfg)
        # posterior sd of the completed fraction, via the aggregated Beta
        counts = lead_population.counts_array()
        a_high = float((1 + counts)[lead_population.cutoff_level:].sum())
        a_low = float((1 + counts)[:lead_population.cutoff_level].sum())
        total = a_high + a_low
        sd_q = np.sqrt(a_high * a_low / (total**2 * (total + 1)))
        sd_theta = sd_q * lead_population.n_missing / lead_population.n_total
        observed = (lead_population.observed_high_count
                    / lead_population.n_observed)
        assert abs(theta - observed) <= 3 * sd_theta

    def test_never_above_worst_case(self, lead_population):
        # each round gives the worst case exactly at t = -800; the float mean
        # of six such values would exceed it by an ulp
        thetas, _ = impute_theta_grid(lead_population, accordion_mechanism(),
                                      [-800.0], ImputationConfig(m=6, seed=7))
        assert thetas.max() <= lead_population.worst_case_theta
        assert thetas[0] == 0.79375

    def test_rejects_non_finite_knob(self, lead_population):
        with pytest.raises(ValueError, match="finite"):
            impute_theta(lead_population, accordion_mechanism(), float("nan"),
                         ImputationConfig(m=1))

    def test_substreams_are_independent_of_order(self):
        g1 = substream(5, 3).random(UNIFORMS, np.arange(4))
        _ = substream(5, 2).random(UNIFORMS, np.arange(4))
        g2 = substream(5, 3).random(UNIFORMS, np.arange(4))
        assert np.array_equal(g1, g2)


def per_point_reference(pop, mech, ts, cfg):
    """One knob value at a time, through the scalar oracle of the coupling."""
    points = [oracles.impute_one_point(pop, mech, t, cfg) for t in ts]
    return (np.array([theta for theta, _ in points]),
            np.array([freqs for _, freqs in points]))


class TestImputeThetaGrid:
    TS = np.round(np.arange(-2.0, 4.0 + 1e-9, 0.25), 10)
    ALL_ROWS = range(len(TS))

    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism(), mar_mechanism()],
                             ids=lambda mech: mech.name)
    @pytest.mark.parametrize("seed", [20240101, 7, 99])
    def test_equals_per_point_loop(self, lead_population, mech, seed):
        cfg = ImputationConfig(m=3, seed=seed)
        thetas, freqs = impute_theta_grid(lead_population, mech, self.TS, cfg,
                                          self.ALL_ROWS)
        ref_thetas, ref_freqs = per_point_reference(lead_population, mech,
                                                    self.TS, cfg)
        assert np.array_equal(thetas, ref_thetas)
        assert np.array_equal(freqs, ref_freqs)

    def test_order_independent(self, lead_population):
        cfg = ImputationConfig(m=3, seed=5)
        mech = parametric_mechanism()
        ref_thetas, ref_freqs = per_point_reference(lead_population, mech,
                                                    self.TS, cfg)
        reversed_order = np.arange(len(self.TS))[::-1]
        shuffled = np.random.default_rng(0).permutation(len(self.TS))
        for order in (reversed_order, shuffled):
            thetas, freqs = impute_theta_grid(lead_population, mech,
                                              self.TS[order], cfg,
                                              self.ALL_ROWS)
            assert np.array_equal(thetas, ref_thetas[order])
            assert np.array_equal(freqs, ref_freqs[order])

    def test_single_point_is_impute_theta(self, lead_population):
        """A one-point grid is the per-point imputation at that point."""
        cfg = ImputationConfig(m=4, seed=3)
        thetas, freqs = impute_theta_grid(lead_population,
                                          accordion_mechanism(), [0.7], cfg,
                                          rows=[0])
        ref_thetas, ref_freqs = per_point_reference(
            lead_population, accordion_mechanism(), [0.7], cfg)
        assert thetas.tolist() == ref_thetas.tolist()
        assert freqs.tolist() == ref_freqs.tolist()

    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism()],
                             ids=lambda mech: mech.name)
    def test_rows_equal_one_point_runs(self, lead_population, mech):
        cfg = ImputationConfig(m=3, seed=11)
        rows = [0, 9, 9, 24, 13]
        thetas, freqs = impute_theta_grid(lead_population, mech, self.TS, cfg,
                                          rows)
        assert freqs.shape == (len(rows), lead_population.k)
        for i, t in enumerate(self.TS):
            (theta,), _ = impute_theta_grid(lead_population, mech, [t], cfg)
            assert theta == thetas[i]
        for s, i in enumerate(rows):
            _, (row,) = impute_theta_grid(lead_population, mech, [self.TS[i]],
                                          cfg, rows=[0])
            assert row.tolist() == freqs[s].tolist()

    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism(), mar_mechanism()],
                             ids=lambda mech: mech.name)
    def test_snapshot_high_share_is_theta(self, lead_population, mech):
        cfg = ImputationConfig(m=4, seed=2)
        thetas, freqs = impute_theta_grid(lead_population, mech, self.TS, cfg,
                                          self.ALL_ROWS)
        high = freqs[:, lead_population.cutoff_level:].sum(axis=1)
        assert high == pytest.approx(thetas, abs=1e-12)

    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism()],
                             ids=lambda mech: mech.name)
    @given(ts=st.lists(st.floats(-6, 6), min_size=2, max_size=40),
           seed=st.integers(0, 2**32), m=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_theta_nonincreasing(self, lead_population, mech, ts, seed, m):
        ts = np.sort(ts)
        thetas, _ = impute_theta_grid(lead_population, mech, ts,
                                      ImputationConfig(m=m, seed=seed))
        assert np.all(np.diff(thetas) <= 0.0)

    @pytest.mark.parametrize("m, n_points, batches", [
        (4, BATCH // 4 - 1, 1), (4, BATCH // 4, 1), (4, BATCH // 4 + 1, 2),
        (2, BATCH + 3, 4), (1, 5_000, 1)],
        ids=["below-batch", "at-batch", "above-batch", "beyond-batch", "m1"])
    def test_batch_edges(self, lead_population, monkeypatch, m, n_points,
                         batches):
        # the rounds' knob values are inverted BATCH at a time, so a round
        # can share a batch with others, or span two, at these sizes
        mech = parametric_mechanism()
        cfg = ImputationConfig(m=m, seed=13)
        ts = np.linspace(-2.0, 4.0, n_points)
        for rows in ([0, n_points // 2, min(BATCH, n_points - 1), n_points - 1],
                     # unsorted, with a row twice, and across a batch edge
                     [n_points - 1, 0, min(BATCH, n_points - 1), n_points // 2,
                      0]):
            sizes = []

            def recorded(n, r, u):
                sizes.append(len(r))
                return _quantile_binomial(n, r, u)

            with monkeypatch.context() as patch:
                patch.setattr(imputation, "_quantile_binomial", recorded)
                thetas, freqs = impute_theta_grid(lead_population, mech, ts,
                                                  cfg, rows)
            assert len(sizes) == batches and max(sizes) <= BATCH
            assert sum(sizes) == m * n_points
            for s, i in enumerate(rows):
                (theta,), (row,) = impute_theta_grid(lead_population, mech,
                                                     [ts[i]], cfg, rows=[0])
                assert theta == thetas[i]
                assert row.tolist() == freqs[s].tolist()
        half = n_points // 2
        halves = [impute_theta_grid(lead_population, mech, part, cfg)[0]
                  for part in (ts[:half], ts[half:])]
        assert np.array_equal(np.concatenate(halves), thetas)

    def test_empty_grid_inverts_nothing(self, lead_population, monkeypatch):
        def never(n, r, u):
            raise AssertionError("an empty grid has no quantile to invert")

        monkeypatch.setattr(imputation, "_quantile_binomial", never)
        thetas, freqs = impute_theta_grid(lead_population,
                                          parametric_mechanism(), [],
                                          ImputationConfig(m=3))
        assert thetas.shape == (0,)
        assert freqs.shape == (0, lead_population.k)

    def test_batch_arrays_fill_one_text_block(self):
        # a batch's float64 arrays follow the formatter's working-set rule
        assert BATCH * np.dtype(float).itemsize == textcols.BLOCK_BYTES

    @pytest.mark.parametrize("rows", [[25], [-1], [0, 30]])
    def test_rows_out_of_range_rejected(self, lead_population, rows):
        with pytest.raises(ValueError, match="rows must index the 25 knob "
                                             "values"):
            impute_theta_grid(lead_population, mar_mechanism(), self.TS,
                              ImputationConfig(m=1), rows)

    def test_missing_units_bounded(self):
        # the population itself rejects more than MAX_MISSING missing units
        with pytest.raises(InputError, match=r"^n_total 67108867 leaves "
                                             r"67,108,865 units missing beyond "
                                             r"the 2 observed \(at most "
                                             r"67,108,864\)$") as err:
            LeadPopulation(observed_counts=(1, 1), n_total=MAX_MISSING + 3,
                           cutoff_level=1)
        assert err.value.field == "n_total"
        at_bound = LeadPopulation(observed_counts=(1, 1),
                                  n_total=MAX_MISSING + 2, cutoff_level=1)
        thetas, _ = impute_theta_grid(at_bound, mar_mechanism(2), [0.0],
                                      ImputationConfig(m=1))
        assert 0.0 < thetas[0] < 1.0


def finite_or_zero(low, high):
    """Floats in [low, high] with any magnitude below 1e-200 made 0, so that
    scaling them by up to 2**+-20 and 10**+-3 stays exact."""
    return st.floats(low, high).map(lambda v: v if abs(v) > 1e-200 else 0.0)


class TestRelations:
    @given(weights=st.lists(finite_or_zero(-12, 12), min_size=10,
                            max_size=10),
           unit=st.sampled_from([1e-3, 1.0, 1e3]),
           ts=st.lists(finite_or_zero(-4, 4), min_size=7, max_size=7),
           j=st.integers(-20, 20), seed=st.integers(0, 2**32),
           rows=st.lists(st.integers(0, 6), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_scale_duality(self, lead_population, weights, unit, ts, j, seed,
                           rows):
        # the tilt sees only t*w: (t / 2**j, w * 2**j) gives the same
        # products, exactly, and so the same draws and counts
        w = np.array(weights) * unit
        cfg = ImputationConfig(m=2, seed=seed)
        thetas, freqs = impute_theta_grid(
            lead_population, MnarMechanism(tuple(w)), ts, cfg, rows)
        scaled = impute_theta_grid(
            lead_population, MnarMechanism(tuple(np.ldexp(w, j))),
            np.ldexp(ts, -j), cfg, rows)
        assert thetas.tobytes() == scaled[0].tobytes()
        assert freqs.tobytes() == scaled[1].tobytes()

    @pytest.mark.parametrize("mech", [accordion_mechanism(),
                                      parametric_mechanism()],
                             ids=lambda mech: mech.name)
    def test_curve_within_mc_error_of_closed_form(self, lead_population,
                                                  mech):
        # theta_t(p) = (high_obs + n_missing * (1 - q_t(p))) / n_total over
        # the posterior p ~ Dirichlet(1 + counts), with the missing units at
        # or below the cutoff Bin(n_missing, q_t(p)) given p: its mean, and
        # the variance of one round, from 20,000 posterior draws in numpy
        pop, m = lead_population, 1_000
        ts = np.linspace(-2.0, 4.0, 121)  # the bundled lead grid
        p = np.random.default_rng(11).dirichlet(1.0 + pop.counts_array(),
                                                20_000)
        tilt = np.exp(np.outer(mech.as_array(), ts))  # (levels, knob values)
        c = pop.cutoff_level
        q = (p[:, :c] @ tilt[:c]) / (p @ tilt)  # (draws, knob values)
        theta = (pop.observed_high_count + pop.n_missing * (1.0 - q)) \
            / pop.n_total
        variance = theta.var(axis=0) + \
            (pop.n_missing * q * (1.0 - q)).mean(axis=0) / pop.n_total**2
        thetas, _ = impute_theta_grid(pop, mech, ts,
                                      ImputationConfig(m=m, seed=20240101))
        z = (thetas - theta.mean(axis=0)) / np.sqrt(variance / m)
        assert np.all(np.abs(z) <= 4.0), z


class TestCoupling:
    # the values are inverted in calls of `chunk` values each: 512 (a short
    # call, the size once tabulated) or 20,000 (one call for most inputs);
    # how the values are split never changes a quantile
    @pytest.mark.parametrize("chunk", [512, 20_000], ids=["table", "loop"])
    def test_quantile_binomial_equals_scipy(self, chunk):
        def quantiles(n, r, u):
            return np.concatenate([
                _quantile_binomial(n[i:i + chunk], r[i:i + chunk],
                                   u[i:i + chunk])
                for i in range(0, len(r), chunk)])

        rng = np.random.default_rng(0)
        u = rng.random(64 * 5 * 20)
        n = np.repeat(np.arange(64), 5 * 20)
        r = np.tile(np.repeat([0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0], 20), 64)
        assert np.array_equal(quantiles(n, r, u), stats.binom.ppf(u, n, r))
        n, r, u = rng.integers(0, CELL, 20_000), rng.random(20_000), \
            rng.random(20_000)
        assert np.array_equal(quantiles(n, r, u), stats.binom.ppf(u, n, r))

    def test_quantile_binomial_across_the_compaction(self):
        # quantiles from 0 to 63 stop counting after 0 to 42 passes of the
        # k loop, half of them by the 15th, so the loop runs on past the
        # point where fewer than half the values still count
        rng = np.random.default_rng(2)
        n = np.full(4_000, CELL - 1)
        r, u = rng.random(4_000), rng.random(4_000)
        quantiles = _quantile_binomial(n, r, u)
        assert set(quantiles.tolist()) == set(range(CELL))
        assert np.array_equal(quantiles, stats.binom.ppf(u, n, r))
        assert quantiles.tolist() == [
            oracles.binomial_quantile(*args) for args in zip(n.tolist(),
                                                             r.tolist(),
                                                             u.tolist())]

    def test_quantile_binomial_equals_scalar_oracle(self):
        rng = np.random.default_rng(1)
        n, r, u = rng.integers(0, CELL, 2_000), rng.random(2_000), \
            rng.random(2_000)
        assert _quantile_binomial(n, r, u).tolist() == [
            oracles.binomial_quantile(*args) for args in zip(n.tolist(),
                                                             r.tolist(),
                                                             u.tolist())]

    def test_quantile_binomial_at_the_largest_uniform(self):
        # 1 - 2**-53 is the largest uniform a stream returns; there the
        # rounded cdf can stay below u past k = n, and the count must
        # still lie in [0, n]
        n = np.repeat(np.arange(CELL), 4)
        r = np.tile([0.0, 0.5, 1.0 - 2.0**-53, 1.0], CELL)
        counts = _quantile_binomial(n, r, np.full(len(n), 1.0 - 2.0**-53))
        assert np.all((0 <= counts) & (counts <= n)), counts

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 290_000])
    def test_cells_are_order_statistics(self, n):
        rng = substream(4, 0)
        bounds = draw_cells(rng, n)
        assert len(bounds) == n // CELL + 2
        assert bounds[0] == 0.0 and bounds[-1] == 1.0
        assert np.all(np.diff(bounds) > 0)
        q = np.array([0.0, 1.0])
        assert count_below(q, bounds, rng, n).tolist() == [0, n]

    def test_count_below_is_binomial(self):
        """Chi-squared test of the count at six probabilities against
        Bin(290,000, q), over 4,000 cell draws."""
        n = 290_000
        qs = np.array([1e-5, 0.01, 0.3, 0.5, 0.97, 1.0 - 1e-5])
        rngs = (substream(20240101, i) for i in range(4_000))
        counts = np.array([count_below(qs, draw_cells(rng, n), rng, n)
                           for rng in rngs])
        for q, sample in zip(qs, counts.T):
            # bins between the deciles of Bin(n, q): bin i holds the counts
            # in [cuts[i - 1], cuts[i])
            cuts = np.unique(stats.binom.ppf(np.linspace(0.1, 0.9, 9), n, q))
            observed = np.bincount(np.searchsorted(cuts, sample, side="right"),
                                   minlength=len(cuts) + 1)
            expected = np.diff(np.concatenate(
                ([0.0], stats.binom.cdf(cuts - 1, n, q), [1.0])))
            p_value = stats.chisquare(observed, expected * len(sample)).pvalue
            assert p_value > 1e-3, (q, p_value)


def test_population_validation():
    with pytest.raises(ValueError):
        LeadPopulation(observed_counts=(5, -1), n_total=10)
    with pytest.raises(ValueError):
        LeadPopulation(observed_counts=(5, 6), n_total=10)
    with pytest.raises(ValueError):
        LeadPopulation(observed_counts=(5,), n_total=10)

