import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from cid import svgfig, sweep
from cid.decisions import ELECTION_DECISIONS
from cid.imputation import (ImputationConfig, accordion_mechanism,
                            mar_mechanism)
from cid.metrics import CostParams
from cid.svgfig import (MAX_SNAPSHOTS, render_election_figure,
                        render_lead_figure)
from cid.sweep import KnobGrid, PlausibleRegion, sweep_election, sweep_lead
from tests import oracles

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture(scope="module")
def election_curve(hibbs_fit):
    return sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, 0.1))


@pytest.fixture(scope="module")
def lead_curve_and_snapshots(lead_population):
    cfg = ImputationConfig(m=10, seed=20240101)
    grid = KnobGrid(-2, 4, 0.5)
    snapshot_ts = (-1.0, 0.0, 0.5, 1.0, 2.0)
    curve = sweep_lead(lead_population, accordion_mechanism(), grid, cfg,
                       CostParams(a=1, b=1),
                       [sweep.row_on_grid(grid.values(), t)
                        for t in snapshot_ts])
    snapshots = [(t, oracles.impute_one_point(
                      lead_population, accordion_mechanism(), t, cfg)[1])
                 for t in snapshot_ts]
    return curve, snapshots


def panel_transform(group):
    g = {k.replace("data-", ""): float(v) for k, v in group.attrib.items()
         if k.startswith("data-")}

    def px(x):
        return g["left"] + (x - g["xmin"]) / (g["xmax"] - g["xmin"]) * g["width"]

    def py(y):
        return g["top"] + (g["ymax"] - y) / (g["ymax"] - g["ymin"]) * g["height"]

    return px, py


def find_by_class(root, cls):
    return [el for el in root.iter() if el.get("class") == cls]


class TestElectionFigure:
    def test_well_formed_and_structure(self, election_curve):
        svg = render_election_figure(election_curve, "",
                                     PlausibleRegion(-0.635, 0.728))
        root = ET.fromstring(svg)
        assert root.tag == f"{SVG_NS}svg"
        assert len(find_by_class(root, "cid-polyline")) == 1
        assert len(find_by_class(root, "reference-line")) == 1
        assert len(find_by_class(root, "region-line")) == 2

    def test_polyline_parse_back(self, election_curve):
        svg = render_election_figure(election_curve, "")
        root = ET.fromstring(svg)
        panel = find_by_class(root, "cid-panel")[0]
        px, py = panel_transform(panel)
        pts = find_by_class(root, "cid-polyline")[0].get("points").split()
        assert len(pts) == len(election_curve.t)
        for raw, t, cid in zip(pts, election_curve.t, election_curve.cid):
            x, y = map(float, raw.split(","))
            assert abs(x - px(t)) <= 0.5
            assert abs(y - py(cid)) <= 0.5

    def test_interval_bars_parse_back(self, election_curve):
        svg = render_election_figure(election_curve, "")
        root = ET.fromstring(svg)
        panel = find_by_class(root, "interval-panel")[0]
        px, py = panel_transform(panel)
        bars = find_by_class(root, "interval-bar")
        assert len(bars) == len(election_curve.t)
        for bar, t, lo, hi in zip(bars, election_curve.t, election_curve.lower,
                                  election_curve.upper):
            assert abs(float(bar.get("x1")) - px(t)) <= 0.5
            assert abs(float(bar.get("y1")) - py(lo)) <= 0.5
            assert abs(float(bar.get("y2")) - py(hi)) <= 0.5
        assert len(find_by_class(root, "reference-interval")) == 1

    def test_curve_touches_zero_at_change_point(self, election_curve):
        svg = render_election_figure(election_curve, "")
        root = ET.fromstring(svg)
        panel = find_by_class(root, "cid-panel")[0]
        _, py = panel_transform(panel)
        pts = find_by_class(root, "cid-polyline")[0].get("points").split()
        zero_ts = election_curve.t[election_curve.cid == 0.0]
        assert len(zero_ts)
        ys = {round(float(r.split(",")[0]), 3): float(r.split(",")[1])
              for r in pts}
        px, _ = panel_transform(panel)
        for t in zero_ts:
            assert abs(ys[round(px(t), 3)] - py(0.0)) <= 0.5

    def test_deterministic(self, election_curve):
        region = PlausibleRegion(-0.635, 0.728)
        assert render_election_figure(election_curve, "x", region) == \
            render_election_figure(election_curve, "x", region)

    def test_single_point_curve(self, hibbs_fit):
        curve = sweep_election(hibbs_fit, -0.728, KnobGrid(0, 0, 0.1))
        svg = render_election_figure(curve, "")
        root = ET.fromstring(svg)
        assert len(find_by_class(root, "cid-polyline")) == 0
        assert len(find_by_class(root, "cid-marker")) == 1

    def test_empty_curve_rejected(self, election_curve):
        from cid.sweep import CidCurve
        empty = CidCurve(t=np.empty(0), estimate=np.empty(0),
                         codes=np.empty(0, dtype=int),
                         family=ELECTION_DECISIONS, cid=np.empty(0), i0=0)
        with pytest.raises(ValueError, match="empty"):
            render_election_figure(empty, "")


class TestLeadFigure:
    def test_snapshot_bar_groups(self, lead_curve_and_snapshots):
        curve, _ = lead_curve_and_snapshots
        svg = render_lead_figure(curve, "")
        root = ET.fromstring(svg)
        groups = find_by_class(root, "freq-panel")
        assert len(groups) == 5
        for group in groups:
            assert len(find_by_class(group, "freq-bar")) == 10

    def test_bars_parse_back(self, lead_curve_and_snapshots):
        curve, snapshots = lead_curve_and_snapshots
        svg = render_lead_figure(curve, "")
        root = ET.fromstring(svg)
        for group, (_, freqs) in zip(find_by_class(root, "freq-panel"),
                                     snapshots):
            _, py = panel_transform(group)
            for bar, prob in zip(find_by_class(group, "freq-bar"), freqs):
                top = float(bar.get("y"))
                assert abs(top - py(prob)) <= 0.5

    def test_snapshot_at_reference_matches_observed(self, lead_curve_and_snapshots,
                                                    lead_population):
        _, snapshots = lead_curve_and_snapshots
        at_ref = dict((t, d) for t, d in snapshots)[0.0]
        observed = lead_population.counts_array() / lead_population.n_observed
        assert at_ref == pytest.approx(observed, abs=0.01)

    def test_empty_snapshots_rejected(self, lead_curve_and_snapshots):
        curve, _ = lead_curve_and_snapshots
        with pytest.raises(ValueError, match="snapshot"):
            render_lead_figure(replace(curve, snapshot_rows=()), "")

    def test_deterministic(self, lead_curve_and_snapshots):
        curve, _ = lead_curve_and_snapshots
        assert render_lead_figure(curve, "") == render_lead_figure(curve, "")

    @staticmethod
    def with_snapshots(curve, n):
        """curve with n snapshot rows, cycling through its grid rows."""
        return replace(curve,
                       snapshot_rows=tuple(i % len(curve.t) for i in range(n)),
                       completed_freqs=np.repeat(curve.completed_freqs[:1], n,
                                                 axis=0))

    def test_most_snapshots_have_positive_widths(self,
                                                 lead_curve_and_snapshots):
        curve, _ = lead_curve_and_snapshots
        svg = render_lead_figure(self.with_snapshots(curve, MAX_SNAPSHOTS), "")
        groups = find_by_class(ET.fromstring(svg), "freq-panel")
        assert len(groups) == MAX_SNAPSHOTS == 38
        for group in groups:
            assert float(group.get("data-width")) > 0
            for bar in find_by_class(group, "freq-bar"):
                assert float(bar.get("width")) > 0

    def test_too_many_snapshots_rejected(self, lead_curve_and_snapshots):
        curve, _ = lead_curve_and_snapshots
        with pytest.raises(ValueError, match=r"^39 snapshots leave no width "
                                             r"for each bar chart \(at most "
                                             r"38\)$"):
            render_lead_figure(self.with_snapshots(curve, 39), "")


def election_frames(curve):
    """The CID and interval panels' frames of render_election_figure, built
    as it builds them, so that pixel columns are found from exact pixel
    xs."""
    gap = 48
    panel_h = (svgfig.HEIGHT_PX - 2 * svgfig.MARGIN - gap) / 2
    width = svgfig.WIDTH_PX - 2 * svgfig.MARGIN
    pad = sweep.grid_spacing(curve.t)
    top = svgfig._Frame(svgfig.MARGIN, svgfig.MARGIN, width, panel_h,
                        float(curve.t.min()) - pad,
                        float(curve.t.max()) + pad, 0.0, 2.05)
    lo, hi = float(curve.lower.min()), float(curve.upper.max())
    span = hi - lo
    bottom = svgfig._Frame(svgfig.MARGIN, svgfig.MARGIN + panel_h + gap, width,
                           panel_h, top.xmin, top.xmax, lo - 0.05 * span,
                           hi + 0.05 * span)
    return top, bottom


def noisy_election_curve(grid, seed):
    """An election curve on grid whose CID and intervals jump about from
    point to point, its CID often tied within a pixel column, and whose
    decision changes at t = -1 and t = 2."""
    rng = np.random.default_rng(seed)
    ts = grid.values()
    lower = rng.normal(size=len(ts))
    upper = lower + rng.exponential(size=len(ts))
    codes = (ts >= -1).astype(int) + (ts >= 2)
    return sweep.CidCurve(t=ts, estimate=(lower + upper) / 2, codes=codes,
                          family=ELECTION_DECISIONS,
                          cid=rng.integers(0, 9, len(ts)) / 4,
                          i0=grid.index_of_t0(), lower=lower, upper=upper,
                          j_t=np.zeros(len(ts)))


def texts(values):
    return ["%.3f" % v for v in values.tolist()]


class TestPixelColumns:
    """Curves with more grid points than the 608 pixel columns of the panel
    draw each column's first, last, lowest and highest point (M4), and one
    interval bar per column."""

    @pytest.fixture(scope="class", params=[0.001, 0.0005, 0.0001, "noisy"])
    def fine(self, request, hibbs_fit):
        """An election curve, its SVG, its panels' frames and the text of
        every grid point's pixel x, which names the point's row."""
        if request.param == "noisy":
            curve = noisy_election_curve(KnobGrid(-4, 4, 0.001), seed=5)
        else:
            curve = sweep_election(hibbs_fit, -0.728,
                                   KnobGrid(-4, 4, request.param))
        top, bottom = election_frames(curve)
        xs = texts(top.px(curve.t))
        assert len(set(xs)) == len(xs)  # 0.0076 px or more apart
        root = ET.fromstring(render_election_figure(curve, ""))
        return curve, root, top, bottom, xs

    @staticmethod
    def columns(frame, curve):
        """The rows of each pixel column, in order."""
        columns = np.floor(frame.px(curve.t))
        return np.split(np.arange(len(curve.t)),
                        np.flatnonzero(np.diff(columns)) + 1)

    @staticmethod
    def drawn(curve, root, top, xs):
        """The rows the polyline goes through, checking its y texts."""
        row_of = {x: i for i, x in enumerate(xs)}
        ys = texts(top.py(curve.cid))
        rows = []
        for point in find_by_class(root, "cid-polyline")[0].get("points") \
                .split():
            x, y = point.split(",")
            rows.append(row_of[x])
            assert y == ys[rows[-1]]
        assert rows == sorted(set(rows))
        return rows

    def assert_keeps_column_extremes(self, curve, root, top, xs):
        ys = top.py(curve.cid)
        drawn = set(self.drawn(curve, root, top, xs))
        columns = self.columns(top, curve)
        assert len(columns) <= top.width + 1 < len(curve.t)
        assert len(drawn) <= 4 * len(columns) + 1 + 2 * len(
            curve.change_points)
        for column in columns:
            shown = [i for i in column.tolist() if i in drawn]
            assert shown[0] == column[0] and shown[-1] == column[-1]
            assert ys[shown].min() == ys[column].min()
            assert ys[shown].max() == ys[column].max()

    def test_each_column_keeps_its_lowest_and_highest_y(self, fine):
        curve, root, top, _, xs = fine
        self.assert_keeps_column_extremes(curve, root, top, xs)

    def test_reference_and_change_point_rows_are_drawn(self, fine):
        curve, root, top, _, xs = fine
        drawn = set(self.drawn(curve, root, top, xs))
        assert curve.i0 in drawn
        changed = np.flatnonzero(curve.codes[1:] != curve.codes[:-1])
        assert len(changed) == len(curve.change_points) == 2
        assert set(changed) | set(changed + 1) <= drawn

    def test_each_envelope_bar_covers_its_column(self, fine):
        curve, root, top, bottom, xs = fine
        columns = self.columns(top, curve)
        bars = find_by_class(root, "interval-bar")
        assert len(bars) == len(columns)
        lows = np.array(texts(bottom.py(curve.lower)), dtype=float)
        highs = np.array(texts(bottom.py(curve.upper)), dtype=float)
        for bar, column in zip(bars, columns):
            assert bar.get("x1") == bar.get("x2") == xs[column[0]]
            # y grows downwards: the bar's y1 is its lowest interval bound
            assert float(bar.get("y1")) == lows[column].max()
            assert float(bar.get("y2")) == highs[column].min()

    @pytest.mark.parametrize("step", [1e-3, 1e-4, 1e-5])
    def test_size_does_not_grow_with_the_grid(self, hibbs_fit, step):
        curve = sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, step))
        svg = render_election_figure(curve, "election",
                                     PlausibleRegion(-0.635, 0.728))
        assert len(svg) < 256 * 1024

    def test_lead_polyline_keeps_each_column_extremes(self,
                                                      lead_population):
        """The lead figure's panel, whose CID is flat on either side of its
        change point."""
        cfg = ImputationConfig(m=2, seed=3)
        grid = KnobGrid(-2, 4, 0.002)
        curve = sweep_lead(lead_population, accordion_mechanism(), grid, cfg,
                           CostParams(a=1, b=1), [grid.index_of_t0()])
        svg = render_lead_figure(curve, "")
        assert len(svg) < 256 * 1024
        root = ET.fromstring(svg)
        pad = sweep.grid_spacing(curve.t)
        top = svgfig._Frame(
            svgfig.MARGIN, svgfig.MARGIN, svgfig.WIDTH_PX - 2 * svgfig.MARGIN,
            (svgfig.HEIGHT_PX - 2 * svgfig.MARGIN - 56) * 0.55,
            -2 - pad, 4 + pad, 0.0, 1.05)
        self.assert_keeps_column_extremes(curve, root, top,
                                          texts(top.px(curve.t)))


@pytest.mark.filterwarnings("error")
class TestKnobAxisRange:
    """The knob axis runs one grid step past each end of the curve, and its
    width must be a float."""

    def test_lead_curve_beyond_the_float_range_rejected(self,
                                                        lead_population):
        grid = KnobGrid(-1.7e308, 1.7e308, 1e307)
        curve = sweep_lead(lead_population, mar_mechanism(), grid,
                           ImputationConfig(m=1), CostParams(a=1, b=1), [17])
        assert len(curve.t) == 35
        with pytest.raises(ValueError, match=r"^knob axis \[-inf, inf\], one "
                                             r"grid step past each end of "
                                             r"the curve, is wider than the "
                                             r"float range$"):
            render_lead_figure(curve, "")

    def test_election_curve_beyond_the_float_range_rejected(self,
                                                            election_curve):
        # t from -1.7e308 to 1.7e308: finite, but the axis is twice as wide
        wide = replace(election_curve, t=election_curve.t * (1.7e308 / 4))
        with pytest.raises(ValueError, match="wider than the float range"):
            render_election_figure(wide, "")

    def test_curve_within_the_float_range_renders(self, election_curve):
        wide = replace(election_curve, t=election_curve.t * 1e307)
        svg = render_election_figure(wide, "")
        assert b"nan" not in svg and b"inf" not in svg
