import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from cid.decisions import ELECTION_DECISIONS
from cid.imputation import ImputationConfig, accordion_mechanism
from cid.metrics import CostParams
from cid.svgfig import render_election_figure, render_lead_figure
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
                       [grid.index_on_grid(t) for t in snapshot_ts])
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
                         family=ELECTION_DECISIONS,
                         d_t=np.empty(0, dtype=int), cid=np.empty(0),
                         change_points=(), i0=0)
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
