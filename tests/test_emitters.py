"""The column-at-a-time CSV and SVG emitters against per-point reference
emitters: the loop versions they replaced, kept here as the oracle."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cid import svgfig
from cid.cli import curve_to_csv
from cid.decisions import ELECTION_DECISIONS, INTERVENTION_DECISIONS
from cid.imputation import (ImputationConfig, accordion_mechanism,
                            mar_mechanism, parametric_mechanism)
from cid.metrics import CostParams
from cid.regression import MEAN_RESPONSE, NEW_OBSERVATION
from cid.svgfig import (DEFAULT_COLORS, _axes, _document, _fmt, _fmt_column,
                        _Frame, _line, _rect, _text, _vline,
                        render_election_figure, render_lead_figure)
from cid.sweep import (CidCurve, KnobGrid, PlausibleRegion, sweep_election,
                       sweep_lead)
from tests import oracles


def assert_same_text(actual, expected):
    """actual == expected, reporting only where they first differ: pytest's
    own diff of two megabyte-long strings takes minutes."""
    if actual != expected:
        i = next((i for i, (a, e) in enumerate(zip(actual, expected))
                  if a != e), min(len(actual), len(expected)))
        context = slice(max(0, i - 60), i + 60)
        pytest.fail(f"texts differ at character {i} (lengths {len(actual)}, "
                    f"{len(expected)}): {actual[context]!r} != "
                    f"{expected[context]!r}")


def ref_curve_to_csv(curve):
    """One csv.writer row per point, every number through an f-string."""
    def column(values):
        if values is None:
            return [""] * len(curve.t)
        return [f"{v:.6f}" for v in values.tolist()]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "estimate", "lo", "hi", "decision", "d_t", "j_t", "cid"])
    writer.writerows(zip(
        column(curve.t), column(curve.estimate), column(curve.lower),
        column(curve.upper), [d.value for d in curve.decision],
        curve.d_t.tolist(), column(curve.j_t), column(curve.cid)))
    return buf.getvalue()


def ref_polyline(pts, stroke, width=1.5, cls=None):
    c = f' class="{cls}"' if cls else ""
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (f'<polyline{c} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')


def ref_cid_panel(out, curve, reference_line, region_lines, frame):
    """The CID panel mapped and formatted one point at a time."""
    out.append(frame.open_group("cid-panel"))
    _axes(out, frame, "CID")
    _vline(out, frame, reference_line, DEFAULT_COLORS["reference"],
           "reference-line")
    for t in region_lines:
        _vline(out, frame, t, DEFAULT_COLORS["region"], "region-line")
    pts = [(frame.px(t), frame.py(cid))
           for t, cid in zip(curve.t.tolist(), curve.cid.tolist())]
    if len(pts) == 1:
        x, y = pts[0]
        out.append(_rect(x - 2, y - 2, 4, 4, DEFAULT_COLORS["curve"],
                         cls="cid-marker"))
    else:
        out.append(ref_polyline(pts, DEFAULT_COLORS["curve"],
                                cls="cid-polyline"))
    out.append("</g>")


def ref_render_election_figure(curve, reference_line, region_lines, title):
    """The election figure with one _line call per interval bar, its
    reference at the grid point nearest reference_line."""
    ts = curve.t
    margin, gap = 56, 48
    panel_h = (svgfig.HEIGHT_PX - 2 * margin - gap) / 2
    panel_w = svgfig.WIDTH_PX - 2 * margin
    pad = curve.step if len(ts) > 1 else 1.0
    top = _Frame(margin, margin, panel_w, panel_h,
                 float(ts.min()) - pad, float(ts.max()) + pad, 0.0, 2.05)
    out = []
    ref_cid_panel(out, curve, reference_line, region_lines, top)

    lows = curve.lower.tolist()
    highs = curve.upper.tolist()
    span = max(highs) - min(lows)
    bottom = _Frame(margin, margin + panel_h + gap, panel_w, panel_h,
                    top.xmin, top.xmax,
                    min(lows) - 0.05 * span, max(highs) + 0.05 * span)
    ref = curve.index_nearest(reference_line)
    out.append(bottom.open_group("interval-panel"))
    _axes(out, bottom, "interval")
    for t, lo, hi in zip(ts.tolist(), lows, highs):
        px = bottom.px(t)
        out.append(_line(px, bottom.py(lo), px, bottom.py(hi),
                         DEFAULT_COLORS["interval"], 1.0, cls="interval-bar"))
    px = bottom.px(ts[ref])
    out.append(_line(px, bottom.py(lows[ref]), px, bottom.py(highs[ref]),
                     DEFAULT_COLORS["reference_interval"], 2.5,
                     cls="reference-interval"))
    out.append("</g>")
    return _document(title, out)


def ref_render_lead_figure(curve, reference_line, snapshots, title):
    """The lead figure with the per-point CID panel and one bar chart per
    (t, completed frequencies) snapshot, one _rect call per bar."""
    ts = curve.t
    margin, gap = 56, 56
    panel_w = svgfig.WIDTH_PX - 2 * margin
    top_h = (svgfig.HEIGHT_PX - 2 * margin - gap) * 0.55
    inset_h = (svgfig.HEIGHT_PX - 2 * margin - gap) * 0.45
    pad = curve.step if len(ts) > 1 else 1.0
    top = _Frame(margin, margin, panel_w, top_h,
                 float(ts.min()) - pad, float(ts.max()) + pad, 0.0, 1.05)
    out = []
    ref_cid_panel(out, curve, reference_line, (), top)

    n = len(snapshots)
    inset_gap = 16
    inset_w = (panel_w - inset_gap * (n - 1)) / n
    ymax = 1.05 * max(max(freqs) for _, freqs in snapshots)
    for i, (t, freqs) in enumerate(snapshots):
        left = margin + i * (inset_w + inset_gap)
        frame = _Frame(left, margin + top_h + gap, inset_w, inset_h,
                       0.5, len(freqs) + 0.5, 0.0, ymax)
        out.append(frame.open_group("freq-panel"))
        out.append(_rect(frame.left, frame.top, frame.width, frame.height,
                         "none", extra=f' stroke="{DEFAULT_COLORS["axis"]}"'))
        base = frame.py(0.0)
        bar_w = frame.width / len(freqs) * 0.8
        for level, prob in enumerate(freqs, start=1):
            x = frame.px(level) - bar_w / 2
            y = frame.py(prob)
            out.append(_rect(x, y, bar_w, base - y, DEFAULT_COLORS["bar"],
                             cls="freq-bar",
                             extra=f' data-level="{level}"'))
        out.append(_text(frame.left + frame.width / 2, base + 16,
                         f"t = {t:g}"))
        out.append("</g>")
    return _document(title, out)


@pytest.mark.parametrize("kind, level, grid", [
    (kind, level, KnobGrid(-4, 4, 0.02))
    for kind in (MEAN_RESPONSE, NEW_OBSERVATION)
    for level in (0.5, 0.95, 0.999)
] + [
    (MEAN_RESPONSE, 0.95, KnobGrid(-4, 4, 0.001)),
    (NEW_OBSERVATION, 0.95, KnobGrid(-4, 4, 0.0005)),
    (MEAN_RESPONSE, 0.8, KnobGrid(-3, 4, 0.02, t0=0.5)),  # t0 != 0
    (MEAN_RESPONSE, 0.95, KnobGrid(0.25, 0.25, 0.1, t0=0.25)),  # one point
])
def test_election_outputs_equal_reference(hibbs_fit, kind, level, grid):
    curve = sweep_election(hibbs_fit, -0.728, grid, level=level, kind=kind)
    assert_same_text(curve_to_csv(curve), ref_curve_to_csv(curve))
    assert_same_text(
        render_election_figure(curve, "election",
                               PlausibleRegion(-0.635, 0.728)),
        ref_render_election_figure(curve, grid.t0, (-0.635, 0.728),
                                   "election"))
    assert_same_text(render_election_figure(curve, ""),
                     ref_render_election_figure(curve, grid.t0, (), ""))


@pytest.mark.parametrize("mech", [accordion_mechanism(),
                                  parametric_mechanism(),
                                  mar_mechanism(10)], ids=lambda m: m.name)
def test_lead_outputs_equal_reference(lead_population, mech):
    pop = lead_population
    grid = KnobGrid(-2, 4, 0.01)
    cfg = ImputationConfig(m=3, seed=7)
    rows = [0, grid.index_on_grid(0.5)]
    curve = sweep_lead(pop, mech, grid, cfg, CostParams(a=1, b=1), rows)
    assert_same_text(curve_to_csv(curve), ref_curve_to_csv(curve))
    snapshots = [(float(curve.t[i]),
                  oracles.impute_one_point(pop, mech, curve.t[i], cfg)[1]
                  .tolist())
                 for i in rows]
    title = f"lead ({mech.name})"
    assert_same_text(render_lead_figure(curve, title),
                     ref_render_lead_figure(curve, 0.0, snapshots, title))


# Finite floats, with exactly representable half-way cases at 3 decimals
# (k/16) and at 6 decimals (k/128), signed zeros and large magnitudes.
numbers = (st.floats(allow_nan=False, allow_infinity=False)
           | st.integers(-10**9, 10**9).map(lambda k: k / 16)
           | st.integers(-10**9, 10**9).map(lambda k: k / 128)
           | st.sampled_from([0.0, -0.0, 0.0005, -0.0625, 1e300, -1.7e308,
                              5e-324, 2.0**53 + 0.5]))


@given(values=st.lists(numbers, max_size=20))
def test_fmt_column_equals_fstring(values):
    assert _fmt_column(np.array(values, dtype=float)) == \
        [f"{v:.3f}" for v in values]


@given(rows=st.lists(st.tuples(numbers, numbers, numbers, numbers, numbers,
                               numbers, st.integers(0, 2),
                               st.integers(0, 1)), max_size=12),
       election=st.booleans())
def test_csv_equals_reference(rows, election):
    t, estimate, lower, upper, j_t, cid, codes, d_t = (
        np.array(column) for column in zip(*rows)) if rows else (
        [np.empty(0)] * 6 + [np.empty(0, dtype=int)] * 2)
    if election:
        curve = CidCurve(t=t, estimate=estimate, codes=codes,
                         family=ELECTION_DECISIONS, d_t=d_t, cid=cid,
                         change_points=(), i0=0,
                         lower=lower, upper=upper, j_t=j_t)
    else:
        curve = CidCurve(t=t, estimate=estimate, codes=codes % 2,
                         family=INTERVENTION_DECISIONS, d_t=d_t, cid=cid,
                         change_points=(), i0=0)
    assert curve_to_csv(curve) == ref_curve_to_csv(curve)
