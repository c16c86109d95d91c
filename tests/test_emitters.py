"""The column-at-a-time CSV and SVG emitters against per-point reference
emitters: the loop versions they replaced, kept here as the oracle; and the
numpy number formatter they use against Python's own `%`."""

import csv
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cid import cli, svgfig, textcols
from cid.cli import _csv_blocks
from cid.decisions import ELECTION_DECISIONS, INTERVENTION_DECISIONS
from cid.imputation import (ImputationConfig, accordion_mechanism,
                            mar_mechanism, parametric_mechanism)
from cid.metrics import CostParams
from cid.regression import MEAN_RESPONSE, NEW_OBSERVATION
from cid.svgfig import (DEFAULT_COLORS, _axes, _document, _fmt, _Frame,
                        _line, _rect, _text, _vline, render_election_figure,
                        render_lead_figure)
from cid.sweep import (CidCurve, KnobGrid, PlausibleRegion, grid_spacing,
                       row_on_grid, sweep_election, sweep_lead)
from cid.textcols import BLOCK_BYTES, FAST_LIMIT, rows
from tests import oracles
from tests.test_svgfig import noisy_election_curve


def assert_same_text(actual, expected):
    """actual, an emitter's ASCII bytes, == expected, as bytes or as text,
    reporting only where they first differ: pytest's own diff of two
    megabyte-long strings takes minutes."""
    if isinstance(expected, str):
        expected = expected.encode("ascii")
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
        column(curve.upper),
        [curve.family[code] for code in curve.codes.tolist()],
        curve.d_t.tolist(), column(curve.j_t), column(curve.cid)))
    return buf.getvalue()


def ref_polyline(pts, stroke, width=1.5, cls=None):
    c = f' class="{cls}"' if cls else ""
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (f'<polyline{c} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')


def ref_columns(xs, width):
    """The rows of the pixel xs grouped by pixel column floor(x), in order;
    while there are no more rows than the panel's width in pixels, each row
    is a column of its own."""
    if len(xs) <= width:
        return [[i] for i in range(len(xs))]
    columns = []
    for i, x in enumerate(xs):
        if columns and math.floor(x) == math.floor(xs[columns[-1][0]]):
            columns[-1].append(i)
        else:
            columns.append([i])
    return columns


def ref_cid_panel(out, curve, reference_line, region_lines, frame):
    """The CID panel mapped and formatted one point at a time, drawing of
    each pixel column its first and last point and the first points of
    least and greatest CID, plus the reference point and both points of
    every decision change."""
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
        cids = curve.cid.tolist()
        drawn = {row_on_grid(curve.t, reference_line)}
        for column in ref_columns([x for x, _ in pts], frame.width):
            values = [cids[i] for i in column]
            drawn |= {column[0], column[-1],
                      column[values.index(min(values))],
                      column[values.index(max(values))]}
        decisions = [curve.family[code] for code in curve.codes.tolist()]
        for i in range(len(pts) - 1):
            if decisions[i] != decisions[i + 1]:
                drawn |= {i, i + 1}
        out.append(ref_polyline([pts[i] for i in sorted(drawn)],
                                DEFAULT_COLORS["curve"], cls="cid-polyline"))
    out.append("</g>")


def ref_render_election_figure(curve, reference_line, region_lines, title):
    """The election figure with one _line call per pixel column's interval
    bar, its reference at the grid point nearest reference_line."""
    ts = curve.t
    margin, gap = 56, 48
    panel_h = (svgfig.HEIGHT_PX - 2 * margin - gap) / 2
    panel_w = svgfig.WIDTH_PX - 2 * margin
    pad = grid_spacing(ts) if len(ts) > 1 else 1.0
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
    ref = row_on_grid(ts, reference_line)
    out.append(bottom.open_group("interval-panel"))
    _axes(out, bottom, "interval")
    # one bar per pixel column, from its least lower to its greatest upper
    # bound, at the x of its first point
    for column in ref_columns([bottom.px(t) for t in ts.tolist()], panel_w):
        px = bottom.px(ts[column[0]])
        lo = min(lows[i] for i in column)
        hi = max(highs[i] for i in column)
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
    pad = grid_spacing(ts) if len(ts) > 1 else 1.0
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
    (MEAN_RESPONSE, 0.95, KnobGrid(-4, 4, 0.0005)),  # the election-fine run
    # as many points as the panel has pixel columns, and one more
    (MEAN_RESPONSE, 0.95, KnobGrid(-3.03, 3.04, 0.01)),
    (NEW_OBSERVATION, 0.95, KnobGrid(-3.03, 3.05, 0.01)),
])
def test_election_outputs_equal_reference(hibbs_fit, kind, level, grid):
    curve = sweep_election(hibbs_fit, -0.728, grid, level=level, kind=kind)
    assert_same_text(b"".join(_csv_blocks(curve)), ref_curve_to_csv(curve))
    assert_same_text(
        render_election_figure(curve, "election",
                               PlausibleRegion(-0.635, 0.728)),
        ref_render_election_figure(curve, grid.t0, (-0.635, 0.728),
                                   "election"))
    assert_same_text(render_election_figure(curve, ""),
                     ref_render_election_figure(curve, grid.t0, (), ""))


@pytest.mark.parametrize("grid", [KnobGrid(-4, 4, 0.001),
                                  KnobGrid(-1, 1, 0.0001)])
def test_noisy_figure_equals_reference(grid):
    # CID and intervals that jump about within each pixel column, with tied
    # CIDs, so that a column's first lowest and highest points are neither
    # its first nor its last
    curve = noisy_election_curve(grid, seed=11)
    assert_same_text(render_election_figure(curve, ""),
                     ref_render_election_figure(curve, grid.t0, (), ""))


@pytest.mark.parametrize("mech, grid", [
    (accordion_mechanism(), KnobGrid(-2, 4, 0.01)),
    (parametric_mechanism(), KnobGrid(-2, 4, 0.01)),
    (mar_mechanism(10), KnobGrid(-2, 4, 0.01)),
    (accordion_mechanism(), KnobGrid(-2, 4, 0.002)),  # the lead-fine grid
    (parametric_mechanism(), KnobGrid(-2, 4, 0.002)),
], ids=["accordion", "parametric", "mar", "accordion-lead-fine",
        "parametric-lead-fine"])
def test_lead_outputs_equal_reference(lead_population, mech, grid):
    pop = lead_population
    cfg = ImputationConfig(m=3, seed=7)
    rows = [0, row_on_grid(grid.values(), 0.5)]
    curve = sweep_lead(pop, mech, grid, cfg, CostParams(a=1, b=1), rows)
    assert_same_text(b"".join(_csv_blocks(curve)), ref_curve_to_csv(curve))
    snapshots = [(float(curve.t[i]),
                  oracles.impute_one_point(pop, mech, curve.t[i], cfg)[1]
                  .tolist())
                 for i in rows]
    title = f"lead ({mech.name})"
    assert_same_text(render_lead_figure(curve, title),
                     ref_render_lead_figure(curve, 0.0, snapshots, title))


def near(values):
    """Each value with its two float neighbours."""
    return st.sampled_from(values).flatmap(lambda v: st.sampled_from(
        [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]))


# Finite floats; decimal ties (k + 1/2) / 10**d and their neighbours, whose
# rounding depends on the tie's binary value; exactly representable binary
# ties (k/16 at 3 decimals, k/128 at 6); the edge of the formatter's fast
# path, and 2**31 / 10**d; integer parts of 1 to 10 digits; subnormals,
# signed zeros and the largest floats.
numbers = (st.floats(allow_nan=False, allow_infinity=False)
           | st.tuples(st.integers(-10**9, 10**9), st.sampled_from([0, 3, 6]))
           .map(lambda kd: (kd[0] + 0.5) / 10**kd[1])
           .flatmap(lambda v: near([v]))
           | near([sign * edge / 10**d for edge in (FAST_LIMIT, 2.0**31)
                   for d in (0, 3, 6) for sign in (1, -1)])
           | st.integers(-10**9, 10**9).map(lambda k: k / 16)
           | st.integers(-10**9, 10**9).map(lambda k: k / 128)
           | st.tuples(st.integers(0, 9), st.integers(0, 10**6 - 1),
                       st.booleans())
           .map(lambda t: (-1) ** t[2] * (10.0 ** t[0] + t[1] / 10**6))
           | st.sampled_from([0.0, -0.0, 0.0005, -0.0625, 1e300, -1.7e308,
                              1.7e308, 5e-324, -5e-324, 2.2e-308, 1e-310,
                              2.0**53 + 0.5]))
# Decimal ties that naive rounding of x * 10**d gets wrong in one direction
# or the other.
TIES = {3: (0.0005, 0.0025, 0.0055), 6: (2.5e-6, 3.5e-6, 4.5e-6)}


@pytest.mark.parametrize("decimals", [0, 3, 6])
@given(values=st.lists(numbers, max_size=20))
@example(values=[v for d in (3, 6) for t in TIES[d] for v in (t, -t)])
def test_rows_equal_percent_format(decimals, values):
    text = b"".join(rows(len(values), [np.array(values, dtype=float)], "\n",
                         decimals))
    assert text.decode() == "\n".join("%.*f" % (decimals, v) for v in values)


@given(rows=st.lists(st.tuples(numbers, numbers, numbers, numbers, numbers,
                               numbers, st.integers(0, 2),
                               st.integers(0, 1)), max_size=12),
       election=st.booleans())
def test_csv_equals_reference(rows, election):
    t, estimate, lower, upper, j_t, cid, codes, _ = (
        np.array(column) for column in zip(*rows)) if rows else (
        [np.empty(0)] * 6 + [np.empty(0, dtype=int)] * 2)
    if election:
        curve = CidCurve(t=t, estimate=estimate, codes=codes,
                         family=ELECTION_DECISIONS, cid=cid, i0=0,
                         lower=lower, upper=upper, j_t=j_t)
    else:
        curve = CidCurve(t=t, estimate=estimate, codes=codes % 2,
                         family=INTERVENTION_DECISIONS, cid=cid, i0=0)
    expected = ref_curve_to_csv(curve)
    assert_same_text(b"".join(_csv_blocks(curve)), expected)
    # blocks of a few rows, each filled into the row buffer of the one before
    with mock.patch.object(textcols, "BLOCK_BYTES", 300):
        assert_same_text(b"".join(_csv_blocks(curve)), expected)


@given(st.data())
def test_rows_lay_out_any_parts(data):
    # float columns, labels and literals in any order, adjacent columns
    # with no literal between them included, in blocks of one row, of a few
    # rows and of every row
    n = data.draw(st.integers(0, 9))
    decimals = data.draw(st.sampled_from([0, 1, 2, 3, 6, 12]))
    values = numbers | st.sampled_from([math.nan, math.inf, -math.inf])
    parts, texts = [], []
    for kind in data.draw(st.lists(st.sampled_from("lfc"), min_size=1,
                                   max_size=6)):
        if kind == "l":  # a literal, or None for none
            part = data.draw(st.sampled_from(["", ",", '" y="', None]))
            texts.append([part or ""] * n)
        elif kind == "f":
            part = np.array(data.draw(st.lists(values, min_size=n,
                                               max_size=n)), dtype=float)
            texts.append(["%.*f" % (decimals, v) for v in part])
        else:
            labels = data.draw(st.lists(st.text("ab ", max_size=4),
                                        min_size=1, max_size=3))
            codes = data.draw(st.lists(st.integers(0, len(labels) - 1),
                                       min_size=n, max_size=n))
            part = (labels, np.array(codes, dtype=int))
            texts.append([labels[code] for code in codes])
        parts.append(part)
    sep = data.draw(st.sampled_from(["", "\n"]))
    block_bytes = data.draw(st.sampled_from([1, 64, 160, BLOCK_BYTES]))
    with mock.patch.object(textcols, "BLOCK_BYTES", block_bytes):
        text = b"".join(rows(n, parts, sep, decimals))
    assert text.decode() == \
        sep.join("".join(column[i] for column in texts) for i in range(n))


# Rows of each block of a striped CSV. _Layout.step counts a row as the most
# of its width, 16 bytes a float column and 16 bytes an integer digit that
# not every value has: 48 bytes for a striped CSV of up to 1,025 rows.
STRIPE_ROWS = 1024
STRIPE_BLOCK_BYTES = STRIPE_ROWS * 48


def striped_curve(n):
    """A lead-shaped curve of n rows whose t changes sign, and whose estimate
    gains an integer digit, halfway through each block of its CSV, written
    with BLOCK_BYTES set to STRIPE_BLOCK_BYTES."""
    i = np.arange(n)
    half = i % STRIPE_ROWS >= STRIPE_ROWS // 2
    return CidCurve(t=(i - STRIPE_ROWS // 2) / 7,
                    estimate=np.where(half, 10.25, 9.5) + i / 1e4,
                    codes=half.astype(int), family=INTERVENTION_DECISIONS,
                    cid=np.cos(i) ** 2, i0=0)


@pytest.mark.parametrize("n", [1, STRIPE_ROWS - 1, STRIPE_ROWS,
                               STRIPE_ROWS + 1])
def test_csv_blocks_own_their_bytes(tmp_path, n):
    # every block is filled into one reused row buffer; the blocks kept in
    # a list must still hold what was yielded, not the buffer's last rows
    curve = striped_curve(n)
    with mock.patch.object(textcols, "BLOCK_BYTES", STRIPE_BLOCK_BYTES):
        blocks = list(cli._csv_blocks(curve))
        assert [block.count(b"\n") for block in blocks] == \
            [1] + [min(STRIPE_ROWS, n - lo) for lo in range(0, n, STRIPE_ROWS)]
        assert all(type(block) is bytes for block in blocks)
        csv_text = b"".join(blocks)
        assert_same_text(csv_text, ref_curve_to_csv(curve))
        assert csv_text == b"".join(_csv_blocks(curve))
        cli._write_atomic(tmp_path / "curve.csv", cli._csv_blocks(curve))
    assert (tmp_path / "curve.csv").read_bytes() == csv_text


def traced_peak(work):
    """The most bytes traced at once while work() runs (numpy reports its
    buffers to tracemalloc), and what work() returns."""
    tracemalloc.start()
    try:
        result = work()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_formatter_temporaries_stay_within_block_bytes(hibbs_fit):
    values = np.random.default_rng(5).normal(0, 30, (16_001, 6))
    parts = [values[:, 0]] + [p for c in values.T[1:] for p in (",", c)]
    # numpy's first-call caches are not temporaries
    next(rows(len(values), parts, "\n"))
    # streamed a block at a time: the blocks' lengths are all it keeps
    peak, lengths = traced_peak(lambda: [
        len(block) for block in rows(len(values), parts, "\n")])
    assert len(lengths) > 1
    assert peak <= 4 * BLOCK_BYTES
    assert b"".join(rows(len(values), parts, "\n")) == b"\n".join(
        b",".join(b"%.6f" % v for v in row) for row in values.tolist())
    # streaming a CSV takes the same memory whatever the curve's length
    peaks = []
    for step in (0.0005, 0.0001):  # 16,001 and 80,001 rows
        curve = sweep_election(hibbs_fit, -0.728, KnobGrid(-4, 4, step))
        peaks.append(traced_peak(lambda: [
            len(block) for block in cli._csv_blocks(curve)])[0])
    assert abs(peaks[1] - peaks[0]) <= BLOCK_BYTES
