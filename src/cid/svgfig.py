"""Dependency-free SVG emission for CID figures.

Only rect/line/polyline/text primitives are used. Every data panel is a
<g> element carrying its axis transform as data-* attributes, so emitted
coordinates can be parsed back and inverted exactly.
"""

from __future__ import annotations

import numpy as np

from . import textcols
from .sweep import CidCurve, PlausibleRegion, grid_spacing

DEFAULT_COLORS = {
    "curve": "#1a1a1a",
    "reference": "red",
    "region": "purple",
    "interval": "#9a9a9a",
    "reference_interval": "blue",
    "bar": "#4878a8",
    "axis": "#333333",
}


# Figure size and margin in pixels.
WIDTH_PX = 720
HEIGHT_PX = 560
MARGIN = 56
# Gap in pixels between a lead figure's snapshot bar charts.
INSET_GAP = 16
# Most snapshots a lead figure holds: n insets and n - 1 gaps share the
# panel width W = WIDTH_PX - 2 * MARGIN = 608, so each inset is
# (W - INSET_GAP * (n - 1)) / n wide, which is positive only while
# INSET_GAP * n < W + INSET_GAP, that is for n <= 38.
MAX_SNAPSHOTS = (WIDTH_PX - 2 * MARGIN + INSET_GAP - 1) // INSET_GAP


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def _span(lo, hi):
    """(lo, hi) as an axis range of positive finite width: (lo, lo + 1) where
    hi <= lo, or lo and its neighbour toward 0 where lo + 1 is lo."""
    if hi <= lo:
        hi = lo + 1.0
        if hi == lo:
            lo, hi = sorted((lo, float(np.nextafter(lo, 0.0))))
    return lo, hi


class _Frame:
    """Affine map from a data rectangle to a pixel rectangle (y flipped).

    px and py take a number or an array of numbers.
    """

    def __init__(self, left, top, width, height, xmin, xmax, ymin, ymax):
        self.left, self.top = left, top
        self.width, self.height = width, height
        self.xmin, self.xmax = _span(xmin, xmax)
        self.ymin, self.ymax = _span(ymin, ymax)

    def px(self, x: float) -> float:
        return self.left + (x - self.xmin) / (self.xmax - self.xmin) * self.width

    def py(self, y: float) -> float:
        return self.top + (self.ymax - y) / (self.ymax - self.ymin) * self.height

    def open_group(self, cls: str) -> str:
        attrs = " ".join(
            f'data-{k}="{_fmt(v)}"'
            for k, v in [("left", self.left), ("top", self.top),
                         ("width", self.width), ("height", self.height),
                         ("xmin", self.xmin), ("xmax", self.xmax),
                         ("ymin", self.ymin), ("ymax", self.ymax)]
        )
        return f'<g class="{cls}" {attrs}>'


def _line(x1, y1, x2, y2, stroke, width=1.0, cls=None) -> str:
    c = f' class="{cls}"' if cls else ""
    return (f'<line{c} x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"/>')


def _polyline(xs, ys, stroke, cls) -> bytes:
    """A polyline through the points (xs[i], ys[i]), to 3 decimals."""
    coords = b"".join(textcols.rows(len(xs), [xs, ",", ys], sep=" ",
                                    decimals=3))
    return (f'<polyline class="{cls}" points="'.encode() + coords
            + f'" fill="none" stroke="{stroke}" '
              f'stroke-width="{_fmt(1.5)}"/>'.encode())


def _rect(x, y, w, h, fill, cls=None, extra="") -> str:
    c = f' class="{cls}"' if cls else ""
    return (f'<rect{c} x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"{extra}/>')


def _text(x, y, s, size=11, anchor="middle") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{DEFAULT_COLORS["axis"]}">{_esc(s)}</text>')


def _axes(out, frame, y_label):
    out.append(_rect(frame.left, frame.top, frame.width, frame.height,
                     "none", extra=f' stroke="{DEFAULT_COLORS["axis"]}"'))
    bottom = frame.top + frame.height
    for xv in np.linspace(frame.xmin, frame.xmax, 5):
        px = frame.px(xv)
        out.append(_line(px, bottom, px, bottom + 4, DEFAULT_COLORS["axis"]))
        out.append(_text(px, bottom + 16, f"{xv:g}"))
    for yv in np.linspace(frame.ymin, frame.ymax, 5):
        py = frame.py(yv)
        out.append(_line(frame.left - 4, py, frame.left, py, DEFAULT_COLORS["axis"]))
        out.append(_text(frame.left - 8, py + 4, f"{yv:.3g}", anchor="end"))
    out.append(_text(frame.left + frame.width / 2, bottom + 32, "knob value t"))
    out.append(_text(frame.left - 40, frame.top + frame.height / 2, y_label,
                     anchor="middle"))


def _vline(out, frame, t, color, cls):
    if frame.xmin <= t <= frame.xmax:
        px = frame.px(t)
        out.append(_line(px, frame.top, px, frame.top + frame.height,
                         color, 1.5, cls=cls))


def _document(title, body) -> bytes:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{WIDTH_PX}" height="{HEIGHT_PX}" '
            f'viewBox="0 0 {WIDTH_PX} {HEIGHT_PX}">')
    parts = [head]
    if title:
        parts.append(_text(WIDTH_PX / 2, 18, title, size=14))
    parts.extend(body)
    parts.append("</svg>\n")
    # the body mixes str elements with the bytes of whole-column elements
    return b"\n".join([part.encode() if isinstance(part, str) else part
                       for part in parts])


def _pixel_columns(x, width) -> np.ndarray:
    """The first row of each pixel column floor(x) of the nondecreasing pixel
    xs x of a panel width pixels wide, when x has more points than that;
    otherwise every row, each point its own column."""
    if len(x) <= width:
        return np.arange(len(x))
    columns = np.floor(x)
    new = np.empty(len(x), dtype=bool)
    new[0] = True
    np.not_equal(columns[1:], columns[:-1], out=new[1:])
    return np.flatnonzero(new)


def _m4_rows(starts, values, always) -> np.ndarray:
    """The rows to draw of a line whose pixel columns start at the rows
    starts: each column's first and last row and its first rows of least
    and greatest value, plus the rows always, in grid order. A line through
    them is rasterized as the line through every row (M4: Jugel et al.,
    PVLDB 7(10), 2014)."""
    n = len(values)
    keep = np.zeros(n, dtype=bool)
    keep[starts] = True
    keep[starts[1:] - 1] = True
    keep[-1] = True
    keep[always] = True
    column = np.zeros(n, dtype=np.intp)  # each row's column, from 0
    column[starts[1:]] = 1
    np.cumsum(column, out=column)
    for reduce in (np.minimum, np.maximum):
        hits = np.flatnonzero(values == reduce.reduceat(values, starts)[column])
        first = np.empty(len(hits), dtype=bool)  # the first hit of a column
        first[:1] = True
        np.not_equal(column[hits[1:]], column[hits[:-1]], out=first[1:])
        keep[hits[first]] = True
    return np.flatnonzero(keep)


def _cid_panel(out, curve, height, ymax, region=None):
    """Append the CID-vs-t panel at the top of the figure, height pixels
    tall with CID from 0 to ymax, and lines at the reference t0 and at the
    region's bounds, to out. Return its frame, the pixel x of every grid
    point, and the first row of each of its pixel columns (_pixel_columns).

    The polyline goes through the M4 rows of those columns (_m4_rows), the
    reference row i0 and both rows of every change point: every row while
    the curve has no more points than the panel has pixel columns."""
    if not len(curve.t):
        raise ValueError("cannot render an empty curve")
    pad = grid_spacing(curve.t) if len(curve.t) > 1 else 1.0
    frame = _Frame(MARGIN, MARGIN, WIDTH_PX - 2 * MARGIN, height,
                   float(curve.t.min()) - pad, float(curve.t.max()) + pad,
                   0.0, ymax)
    # Python floats: an overflow is inf here, without a numpy warning
    if not np.isfinite(frame.xmax - frame.xmin):
        raise ValueError(f"knob axis [{frame.xmin:g}, {frame.xmax:g}], one "
                         f"grid step past each end of the curve, is wider "
                         f"than the float range")
    out.append(frame.open_group("cid-panel"))
    _axes(out, frame, "CID")
    _vline(out, frame, curve.t[curve.i0], DEFAULT_COLORS["reference"],
           "reference-line")
    if region is not None:
        for t in (region.lower, region.upper):
            _vline(out, frame, t, DEFAULT_COLORS["region"], "region-line")
    x = frame.px(curve.t)
    starts = _pixel_columns(x, frame.width)
    if len(curve.t) == 1:
        x0, y0 = x[0], frame.py(curve.cid[0])
        out.append(_rect(x0 - 2, y0 - 2, 4, 4, DEFAULT_COLORS["curve"],
                         cls="cid-marker"))
    else:
        changed = curve.change_rows
        rows = _m4_rows(starts, curve.cid,
                        np.concatenate(([curve.i0], changed, changed + 1)))
        out.append(_polyline(x[rows], frame.py(curve.cid[rows]),
                             DEFAULT_COLORS["curve"], "cid-polyline"))
    out.append("</g>")
    return frame, x, starts


def render_election_figure(curve: CidCurve, title: str,
                           region: PlausibleRegion | None = None) -> bytes:
    """Two stacked panels: CID vs t, with the plausible region's bounds if
    given, and the swept intervals with the reference interval
    highlighted."""
    gap = 48
    panel_h = (HEIGHT_PX - 2 * MARGIN - gap) / 2
    out = []
    top, x, starts = _cid_panel(out, curve, panel_h, 2.05, region)
    if curve.lower is None or curve.upper is None or curve.j_t is None:
        raise ValueError("election figure needs intervals and overlap values")

    lows, highs = curve.lower, curve.upper
    lo, hi = float(lows.min()), float(highs.max())
    span = hi - lo
    bottom = _Frame(MARGIN, MARGIN + panel_h + gap, top.width, panel_h,
                    top.xmin, top.xmax, lo - 0.05 * span, hi + 0.05 * span)
    out.append(bottom.open_group("interval-panel"))
    _axes(out, bottom, "interval")
    # The two panels share left, width, xmin and xmax, so they share pixel
    # columns; each column's bar is the envelope of its intervals, drawn at
    # the x of its first row.
    out.append(b"".join(textcols.rows(len(starts), [
        '<line class="interval-bar" x1="', x[starts],
        '" y1="', bottom.py(np.minimum.reduceat(lows, starts)), '" x2="',
        x[starts], '" y2="', bottom.py(np.maximum.reduceat(highs, starts)),
        f'" stroke="{DEFAULT_COLORS["interval"]}" stroke-width="{_fmt(1.0)}"/>'],
        sep="\n", decimals=3)))
    ref = curve.i0
    px = bottom.px(curve.t[ref])
    out.append(_line(px, bottom.py(lows[ref]), px, bottom.py(highs[ref]),
                     DEFAULT_COLORS["reference_interval"], 2.5,
                     cls="reference-interval"))
    out.append("</g>")
    return _document(title, out)


def render_lead_figure(curve: CidCurve, title: str) -> bytes:
    """CID-vs-t panel plus, for each of the curve's snapshot rows, a bar
    chart of that row's mean completed frequencies."""
    rows = list(curve.snapshot_rows)
    if not rows:
        raise ValueError("need at least one snapshot")
    gap = 56
    top_h = (HEIGHT_PX - 2 * MARGIN - gap) * 0.55
    inset_h = (HEIGHT_PX - 2 * MARGIN - gap) * 0.45
    out = []
    top, _, _ = _cid_panel(out, curve, top_h, 1.05)

    freqs = curve.completed_freqs
    n, k = freqs.shape
    inset_w = (top.width - INSET_GAP * (n - 1)) / n
    if not inset_w > 0:
        raise ValueError(f"{n} snapshots leave no width for each bar chart "
                         f"(at most {MAX_SNAPSHOTS})")
    ymax = 1.05 * float(freqs.max())
    for i, (t, probs) in enumerate(zip(curve.t[rows].tolist(), freqs.tolist())):
        left = MARGIN + i * (inset_w + INSET_GAP)
        frame = _Frame(left, MARGIN + top_h + gap, inset_w, inset_h,
                       0.5, k + 0.5, 0.0, ymax)
        out.append(frame.open_group("freq-panel"))
        out.append(_rect(frame.left, frame.top, frame.width, frame.height,
                         "none", extra=f' stroke="{DEFAULT_COLORS["axis"]}"'))
        base = frame.py(0.0)
        bar_w = frame.width / k * 0.8
        for level, prob in enumerate(probs, start=1):
            x = frame.px(level) - bar_w / 2
            y = frame.py(prob)
            out.append(_rect(x, y, bar_w, base - y, DEFAULT_COLORS["bar"],
                             cls="freq-bar",
                             extra=f' data-level="{level}"'))
        out.append(_text(frame.left + frame.width / 2, base + 16,
                         f"t = {t:g}"))
        out.append("</g>")
    return _document(title, out)
