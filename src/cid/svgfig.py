"""Dependency-free SVG emission for CID figures.

Only rect/line/polyline/text primitives are used. Every data panel is a
<g> element carrying its axis transform as data-* attributes, so emitted
coordinates can be parsed back and inverted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .sweep import CidCurve

DEFAULT_COLORS = {
    "curve": "#1a1a1a",
    "reference": "red",
    "region": "purple",
    "interval": "#9a9a9a",
    "reference_interval": "blue",
    "bar": "#4878a8",
    "axis": "#333333",
}


@dataclass(frozen=True)
class FigureSpec:
    width_px: int = 720
    height_px: int = 560
    reference_line: Optional[float] = 0.0
    region_lines: Optional[tuple] = None
    title: str = ""

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("figure dimensions must be positive")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _fmt_column(values: np.ndarray) -> list:
    """_fmt of every element of a 1-D array."""
    return ["%.3f" % v for v in values.tolist()]


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


class _Frame:
    """Affine map from a data rectangle to a pixel rectangle (y flipped).

    px and py take a number or an array of numbers.
    """

    def __init__(self, left, top, width, height, xmin, xmax, ymin, ymax):
        if xmax <= xmin:
            xmax = xmin + 1.0
        if ymax <= ymin:
            ymax = ymin + 1.0
        self.left, self.top = left, top
        self.width, self.height = width, height
        self.xmin, self.xmax = xmin, xmax
        self.ymin, self.ymax = ymin, ymax

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


def _polyline(xs, ys, stroke, width=1.5, cls=None) -> str:
    """A polyline through the points (xs[i], ys[i]); xs holds formatted
    coordinates and ys numbers."""
    c = f' class="{cls}"' if cls else ""
    coords = " ".join(["%s,%.3f"] * len(xs)) % tuple(
        chain.from_iterable(zip(xs, ys.tolist())))
    return (f'<polyline{c} points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>')


def _rect(x, y, w, h, fill, cls=None, extra="") -> str:
    c = f' class="{cls}"' if cls else ""
    return (f'<rect{c} x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{fill}"{extra}/>')


def _text(x, y, s, size=11, anchor="middle", fill="#333333") -> str:
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{fill}">{_esc(s)}</text>')


def _ticks(lo, hi, n=5):
    return np.linspace(lo, hi, n)


def _axes(out, frame, spec, x_label, y_label):
    out.append(_rect(frame.left, frame.top, frame.width, frame.height,
                     "none", extra=f' stroke="{DEFAULT_COLORS["axis"]}"'))
    bottom = frame.top + frame.height
    for xv in _ticks(frame.xmin, frame.xmax):
        px = frame.px(xv)
        out.append(_line(px, bottom, px, bottom + 4, DEFAULT_COLORS["axis"]))
        out.append(_text(px, bottom + 16, f"{xv:g}"))
    for yv in _ticks(frame.ymin, frame.ymax):
        py = frame.py(yv)
        out.append(_line(frame.left - 4, py, frame.left, py, DEFAULT_COLORS["axis"]))
        out.append(_text(frame.left - 8, py + 4, f"{yv:.3g}", anchor="end"))
    out.append(_text(frame.left + frame.width / 2, bottom + 32, x_label))
    out.append(_text(frame.left - 40, frame.top + frame.height / 2, y_label,
                     anchor="middle"))


def _vline(out, frame, t, color, width=1.5, cls=None):
    if frame.xmin <= t <= frame.xmax:
        px = frame.px(t)
        out.append(_line(px, frame.top, px, frame.top + frame.height,
                         color, width, cls=cls))


def _document(spec, body) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{spec.width_px}" height="{spec.height_px}" '
            f'viewBox="0 0 {spec.width_px} {spec.height_px}">')
    parts = [head]
    if spec.title:
        parts.append(_text(spec.width_px / 2, 18, spec.title, size=14))
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cid_panel(out, curve, spec, frame, y_label="CID"):
    """Append the CID-vs-t panel to out; return the formatted pixel x of
    every grid point."""
    out.append(frame.open_group("cid-panel"))
    _axes(out, frame, spec, "knob value t", y_label)
    if spec.reference_line is not None:
        _vline(out, frame, spec.reference_line, DEFAULT_COLORS["reference"],
               cls="reference-line")
    if spec.region_lines is not None:
        for t in spec.region_lines:
            _vline(out, frame, t, DEFAULT_COLORS["region"], cls="region-line")
    if len(curve.t) == 1:
        x, y = frame.px(curve.t[0]), frame.py(curve.cid[0])
        out.append(_rect(x - 2, y - 2, 4, 4, DEFAULT_COLORS["curve"],
                         cls="cid-marker"))
        xs = [_fmt(x)]
    else:
        xs = _fmt_column(frame.px(curve.t))
        out.append(_polyline(xs, frame.py(curve.cid), DEFAULT_COLORS["curve"],
                             cls="cid-polyline"))
    out.append("</g>")
    return xs


def render_election_figure(curve: CidCurve, spec: FigureSpec) -> str:
    """Two stacked panels: CID vs t, and the swept intervals with the
    reference interval highlighted."""
    if not len(curve.t):
        raise ValueError("cannot render an empty curve")
    if curve.lower is None or curve.upper is None or curve.j_t is None:
        raise ValueError("election figure needs intervals and overlap values")
    ts = curve.t
    margin, gap = 56, 48
    panel_h = (spec.height_px - 2 * margin - gap) / 2
    panel_w = spec.width_px - 2 * margin
    pad = curve.step if len(ts) > 1 else 1.0
    top = _Frame(margin, margin, panel_w, panel_h,
                 float(ts.min()) - pad, float(ts.max()) + pad, 0.0, 2.05)
    out = []
    xs = _cid_panel(out, curve, spec, top)

    lows, highs = curve.lower, curve.upper
    lo, hi = float(lows.min()), float(highs.max())
    span = hi - lo
    bottom = _Frame(margin, margin + panel_h + gap, panel_w, panel_h,
                    top.xmin, top.xmax, lo - 0.05 * span, hi + 0.05 * span)
    ref_t = spec.reference_line if spec.reference_line is not None else 0.0
    ref = curve.index_nearest(ref_t)
    out.append(bottom.open_group("interval-panel"))
    _axes(out, bottom, spec, "knob value t", "interval")
    # The two panels share left, width, xmin and xmax, so they share xs.
    bar = ('<line class="interval-bar" x1="%s" y1="%.3f" x2="%s" y2="%.3f" '
           f'stroke="{DEFAULT_COLORS["interval"]}" stroke-width="{_fmt(1.0)}"/>')
    out.append("\n".join([bar] * len(xs)) % tuple(chain.from_iterable(
        zip(xs, bottom.py(lows).tolist(), xs, bottom.py(highs).tolist()))))
    px = bottom.px(ts[ref])
    out.append(_line(px, bottom.py(lows[ref]), px, bottom.py(highs[ref]),
                     DEFAULT_COLORS["reference_interval"], 2.5,
                     cls="reference-interval"))
    out.append("</g>")
    return _document(spec, out)


def render_lead_figure(curve: CidCurve, snapshots, spec: FigureSpec) -> str:
    """CID-vs-t panel plus one completed-frequency bar chart per snapshot."""
    if not len(curve.t):
        raise ValueError("cannot render an empty curve")
    if not snapshots:
        raise ValueError("need at least one snapshot")
    ts = curve.t
    for t, _ in snapshots:
        if np.min(np.abs(ts - t)) > 1e-6:
            raise ValueError(f"snapshot t = {t} is not on the sweep grid")

    margin, gap = 56, 56
    panel_w = spec.width_px - 2 * margin
    top_h = (spec.height_px - 2 * margin - gap) * 0.55
    inset_h = (spec.height_px - 2 * margin - gap) * 0.45
    pad = curve.step if len(ts) > 1 else 1.0
    top = _Frame(margin, margin, panel_w, top_h,
                 float(ts.min()) - pad, float(ts.max()) + pad, 0.0, 1.05)
    out = []
    _cid_panel(out, curve, spec, top)

    n = len(snapshots)
    inset_gap = 16
    inset_w = (panel_w - inset_gap * (n - 1)) / n
    ymax = 1.05 * max(max(d.probs) for _, d in snapshots)
    for i, (t, dist) in enumerate(snapshots):
        left = margin + i * (inset_w + inset_gap)
        frame = _Frame(left, margin + top_h + gap, inset_w, inset_h,
                       0.5, dist.k + 0.5, 0.0, ymax)
        out.append(frame.open_group("freq-panel"))
        out.append(_rect(frame.left, frame.top, frame.width, frame.height,
                         "none", extra=f' stroke="{DEFAULT_COLORS["axis"]}"'))
        base = frame.py(0.0)
        bar_w = frame.width / dist.k * 0.8
        for level, prob in enumerate(dist.probs, start=1):
            x = frame.px(level) - bar_w / 2
            y = frame.py(prob)
            out.append(_rect(x, y, bar_w, base - y, DEFAULT_COLORS["bar"],
                             cls="freq-bar",
                             extra=f' data-level="{level}"'))
        out.append(_text(frame.left + frame.width / 2, base + 16,
                         f"t = {t:g}"))
        out.append("</g>")
    return _document(spec, out)
