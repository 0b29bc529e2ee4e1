"""Minimal hand-written SVG charts: scatter, polylines, rasters.

Each chart function returns its document as text and writes no file.  No
plotting dependency; the output is plain markup that stays inspectable
and diffs cleanly.  Only what the report figures need: linear and log
axes, decade or 1-2-5 ticks, a small legend, fixed palette.
"""

import math

import numpy as np

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#17becf"]

_MARGIN = {"left": 64, "right": 16, "top": 28, "bottom": 44}

# one size per chart kind, (width, height) in pixels
_LINE_SIZE = (640, 480)
_SQUARE_SIZE = (520, 520)


def _esc(text):
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _labels(values):
    """Tick labels: %g, or e-notation with one significant digit below 1e-3
    and from 1e4, each given more digits until no two labels agree."""
    for digits in range(17):  # 17 significant digits tell any two floats apart
        labels = [f"{v:.{digits}e}" if v != 0 and (abs(v) < 1e-3 or abs(v) >= 1e4)
                  else f"{v:.{digits + 6}g}" for v in values]
        if len(set(labels)) == len(labels):
            break
    return labels


def _ticks_linear(lo, hi):
    span = hi - lo
    raw = span / 5  # about five ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    v = math.ceil(lo / step) * step
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:  # the step is below the float spacing at v
            break
        v += step
    return ticks


def _ticks_log(lo, hi):
    """(log10 position, label) ticks of a log axis spanning 10^lo..10^hi:
    its decades, or linear ticks of the values when it spans no decade."""
    ticks = [e for e in range(math.floor(lo), math.ceil(hi) + 1) if lo - 1e-9 <= e <= hi + 1e-9]
    if ticks:
        return [(e, f"1e{e}") for e in ticks]
    values = _ticks_linear(10.0 ** (lo - 1e-9), 10.0 ** (hi + 1e-9))
    return list(zip([math.log10(v) for v in values], _labels(values)))


class _Scale:
    """One axis: maps data values (linearly or in log10) onto the pixel span
    p0..p1 and lays out its own ticks with ``tick_markup``, a format string
    over the tick's pixel ``p``, ``q = p + 3`` and its ``label``."""

    def __init__(self, lim, log, p0, p1, tick_markup):
        self.log = log
        lo, hi = (math.log10(lim[0]), math.log10(lim[1])) if log else lim
        lo, hi = np.clip([lo, hi], -np.finfo(float).max, np.finfo(float).max).tolist()
        # values are mapped divided by unit and ticks labelled times unit: 1 where
        # the tick layout works, else a power of two that scales the limits into [-2, 2]
        for self.unit in (1.0, math.ldexp(1.0, math.frexp(max(abs(lo), abs(hi)))[1] - 1)):
            self.lo, self.hi = lo / self.unit, hi / self.unit
            if self.hi <= self.lo:
                self.lo, self.hi = self.lo - 0.5, self.lo + 0.5
            if (self.hi - self.lo) / 5 > 1e-323 and math.isfinite(self.hi + 1e-9 * (self.hi - self.lo)):
                break
        self.p0, self.p1 = p0, p1
        self.tick_markup = tick_markup

    def _pixel(self, u):
        return self.p0 + (u - self.lo) / (self.hi - self.lo) * (self.p1 - self.p0)

    def __call__(self, v):
        return self._pixel((math.log10(v) if self.log else v) / self.unit)

    def ticks(self):
        if self.log:
            ticks = _ticks_log(self.lo, self.hi)
        else:
            us = _ticks_linear(self.lo, self.hi)
            ticks = zip(us, _labels([u * self.unit for u in us]))
        return [self.tick_markup.format(p=self._pixel(u), q=self._pixel(u) + 3, label=label)
                for u, label in ticks]


class _Chart:
    """A framed plot: two scales, the marks drawn through them, a legend.

    ``x`` and ``y`` map data to pixels; chart functions append their marks
    to ``marks`` and (label, color) pairs to ``legend``, then :meth:`render`
    returns frame, ticks, titles, marks and legend as one document.
    """

    def __init__(self, size, xlim, ylim, logx=False, logy=False):
        self.w, self.h = size
        left, right = _MARGIN["left"], self.w - _MARGIN["right"]
        bottom, top = self.h - _MARGIN["bottom"], _MARGIN["top"]
        # x ticks hang below the frame, y ticks stick out left of it
        self.x = _Scale(xlim, logx, left, right, (
            f'<line x1="{{p:.1f}}" y1="{bottom}" x2="{{p:.1f}}" y2="{bottom + 4}" stroke="#444"/>\n'
            f'<text x="{{p:.1f}}" y="{bottom + 16}" font-size="10" text-anchor="middle">{{label}}</text>'
        ))
        self.y = _Scale(ylim, logy, bottom, top, (
            f'<line x1="{left - 4}" y1="{{p:.1f}}" x2="{left}" y2="{{p:.1f}}" stroke="#444"/>\n'
            f'<text x="{left - 6}" y="{{q:.1f}}" font-size="10" text-anchor="end">{{label}}</text>'
        ))
        self.marks = []
        self.legend = []

    def render(self, title="", xlabel="", ylabel=""):
        left, right, bottom, top = self.x.p0, self.x.p1, self.y.p0, self.y.p1
        el = [
            f'<rect width="{self.w}" height="{self.h}" fill="white"/>',
            f'<rect x="{left}" y="{top}" width="{right - left}" '
            f'height="{bottom - top}" fill="none" stroke="#444"/>',
            *self.x.ticks(),
            *self.y.ticks(),
        ]
        mid, cy = (left + right) / 2, (bottom + top) / 2
        texts = [  # (text, x, y, font size, extra attributes)
            (title, mid, top - 10, 13, ""),
            (xlabel, mid, self.h - 8, 11, ""),
            (ylabel, 14, cy, 11, f' transform="rotate(-90 14 {cy})"'),
        ]
        el += [
            f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="middle"{extra}>{_esc(text)}</text>'
            for text, x, y, size, extra in texts if text
        ]
        el += self.marks
        for i, (label, color) in enumerate(self.legend):
            y, x = top + 14 + 14 * i, right - 130
            el.append(f'<line x1="{x}" y1="{y - 3}" x2="{x + 18}" y2="{y - 3}" stroke="{color}" stroke-width="2"/>')
            el.append(f'<text x="{x + 24}" y="{y}" font-size="10">{_esc(label)}</text>')
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" height="{self.h}" '
                f'viewBox="0 0 {self.w} {self.h}">\n' + "\n".join(el) + "\n</svg>\n")


def line_chart(series, title="", xlabel="", ylabel="", logx=False, logy=False,
               markers=True):
    """Polyline chart.  ``series`` is a list of dicts {label, x, y[, color]}.

    Non-finite values, and nonpositive ones on a log axis, are dropped: a
    point is drawn only if both coordinates are kept, while the axis limits
    span every kept value, so a NaN y still widens the x axis.
    """
    def keep(v, log):
        return math.isfinite(v) and (not log or v > 0)

    xs = [x for s in series for x in s["x"] if keep(x, logx)] or ([0.1, 1.0] if logx else [0.0, 1.0])
    ys = [y for s in series for y in s["y"] if keep(y, logy)] or ([0.1, 1.0] if logy else [0.0, 1.0])
    chart = _Chart(_LINE_SIZE, (min(xs), max(xs)), (min(ys), max(ys)), logx, logy)
    for i, s in enumerate(series):
        color = s.get("color", PALETTE[i % len(PALETTE)])
        pts = [(chart.x(x), chart.y(y)) for x, y in zip(s["x"], s["y"]) if keep(x, logx) and keep(y, logy)]
        if len(pts) >= 2:
            path_attr = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
            chart.marks.append(f'<polyline points="{path_attr}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if markers:
            chart.marks += [f'<circle cx="{px:.1f}" cy="{py:.1f}" r="2.5" fill="{color}"/>' for px, py in pts]
        if s.get("label"):
            chart.legend.append((s["label"], color))
    return chart.render(title, xlabel, ylabel)


def scatter_chart(points, label="", title="", xlabel="", ylabel=""):
    """Scatter plot of one (n x 2) point set, with ``label`` as its legend entry."""
    xs, ys = np.asarray(points, dtype=float).T.tolist()
    padx = 0.05 * (max(xs) - min(xs) or 1.0)
    pady = 0.05 * (max(ys) - min(ys) or 1.0)
    chart = _Chart(_SQUARE_SIZE, (min(xs) - padx, max(xs) + padx), (min(ys) - pady, max(ys) + pady))
    color = PALETTE[0]
    chart.marks = [
        f'<circle cx="{chart.x(x):.1f}" cy="{chart.y(y):.1f}" r="1.8" fill="{color}" fill-opacity="0.6"/>'
        for x, y in zip(xs, ys)
    ]
    chart.legend = [(label, color)] if label else []
    return chart.render(title, xlabel, ylabel)


def raster_chart(raster, title=""):
    """Filled stability region: cells with |R| <= 1, drawn as merged row runs."""
    re, im, inside = raster.re, raster.im, raster.inside
    dx = (re[1] - re[0]) if len(re) > 1 else 1.0
    dy = (im[1] - im[0]) if len(im) > 1 else 1.0
    # the limits sit on the outer cell edges, so border cells stay in the frame
    chart = _Chart(_SQUARE_SIZE, (float(re[0] - dx / 2), float(re[-1] + dx / 2)),
                   (float(im[0] - dy / 2), float(im[-1] + dy / 2)))
    for i, row in enumerate(inside):
        y_top = chart.y(float(im[i]) + dy / 2)
        y_bot = chart.y(float(im[i]) - dy / 2)
        # the row padded with outside cells changes value exactly at the
        # start and one past the end of each run of inside cells
        changes = np.flatnonzero(np.diff(np.concatenate(([False], row, [False]))))
        for j0, j1 in changes.reshape(-1, 2):
            x_left = chart.x(float(re[j0]) - dx / 2)
            x_right = chart.x(float(re[j1 - 1]) + dx / 2)
            chart.marks.append(
                f'<rect x="{x_left:.1f}" y="{y_top:.1f}" width="{x_right - x_left:.1f}" '
                f'height="{y_bot - y_top:.1f}" fill="#1f77b4" fill-opacity="0.55"/>'
            )
    # axes through the origin for orientation
    if re[0] < 0 < re[-1]:
        chart.marks.append(f'<line x1="{chart.x(0):.1f}" y1="{chart.y.p1}" x2="{chart.x(0):.1f}" y2="{chart.y.p0}" stroke="#999" stroke-dasharray="3,3"/>')
    if im[0] < 0 < im[-1]:
        chart.marks.append(f'<line x1="{chart.x.p0}" y1="{chart.y(0):.1f}" x2="{chart.x.p1}" y2="{chart.y(0):.1f}" stroke="#999" stroke-dasharray="3,3"/>')
    return chart.render(title, "Re(z)", "Im(z)")
