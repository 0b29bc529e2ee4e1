"""Byte pins for the SVG charts.

Each case draws a chart from literal inputs and compares the SHA-256 of
the returned document with a literal, so any change to the markup
(coordinates, ticks, legend, element order) shows up here.  Literal inputs
keep the digests independent of the BLAS build.
"""

import builtins
import hashlib
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from fmsolve import ode, svg
from fmsolve.numeric import csv_text

NAN = float("nan")


def _line_log_dropped():
    # nonpositive and NaN values on log axes are dropped from limits and marks
    return svg.line_chart(
        [
            {"label": "a", "x": [0.0, 1e-3, 1e-2, 0.1, 1.0], "y": [1e-3, 1e-6, NAN, 1e-4, 1e-2]},
            {"label": "b", "x": [-1.0, 2e-3, 2e-2, NAN], "y": [-2.0, 3e-5, -1e-3, NAN]},
        ],
        title="a < b & c", xlabel="h", ylabel="error", logx=True, logy=True,
    )


def _line_log_within_decade():
    # no decade inside the y range: linear ticks 2, 3, 4, 5 placed on the log scale
    return svg.line_chart([{"label": "s", "x": [1, 10, 100], "y": [2.0, 3.0, 5.0]}],
                          logx=True, logy=True)


def _line_all_filtered():
    # nothing survives the log filter: default limits, legend entry kept
    return svg.line_chart([{"label": "gone", "x": [0.0, -1.0], "y": [NAN, 0.0]}],
                          title="empty", logx=True, logy=True)


def _line_one_point():
    # a single point has no polyline and a zero-width range on both axes
    return svg.line_chart([{"label": "only", "x": [2.0], "y": [-3.0]}], xlabel="x", ylabel="y")


def _line_no_markers_color_empty_label():
    return svg.line_chart(
        [
            {"label": "mean", "x": [0, 1, 2, 3], "y": [0.5, -1.25, 2.0, 0.0]},
            {"label": "", "x": [0, 1, 2, 3], "y": [1.5, 0.25, 3.0, 1.0], "color": "#aec7e8"},
            {"label": "upper", "x": [0, 1, 2, 3], "y": [-0.5, -2.75, 1.0, -1.0],
             "color": "#ffbb78"},
        ],
        title="bands", xlabel="step n", ylabel="y_n", markers=False,
    )


def _scatter_zero_width():
    # every point on one vertical line: the x padding falls back to 0.05
    points = np.array([[1.0, -2.0], [1.0, 0.5], [1.0, 3.25], [1.0, 1.0]])
    return svg.scatter_chart(points, label="euler-10", title="samples", xlabel="x0", ylabel="x1")


def _raster_edge_runs():
    # runs touching the left and right edges, an all-outside row and a full row;
    # the axis limits sit on the outer cell edges, so every run stays in the frame
    inside = np.array([
        [True, True, False, False, True, True],
        [False, False, False, False, False, False],
        [False, True, True, False, True, False],
        [True, True, True, True, True, True],
    ])
    raster = SimpleNamespace(re=np.linspace(-2.0, 1.0, 6), im=np.linspace(-1.5, 1.5, 4),
                             inside=inside)
    return svg.raster_chart(raster, title="rk4: |R(z)| <= 1")


CASES = {
    "line-log-dropped": (
        _line_log_dropped,
        "51d64e457ad02741a8f19627e45bd2f480f25efd613179e656adf614f49331d8",
    ),
    "line-log-within-decade": (
        _line_log_within_decade,
        "ec5933a4a7bdaa7b6bd7b0c1639892b46b78a2b2b938fa26a49e5b0a92d754b8",
    ),
    "line-all-filtered": (
        _line_all_filtered,
        "e245ffec89257f061f84844f63b19fb3be07625fa3142ba73c907ea742a736e9",
    ),
    "line-one-point": (
        _line_one_point,
        "3a9a6bdf56ee20d660dfa6a28e6c93568ce8757cd2e9b9138ffeb3de6025be2b",
    ),
    "line-no-markers-color-empty-label": (
        _line_no_markers_color_empty_label,
        "9f99d5b44cf4a0813aa312dea2dbff4bfe1a7915050ed8d8766e6c034f00edde",
    ),
    "scatter-zero-width": (
        _scatter_zero_width,
        "d11125fce4a5f3929d8cca90db3e78c018907d1097ea5eca7ebc5de197e846f8",
    ),
    "raster-edge-runs": (
        _raster_edge_runs,
        "ddbcd8325125e951a47cb8692582e7ebf954fe8e4d1e0da0001a47a376c315c4",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_chart_bytes(case):
    draw, digest = CASES[case]
    assert hashlib.sha256(draw().encode()).hexdigest() == digest


FLOAT_MAX = np.finfo(float).max

# scatter inputs at the edges of the float range, each of which broke a
# chart before: half a unit did not widen a point at 1e308 (ZeroDivisionError),
# a span past the largest float overflowed the tick layout, a tick step
# below the float spacing at 1e16 never advanced, and a subnormal span
# has no decade for its ticks
EXTREME_POINTS = {
    "one-point-at-1e308": [[1e308, 1e308]] * 3,
    "span-past-float-max": [[-1.5e308, 0.0], [1.5e308, 1.0]],
    "at-float-max": [[FLOAT_MAX, -FLOAT_MAX], [FLOAT_MAX, -FLOAT_MAX]],
    "steps-below-spacing": [[1e16, 0.0], [1e16 + 2, 1.0]],
    "subnormal-span": [[0.0, 0.0], [5e-324, 1e-323]],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", EXTREME_POINTS)
def test_scatter_renders_finite_points_anywhere(case):
    root = ET.fromstring(svg.scatter_chart(np.array(EXTREME_POINTS[case]), label="p"))
    circles = root.findall("{http://www.w3.org/2000/svg}circle")
    assert len(circles) == len(EXTREME_POINTS[case])
    for c in circles:  # inside the 520 x 520 frame
        assert 0.0 <= float(c.get("cx")) <= 520.0 and 0.0 <= float(c.get("cy")) <= 520.0


# (x, y) ranges whose ticks one significant digit, or %g's six, cannot tell
# apart: 1.2e5..1.6e5 once labelled its x ticks 1e+05, 1e+05, 1e+05, 2e+05, 2e+05
NARROW_RANGES = {
    "above-1e4": ((1.2e5, 1.6e5), (0.0, 1.0)),
    "below-1e-3": ((0.0, 1.0), (1.2e-5, 1.6e-5)),
    "past-g-digits": ((1000.0001, 1000.0005), (-3e9 - 4.0, -3e9)),
}


@pytest.mark.parametrize("case", NARROW_RANGES)
def test_linear_tick_labels_are_distinct(case):
    (x0, x1), (y0, y1) = NARROW_RANGES[case]
    root = ET.fromstring(svg.scatter_chart(np.array([[x0, y0], [x1, y1]]), label="p"))
    texts = root.findall("{http://www.w3.org/2000/svg}text")
    for anchor in ("middle", "end"):  # x ticks, then y ticks
        labels = [t.text for t in texts if t.get("font-size") == "10" and t.get("text-anchor") == anchor]
        assert len(labels) >= 3 and len(set(labels)) == len(labels), labels


def test_renderers_open_no_file(monkeypatch):
    # every chart, CSV and trace renderer returns its text and touches no file
    def no_open(*args, **kwargs):
        raise AssertionError("a renderer opened a file")

    monkeypatch.setattr(builtins, "open", no_open)
    _, trace = ode.integrate_fixed(ode.VectorField(lambda t, y: -y), np.ones(1), 0.0, 1.0, 2, "euler")
    texts = [draw() for draw, _ in CASES.values()]
    texts += [csv_text(["x"], [[1.0]]), trace.csv_text(),
              ode.stability_region_grid("euler", (-2, 0), (-1, 1), 3).csv_text()]
    assert all(isinstance(t, str) and t for t in texts)
