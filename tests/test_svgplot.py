import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import layerq
from layerq import line_chart
from layerq.svgplot import MAX_POINTS, _downsample, _ticks

SVG = "{http://www.w3.org/2000/svg}"


def render(tmp_path, series, **kwargs):
    path = tmp_path / "chart.svg"
    out = line_chart(series, str(path), **kwargs)
    assert out == str(path)
    return ET.parse(path).getroot()


def test_chart_structure(tmp_path):
    x = np.arange(100, dtype=float)
    series = [("first", x, np.sin(x / 10)), ("second", x, np.cos(x / 10))]
    root = render(tmp_path, series, title="curves", x_label="slot", y_label="value")
    assert root.tag == f"{SVG}svg"
    polylines = root.findall(f"{SVG}polyline")
    assert len(polylines) == 2
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert "curves" in texts and "slot" in texts and "value" in texts
    assert "first" in texts and "second" in texts


def test_labels_are_escaped(tmp_path):
    x = np.array([0.0, 1.0])
    root = render(tmp_path, [("a<b&c", x, x)], title="x < y")
    texts = [t.text for t in root.iter(f"{SVG}text")]
    assert "a<b&c" in texts  # parsed back means it was escaped on the way out
    assert "x < y" in texts


def test_downsampling_long_series(tmp_path):
    n = 50_000
    x = np.arange(n, dtype=float)
    root = render(tmp_path, [("long", x, x * 0.5)])
    pts = root.find(f"{SVG}polyline").get("points").split()
    assert len(pts) <= MAX_POINTS + 1
    xs, ys = _downsample(x, x * 0.5)
    assert xs.size <= MAX_POINTS + 1
    assert xs[-1] == x[-1] and ys[-1] == (x * 0.5)[-1]  # final point survives


def test_validation(tmp_path):
    path = str(tmp_path / "bad.svg")
    with pytest.raises(ValueError):
        line_chart([], path)
    with pytest.raises(ValueError):
        line_chart([("bad", np.arange(3.0), np.arange(4.0))], path)
    with pytest.raises(ValueError):
        line_chart([("bad", np.array([]), np.array([]))], path)
    with pytest.raises(ValueError):
        line_chart([("bad", np.array([0.0, np.inf]), np.array([0.0, 1.0]))], path)


def test_constant_series_renders(tmp_path):
    x = np.arange(10, dtype=float)
    root = render(tmp_path, [("flat", x, np.full(10, 2.5))])
    assert root.find(f"{SVG}polyline") is not None


def test_tick_ladder():
    ticks = _ticks(0.0, 1.0)
    assert ticks[0] <= 0.0 and ticks[-1] >= 1.0
    steps = np.diff(ticks)
    assert np.allclose(steps, steps[0])
    lead = float(f"{steps[0]:e}".split("e")[0])
    assert lead in (1.0, 2.0, 5.0)


def test_import_leaves_network_modules_unloaded():
    """Importing the package does not pull in urllib.request, http.client or
    email (xml.sax.saxutils did), which would slow every CLI start."""
    code = (
        "import sys, layerq\n"
        "print(','.join(m for m in ('urllib.request', 'http.client', 'email') if m in sys.modules))"
    )
    src = str(Path(layerq.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == ""


def test_labels_are_escaped(tmp_path):
    path = tmp_path / "chart.svg"
    line_chart([("a<b & \"c\"", np.arange(3.0), np.arange(3.0))], str(path), title="x > y")
    text = path.read_text()
    assert "a&lt;b &amp; \"c\"" in text and "x &gt; y" in text
    ET.parse(path)
