import re

import numpy as np
import pytest

from semirelax.plotting import emit_plots, fit_order, line_chart_svg, refinement_chart_svg


def polyline_points(svg_text):
    m = re.search(r'points="([^"]+)"', svg_text)
    return np.array([[float(v) for v in pt.split(",")] for pt in m.group(1).split()])


class TestFitOrder:
    def test_exact_power_law(self):
        dts = np.array([1e-2, 5e-3, 2.5e-3])
        errs = 3.7 * dts**2
        assert fit_order(dts, errs) == pytest.approx(2.0, abs=1e-12)

    def test_synthetic_noisy_order(self):
        rng = np.random.default_rng(3)
        dts = np.array([1e-2, 5e-3, 2.5e-3, 1.25e-3])
        errs = dts**2 * np.exp(rng.normal(0, 0.01, 4))
        assert fit_order(dts, errs) == pytest.approx(2.0, abs=0.1)


class TestLineChart:
    def test_monotone_series_gives_monotone_polyline(self, tmp_path):
        xs = np.linspace(0, 1, 50)
        ys = np.exp(-xs)  # nonincreasing data
        path = tmp_path / "chart.svg"
        line_chart_svg(xs, ys, "decay", path)
        pts = polyline_points(path.read_text())
        # pixel y-axis points down: nonincreasing data -> nondecreasing pixels
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert np.all(np.diff(pts[:, 0]) > 0)

    def test_deterministic_bytes(self, tmp_path):
        xs = np.linspace(0, 1, 7)
        ys = xs**2
        line_chart_svg(xs, ys, "t", tmp_path / "a.svg")
        line_chart_svg(xs, ys, "t", tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestRefinementChart:
    def test_annotation_matches_least_squares(self, tmp_path):
        dts = [1e-2, 5e-3, 2.5e-3]
        errs = [4e-4, 1.01e-4, 2.52e-5]
        path = tmp_path / "ref.svg"
        refinement_chart_svg(dts, errs, "refinement", path)
        text = path.read_text()
        m = re.search(r"order=([-\d.e+]+)", text)
        annotated = float(m.group(1))
        assert annotated == pytest.approx(fit_order(dts, errs), abs=1e-6)

    def test_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError):
            refinement_chart_svg([1e-2, 5e-3], [0.0, 1e-5], "x", tmp_path / "x.svg")


class TestEmitPlots:
    def test_charts_per_column(self, tmp_path):
        rows = np.array([[0, 1.0, 2.0], [0.1, 0.9, 1.9], [0.2, 0.85, 1.8]])
        written = emit_plots(["t", "l2", "h1dot"], rows, tmp_path / "plots")
        assert len(written) == 2
        names = {p.split("/")[-1] for p in map(str, written)}
        assert names == {"l2.svg", "h1dot.svg"}
        pts = polyline_points((tmp_path / "plots" / "l2.svg").read_text())
        assert np.all(np.diff(pts[:, 0]) > 0) and np.all(np.diff(pts[:, 1]) > 0)
