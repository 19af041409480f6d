"""Minimal deterministic SVG charts for diagnostics output.

Hand-rolled SVG keeps the output a pure function of the data: identical
inputs yield byte-identical files, which the determinism checks rely on.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["fit_order", "line_chart_svg", "refinement_chart_svg", "emit_plots"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def fit_order(dts, errors) -> float:
    """Least-squares slope of log(error) against log(dt)."""
    x = np.log(np.asarray(dts, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def _scale(vals, lo_px, hi_px):
    vals = np.asarray(vals, dtype=float)
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmax == vmin:
        vmax = vmin + 1.0
    return lo_px + (vals - vmin) / (vmax - vmin) * (hi_px - lo_px), vmin, vmax


def _svg_document(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.6g}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _polyline(xs_px, ys_px, color="steelblue") -> str:
    pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(xs_px, ys_px))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _axis_labels(xmin, xmax, ymin, ymax, xlabel, ylabel) -> list[str]:
    return [
        f'<text x="{_ML}" y="{_H - 12}" font-family="monospace" font-size="11">'
        f"{xlabel}: {xmin:.6g} .. {xmax:.6g}</text>",
        f'<text x="{_ML}" y="{_MT - 8}" font-family="monospace" font-size="11">'
        f"{ylabel}: {ymin:.6g} .. {ymax:.6g}</text>",
    ]


def line_chart_svg(xs, ys, title: str, path, xlabel: str = "t",
                   ylabel: str = "value") -> None:
    """One polyline in data order; the y pixel axis points down, so
    nonincreasing data yields nondecreasing pixel y-values."""
    xs_px, xmin, xmax = _scale(xs, _ML, _W - _MR)
    ys_px, ymin, ymax = _scale(ys, _H - _MB, _MT)
    body = [_polyline(xs_px, ys_px)]
    body += _axis_labels(xmin, xmax, ymin, ymax, xlabel, ylabel)
    with open(path, "w") as fh:
        fh.write(_svg_document(body, title))


def refinement_chart_svg(dts, errors, title: str, path) -> None:
    """Log-log refinement chart annotated with the least-squares order."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(dts <= 0) or np.any(errors <= 0):
        raise ValueError("refinement chart needs positive dts and errors")
    order = fit_order(dts, errors)
    xs_px, xmin, xmax = _scale(np.log10(dts), _ML, _W - _MR)
    ys_px, ymin, ymax = _scale(np.log10(errors), _H - _MB, _MT)
    body = [_polyline(xs_px, ys_px, color="firebrick")]
    body += [
        f'<circle cx="{x:.6g}" cy="{y:.6g}" r="3" fill="firebrick"/>'
        for x, y in zip(xs_px, ys_px)
    ]
    body.append(
        f'<text x="{_W - _MR - 10}" y="{_MT + 20}" text-anchor="end" '
        f'font-family="monospace" font-size="12" id="order-annotation">'
        f"order={order:.12g}</text>"
    )
    body += _axis_labels(xmin, xmax, ymin, ymax, "log10 dt", "log10 error")
    with open(path, "w") as fh:
        fh.write(_svg_document(body, title))


def emit_plots(columns, rows, outdir) -> list[str]:
    """One line chart per column of the (snapshot, column) array ``rows``
    against its first, t; ``columns`` names them, as
    diagnostics.write_diagnostics_csv returns the CSV's rows under
    CSV_HEADER.  A pure function of the data."""
    data = np.asarray(rows, dtype=float)
    os.makedirs(outdir, exist_ok=True)
    t = data[:, 0]
    written = []
    for j, col in enumerate(columns[1:], start=1):
        path = os.path.join(outdir, f"{col}.svg")
        line_chart_svg(t, data[:, j], title=col, path=path, ylabel=col)
        written.append(path)
    return written
