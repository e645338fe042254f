"""Shared numerics: nothing here knows about discs or maps.

Grids, least-squares fits, deterministic sampling and the deterministic
CSV/JSON/SVG writers used by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError

# Absolute tolerance of closed-form identities (Julia slack, semiflow checks).
TOL_CLOSED_FORM = 1e-12

# Below this value of 1 - |z| a materialized disc point is treated as
# indistinguishable from the boundary at double precision.
SATURATION_EPS = 1e-15


def geometric_grid(n_max, dense_upto=32):
    """Increasing integer grid: 1..dense_upto, then floor(2**(k/2)), capped at n_max.

    n_max itself is always included so pointwise checks at the grid end are
    meaningful.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    vals = set(range(1, min(dense_upto, n_max) + 1))
    k = 0
    while True:
        n = int(2 ** (k / 2.0))
        if n > n_max:
            break
        vals.add(n)
        k += 1
    vals.add(int(n_max))
    return np.array(sorted(vals), dtype=np.int64)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float  # l2 norm of residuals

    def to_dict(self):
        return {"slope": self.slope, "intercept": self.intercept, "residual": self.residual}


def linear_fit(x, y):
    """Least-squares line y ~ slope*x + intercept with residual norm."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise InvalidPointError("need at least two points to fit")
    coeffs, res, _, _, _ = np.polyfit(x, y, 1, full=True)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return FitResult(slope=float(coeffs[0]), intercept=float(coeffs[1]), residual=residual)


def last_decade_mask(ns):
    """Mask selecting the last decade of an increasing grid (n >= n_max/10)."""
    ns = np.asarray(ns, dtype=float)
    return ns >= ns.max() / 10.0


def tail_fit_mask(ns, base):
    """Last-decade mask intersected with `base`, widened to the last two
    admissible points when the grid is too sparse for a fit."""
    base = np.asarray(base, dtype=bool)
    mask = base & last_decade_mask(ns)
    if mask.sum() < 2:
        idx = np.nonzero(base)[0]
        if idx.size < 2:
            raise InvalidPointError("need at least two admissible points to fit")
        mask = np.zeros(base.shape, dtype=bool)
        mask[idx[-2:]] = True
    return mask


def sample_disk(rng, n, rmax=0.99):
    """n points uniform w.r.t. area on |z| < rmax."""
    r = rmax * np.sqrt(rng.random(n))
    phi = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * phi)


# ---------------------------------------------------------------------------
# Deterministic artifact writers (identical bytes for identical inputs).
# ---------------------------------------------------------------------------

def format_value(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _column_cells(col):
    """format_value of each element of one column, as a list of strings.

    A float64 array goes through repr of its Python floats and other numeric
    arrays through format_value of theirs; either equals format_value of the
    array's own elements.  Any other column is formatted element by element.
    """
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return list(map(repr, col.tolist()))
        if col.dtype.kind in "biuf":
            col = col.tolist()
    return list(map(format_value, col))


def write_csv(path, header, columns):
    """Write CSV with python repr floats; columns is a list of equal-length
    arrays or lists (unequal lengths raise ValueError before the file opens)."""
    if len(columns) != len(header):
        raise ValueError("header/column mismatch")
    rows = map(",".join, zip(*map(_column_cells, columns), strict=True))
    text = "\n".join([",".join(header), *rows]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def json_dumps(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2)


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_dumps(obj) + "\n")


def write_svg_series(path, xs, ys, title="", xlabel="", ylabel=""):
    """Minimal self-contained SVG line plot; byte-for-byte deterministic."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    good = np.isfinite(xs) & np.isfinite(ys)
    xs, ys = xs[good], ys[good]
    w, h, pad = 640, 420, 50
    if xs.size == 0:
        xs = np.array([0.0, 1.0])
        ys = np.array([0.0, 0.0])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    px = pad + (xs - x0) / (x1 - x0) * (w - 2 * pad)
    py = h - pad - (ys - y0) / (y1 - y0) * (h - 2 * pad)
    pts = " ".join("%.6g,%.6g" % (a, b) for a, b in zip(px, py))
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (w, h),
        '<rect width="100%" height="100%" fill="white"/>',
        '<text x="%d" y="24" font-family="monospace" font-size="14">%s</text>' % (pad, title),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (pad, h - pad, w - pad, h - pad),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>' % (pad, pad, pad, h - pad),
        '<text x="%d" y="%d" font-family="monospace" font-size="12">%s</text>' % (w // 2, h - 12, xlabel),
        '<text x="12" y="%d" font-family="monospace" font-size="12">%s</text>' % (pad - 10, ylabel),
        '<text x="%d" y="%d" font-family="monospace" font-size="10">%.6g</text>' % (pad, h - pad + 16, x0),
        '<text x="%d" y="%d" font-family="monospace" font-size="10" text-anchor="end">%.6g</text>' % (w - pad, h - pad + 16, x1),
        '<text x="%d" y="%d" font-family="monospace" font-size="10">%.6g</text>' % (4, h - pad, y0),
        '<text x="%d" y="%d" font-family="monospace" font-size="10">%.6g</text>' % (4, pad + 4, y1),
        '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="%s"/>' % pts,
        "</svg>",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
