"""Hyperbolic geometry of the unit disc and the two half-plane charts.

Conventions
-----------
The disc metric density is 1/(1 - |z|^2), so d(0, r) = atanh(r) and the
transported density on the right half-plane {Re w > 0} is 1/(2 Re w), on the
upper half-plane {Im w > 0} it is 1/(2 Im w).  The fixed Cayley charts are

    right:  z -> (1 + z)/(1 - z)        upper:  z -> i (1 + z)/(1 - z)

both sending 0 to the chart base point (1 resp. i) and the boundary point 1
to infinity.

All functions are pure and accept numpy arrays wherever a point argument makes
sense elementwise.  Values are immutable and safe to share across threads.

Limitations: only the two half-plane charts are supported for sectors; no
general-domain sectors, no multiply connected geodesics, no prime ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .util import TOL_CLOSED_FORM, bisect_root


# ---------------------------------------------------------------------------
# Point types.  The numeric kernels below take bare complex values; these thin
# wrappers validate once at construction and are used at API boundaries.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disc."""

    re: float
    im: float

    def __post_init__(self):
        z = complex(self.re, self.im)
        if not (np.isfinite(self.re) and np.isfinite(self.im)):
            raise InvalidPointError("disc point must be finite")
        if abs(z) >= 1.0:
            raise InvalidPointError(f"|z| = {abs(z)} is not < 1")

    @property
    def value(self):
        return complex(self.re, self.im)


@dataclass(frozen=True)
class BoundaryPoint:
    """A unit-modulus point, represented exactly by its angle in [0, 2*pi)."""

    angle: float

    def __post_init__(self):
        if not np.isfinite(self.angle):
            raise InvalidPointError("boundary angle must be finite")
        object.__setattr__(self, "angle", float(self.angle) % (2.0 * math.pi))

    @property
    def value(self):
        return complex(math.cos(self.angle), math.sin(self.angle))


@dataclass(frozen=True)
class StolzAngle:
    """Non-tangential approach region S(sigma, R) = {|sigma - z| / (1 - |z|) < R}."""

    vertex: BoundaryPoint
    aperture: float  # R > 1

    def __post_init__(self):
        if not self.aperture > 1.0:
            raise InvalidPointError("Stolz aperture must be > 1")


@dataclass(frozen=True)
class HalfPlaneSector:
    """Sector around the positive-axis geodesic of the right half-plane.

    The set is D(base, R) in the hyperbolic metric, unioned with the Euclidean
    angular sector {r e^{i t} : r > base, |t| < beta} whose half-aperture beta
    solves d(1, e^{i beta}) = R.  beta is found by bisection to 1e-12.
    """

    base_radius: float
    amplitude: float
    half_aperture: float = None  # derived; do not pass

    def __post_init__(self):
        if not self.base_radius > 0.0:
            raise InvalidPointError("sector base radius must be > 0")
        if not self.amplitude > 0.0:
            raise InvalidPointError("sector amplitude must be > 0")
        beta = _solve_sector_aperture(self.amplitude)
        object.__setattr__(self, "half_aperture", beta)


def _solve_sector_aperture(big_r):
    # d(1, e^{i b}) is increasing in b on (0, pi/2) and covers (0, inf).
    hi = math.pi / 2.0 - 1e-15

    def gap(b):
        return dist_halfplane(1.0, complex(math.cos(b), math.sin(b)), chart="right") - big_r

    return bisect_root(gap, 1e-300, hi, tol=1e-12)


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def as_complex(z):
    """Coerce DiskPoint/BoundaryPoint/complex-like to a complex scalar or array."""
    if isinstance(z, (DiskPoint, BoundaryPoint)):
        return z.value
    return np.asarray(z, dtype=complex) if isinstance(z, np.ndarray) else complex(z)


def require_in_disk(z, where="point"):
    z = as_complex(z)
    a = np.abs(z)
    if not np.all(np.isfinite(a)):
        raise InvalidPointError(f"{where}: non-finite input")
    if np.any(a >= 1.0):
        raise InvalidPointError(f"{where}: |z| >= 1")
    return z


def _require_halfplane(w, chart, where="point"):
    w = as_complex(w)
    part = np.real(w) if chart == "right" else np.imag(w)
    if not np.all(np.isfinite(part)):
        raise InvalidPointError(f"{where}: non-finite input")
    if np.any(part <= 0.0):
        raise InvalidPointError(f"{where}: not strictly inside the {chart} half-plane")
    return w


# ---------------------------------------------------------------------------
# Metric, distance, length
# ---------------------------------------------------------------------------

def metric_disk(z):
    """Density of the disc metric, 1/(1-|z|^2), in the stable split form."""
    z = require_in_disk(z, "metric_disk")
    a = np.abs(z)
    return 1.0 / ((1.0 - a) * (1.0 + a))


def dist_disk(z, w):
    """Hyperbolic distance in the disc.

    Evaluated as 0.5*log1p(2*delta/(rho - delta)) with rho = |1 - conj(w) z|
    and delta = |z - w|, which avoids cancellation near the boundary.
    """
    z = require_in_disk(z, "dist_disk z")
    w = require_in_disk(w, "dist_disk w")
    rho = np.abs(1.0 - np.conj(w) * z)
    delta = np.abs(z - w)
    gap = rho - delta
    if np.any(gap <= 0.0):
        raise InvalidPointError("dist_disk: |1 - conj(w) z| <= |z - w| (invalid interior pair)")
    return 0.5 * np.log1p(2.0 * delta / gap)


def dist_halfplane(w1, w2, chart="right"):
    """Hyperbolic distance in the named half-plane chart, in closed form.

    Agrees with dist_disk of the Cayley preimages but stays finite where those
    preimages are not representable in doubles.
    """
    if chart not in ("right", "upper"):
        raise ValueError("chart must be 'right' or 'upper'")
    w1 = _require_halfplane(w1, chart, "dist_halfplane w1")
    w2 = _require_halfplane(w2, chart, "dist_halfplane w2")
    if chart == "right":
        rho = np.abs(np.conj(w1) + w2)
    else:
        rho = np.abs(w1 - np.conj(w2))
    delta = np.abs(w1 - w2)
    gap = rho - delta
    if np.any(gap <= 0.0):
        raise InvalidPointError("dist_halfplane: degenerate pair")
    return 0.5 * np.log1p(2.0 * delta / gap)


def metric_halfplane(w, chart="right"):
    """Transported density 1/(2 Re w) or 1/(2 Im w)."""
    w = _require_halfplane(w, chart, "metric_halfplane")
    part = np.real(w) if chart == "right" else np.imag(w)
    return 1.0 / (2.0 * part)


_METRIC_TAGS = {
    "disc": metric_disk,
    "right-half-plane": lambda w: metric_halfplane(w, "right"),
    "upper-half-plane": lambda w: metric_halfplane(w, "upper"),
}


def curve_length(metric, samples):
    """Trapezoid approximation of the hyperbolic length of a polyline.

    `metric` is a domain tag ('disc', 'right-half-plane', 'upper-half-plane'),
    or any callable returning the metric density at a point.  Refinement is the
    caller's job; the value converges to the true length of a smooth curve as
    the polyline is refined.
    """
    if callable(metric):
        density = metric
    else:
        try:
            density = _METRIC_TAGS[metric]
        except KeyError:
            raise ValueError(f"unknown metric tag {metric!r}") from None
    pts = np.asarray([as_complex(p) for p in samples], dtype=complex)
    if pts.size < 2:
        raise InvalidPointError("curve_length: need at least 2 samples")
    lam = np.asarray(density(pts), dtype=float)
    seg = np.abs(np.diff(pts))
    return float(np.sum(0.5 * (lam[:-1] + lam[1:]) * seg))


# ---------------------------------------------------------------------------
# Regions and boundary inequalities
# ---------------------------------------------------------------------------

def stolz_contains(sector: StolzAngle, z):
    """Membership test |sigma - z|/(1 - |z|) < R."""
    z = require_in_disk(z, "stolz_contains")
    sigma = sector.vertex.value
    ratio = np.abs(sigma - z) / (1.0 - np.abs(z))
    return ratio < sector.aperture


def sector_halfplane_contains(sector: HalfPlaneSector, w):
    """Membership in the right-half-plane sector (hyperbolic disc plus angular tail)."""
    w = _require_halfplane(w, "right", "sector_halfplane_contains")
    base = complex(sector.base_radius, 0.0)
    in_disc = dist_halfplane(base, w, chart="right") < sector.amplitude
    in_tail = (np.abs(w) > sector.base_radius) & (np.abs(np.angle(w)) < sector.half_aperture)
    return in_disc | in_tail


def boundary_quotient(tau, z):
    """Julia quotient |tau - z|^2 / (1 - |z|^2)."""
    tau = as_complex(tau)
    z = require_in_disk(z, "boundary_quotient")
    a = np.abs(z)
    return np.abs(tau - z) ** 2 / ((1.0 - a) * (1.0 + a))


def julia_check(tau, ftau_prime, z, fz, slack=TOL_CLOSED_FORM):
    """Julia inequality u(f(z)) <= f'(tau) * u(z) + slack for the boundary quotient u."""
    if not (0.0 < ftau_prime <= 1.0):
        raise InvalidPointError("julia_check: f'(tau) must lie in (0, 1]")
    return boundary_quotient(tau, fz) <= ftau_prime * boundary_quotient(tau, z) + slack


def euclid_rate_bracket(d):
    """Two-sided bracket (e^{-2d}, 2 e^{-2d}) for 1 - |z| when dist_disk(0, z) = d."""
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise InvalidPointError("euclid_rate_bracket: d must be >= 0")
    lo = np.exp(-2.0 * d)
    return lo, 2.0 * lo


# ---------------------------------------------------------------------------
# Distance Lemma
# ---------------------------------------------------------------------------

def distance_lemma_bounds(domain, z1, z2, samples=4096):
    """Two-sided bracket for the hyperbolic distance of a simply connected domain.

    lower = (1/4) log(1 + |z1-z2| / min(delta(z1), delta(z2)));
    upper = trapezoid value of the boundary-distance integral along the straight
    segment, or None when the sampled segment exits the domain.

    `domain` must provide contains(w) and boundary_distance(w).
    """
    z1 = as_complex(z1)
    z2 = as_complex(z2)
    if not (domain.contains(z1) and domain.contains(z2)):
        raise InvalidPointError("distance_lemma_bounds: endpoint outside domain")
    d1 = domain.boundary_distance(z1)
    d2 = domain.boundary_distance(z2)
    sep = abs(z1 - z2)
    lower = 0.25 * math.log1p(sep / min(d1, d2))
    if sep == 0.0:
        return 0.0, 0.0
    ts = np.linspace(0.0, 1.0, samples)
    pts = z1 + ts * (z2 - z1)
    inside = domain.segment_inside(z1, z2) if hasattr(domain, "segment_inside") \
        else np.all(domain.contains(pts))
    if not inside:
        return lower, None
    inv_delta = 1.0 / np.asarray(domain.boundary_distance(pts), dtype=float)
    upper = float(np.trapezoid(inv_delta, dx=sep / (samples - 1)))
    return lower, upper
