"""Hyperbolic geometry of the unit disc.

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

Limitations: the one distance here is the disc's (domains.SLIT_PLANE_K.dist
transports the slit plane); no multiply connected geodesics, no prime ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .util import TOL_CLOSED_FORM


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


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------

def as_complex(z):
    """Coerce a BoundaryPoint or complex-like value to a complex scalar or array."""
    if isinstance(z, BoundaryPoint):
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


# ---------------------------------------------------------------------------
# Metric and distance
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


# ---------------------------------------------------------------------------
# Boundary inequalities
# ---------------------------------------------------------------------------

def boundary_quotient(tau, z):
    """Julia quotient |tau - z|^2 / (1 - |z|^2)."""
    tau = as_complex(tau)
    z = require_in_disk(z, "boundary_quotient")
    a = np.abs(z)
    return np.abs(tau - z) ** 2 / ((1.0 - a) * (1.0 + a))


def julia_check(tau, ftau_prime, z, fz):
    """Julia inequality u(f(z)) <= f'(tau) * u(z) + TOL_CLOSED_FORM for the
    boundary quotient u."""
    if not (0.0 < ftau_prime <= 1.0):
        raise InvalidPointError("julia_check: f'(tau) must lie in (0, 1]")
    return boundary_quotient(tau, fz) <= ftau_prime * boundary_quotient(tau, z) + TOL_CLOSED_FORM


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

# Trapezoid samples on each segment of distance_lemma_bounds.
LEMMA_SAMPLES = 4096
# Pairs whose trapezoid samples are evaluated together: at LEMMA_SAMPLES
# samples, each complex array of a block takes 0.5 MB.
_BRACKET_BLOCK = 8


def distance_lemma_bounds(domain, z1, z2):
    """Two-sided bracket for the hyperbolic distance of a simply connected domain.

    lower = (1/4) log(1 + |z1-z2| / min(delta(z1), delta(z2)));
    upper = trapezoid value of the boundary-distance integral along the straight
    segment, or None (nan in an array) when the segment exits the domain.
    Equal points get (0, 0).  Elementwise on arrays: each pair gets the bits a
    scalar call gives it.

    `domain` must provide contains(w), boundary_distance(w) and
    segment_inside(w1, w2), elementwise, as domains.SLIT_PLANE_K does.
    """
    z1, z2 = np.broadcast_arrays(np.asarray(as_complex(z1), dtype=complex),
                                 np.asarray(as_complex(z2), dtype=complex))
    shape = z1.shape
    z1, z2 = z1.ravel(), z2.ravel()
    if not (np.all(domain.contains(z1)) and np.all(domain.contains(z2))):
        raise InvalidPointError("distance_lemma_bounds: endpoint outside domain")
    sep = np.abs(z1 - z2)
    near = np.minimum(domain.boundary_distance(z1), domain.boundary_distance(z2))
    lower = 0.25 * np.log1p(sep / near)
    upper = np.where(sep == 0.0, 0.0, np.nan)
    t = np.linspace(0.0, 1.0, LEMMA_SAMPLES)
    sampled = np.flatnonzero(domain.segment_inside(z1, z2) & (sep != 0.0))
    for start in range(0, sampled.size, _BRACKET_BLOCK):
        k = sampled[start:start + _BRACKET_BLOCK, None]
        inv_delta = 1.0 / domain.boundary_distance(z1[k] + t * (z2[k] - z1[k]))
        upper[k[:, 0]] = np.trapezoid(inv_delta, dx=sep[k] / (LEMMA_SAMPLES - 1), axis=-1)
    if shape:
        return lower.reshape(shape), upper.reshape(shape)
    return float(lower[0]), None if np.isnan(upper[0]) else float(upper[0])
