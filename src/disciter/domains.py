"""Concrete simply connected domains (the chart images) and their distances.

Every descriptor (the disc, the right half-plane and the slit plane) supplies
an exact membership test, an exact test that a straight segment stays inside,
and the Euclidean boundary distance.  dist_domain gives exact hyperbolic
distances by conformal transport to the disc, and horodisc_tangency_ratio
compares the horodisc metric with the disc metric.

The canonical slit plane is K = C \\ (-inf, -1], uniformized by

    g(z) = ((1+z)/(1-z))**2 - 1,

whose inverse uses the principal square root; arguments exactly on the branch
cut are rejected rather than resolved by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from . import hypgeo
from .hypgeo import as_complex, dist_disk, dist_halfplane


def slit_riemann(z):
    """Riemann map of the disc onto the slit plane K: ((1+z)/(1-z))^2 - 1."""
    z = hypgeo.require_in_disk(z, "slit_riemann")
    q = (1.0 + z) / (1.0 - z)
    return q * q - 1.0


def slit_riemann_inv(w):
    """Inverse of slit_riemann: (s-1)/(s+1) with s the principal root of w+1."""
    w = as_complex(w)
    on_slit = (np.imag(w) == 0.0) & (np.real(w) <= -1.0)
    if np.any(on_slit):
        raise InvalidPointError("slit_riemann_inv: point on the slit (-inf, -1]")
    s = np.sqrt(np.asarray(w, dtype=complex) + 1.0)
    return (s - 1.0) / (s + 1.0)


def _slit_contains(w):
    w = np.asarray(w, dtype=complex)
    return ~((np.imag(w) == 0.0) & (np.real(w) <= -1.0))


def slit_boundary_distance(w):
    """Distance from w to the slit (-inf, -1]; positive exactly on K."""
    w = np.asarray(w, dtype=complex)
    x, y = np.real(w), np.imag(w)
    # Distance to the ray {x <= -1, y = 0}: |Im w| past the tip, |w+1| before it.
    return np.where(x <= -1.0, np.abs(y), np.abs(w + 1.0))


@dataclass(frozen=True)
class SimplyConnectedDescriptor:
    """A named domain: membership, segment containment, boundary distance.

    Tags: disc, right-half-plane, slit-plane-k.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in ("disc", "right-half-plane", "slit-plane-k"):
            raise ValueError(f"unknown domain tag {self.tag!r}")

    def contains(self, w):
        w = np.asarray(as_complex(w), dtype=complex)
        if self.tag == "disc":
            return np.abs(w) < 1.0
        if self.tag == "right-half-plane":
            return np.real(w) > 0.0
        return _slit_contains(w)

    def _require_inside(self, w, where):
        w = as_complex(w)
        if not np.all(self.contains(w)):
            raise InvalidPointError(f"{where}: point outside {self.tag}")
        return w

    def segment_inside(self, w1, w2):
        """Exact test that the straight segment [w1, w2] stays in the domain.

        Elementwise on arrays.  The disc and the half-plane are convex; the
        slit plane checks the sign change of Im against the cut, which
        pointwise sampling would miss (the slit has measure zero).
        """
        w1 = np.asarray(self._require_inside(w1, "segment_inside"))
        w2 = np.asarray(self._require_inside(w2, "segment_inside"))
        if self.tag != "slit-plane-k":
            inside = np.ones(np.broadcast_shapes(w1.shape, w2.shape), dtype=bool)
        else:
            y1, y2 = np.imag(w1), np.imag(w2)
            # touching the real axis at an interior endpoint at most
            same_side = (y1 == 0.0) | (y2 == 0.0) | ((y1 > 0) == (y2 > 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                t = y1 / (y1 - y2)
                x_cross = (1.0 - t) * np.real(w1) + t * np.real(w2)
            inside = same_side | (x_cross > -1.0)
        return inside if inside.ndim else bool(inside)

    def boundary_distance(self, w):
        """Exact Euclidean distance to the boundary."""
        w = self._require_inside(w, "boundary_distance")
        wa = np.asarray(w, dtype=complex)
        if self.tag == "disc":
            out = 1.0 - np.abs(wa)
        elif self.tag == "right-half-plane":
            out = np.real(wa)
        else:
            out = slit_boundary_distance(wa)
        return out if isinstance(w, np.ndarray) else float(out)


DISC = SimplyConnectedDescriptor("disc")
RIGHT_HALF_PLANE = SimplyConnectedDescriptor("right-half-plane")
SLIT_PLANE_K = SimplyConnectedDescriptor("slit-plane-k")


def dist_domain(domain: SimplyConnectedDescriptor, w1, w2):
    """Hyperbolic distance of a tagged domain via conformal transport.

    Closed-form shortcuts are used on axes of symmetry: points of K on the
    real geodesic (-1, +inf) give d = (1/4) |log((1+b)/(1+a))|, and the
    right half-plane uses its chart closed form directly.  Elementwise on
    arrays, each pair taking the branch a scalar call would.
    """
    w1 = domain._require_inside(w1, "dist_domain")
    w2 = domain._require_inside(w2, "dist_domain")
    tag = domain.tag
    if tag == "disc":
        return dist_disk(w1, w2)
    if tag == "right-half-plane":
        return dist_halfplane(w1, w2)
    both_real = (np.imag(w1) == 0.0) & (np.imag(w2) == 0.0)
    if np.ndim(both_real) == 0:
        if both_real:
            return float(_real_geodesic_dist(w1, w2))
        return dist_disk(slit_riemann_inv(w1), slit_riemann_inv(w2))
    w1, w2 = np.broadcast_arrays(w1, w2)
    out = np.empty(both_real.shape)
    out[both_real] = _real_geodesic_dist(w1[both_real], w2[both_real])
    off = ~both_real
    out[off] = dist_disk(slit_riemann_inv(w1[off]), slit_riemann_inv(w2[off]))
    return out


def _real_geodesic_dist(w1, w2):
    """Distance in K between points of the real geodesic (-1, +inf)."""
    return 0.25 * np.abs(np.log1p(np.real(w2)) - np.log1p(np.real(w1)))


def horodisc_tangency_ratio(level, z):
    """Metric blow-up ratio lambda_horodisc(z) / lambda_disc(z); always >= 1.

    The closed-form disc metric lambda_{D(c,r)}(z) = r / (r^2 - |z-c|^2) is
    evaluated through u = 1 - z, which removes the cancellation both member
    metrics suffer next to the contact point:

        ratio = r (2 Re u - |u|^2) / (2 r Re u - |u|^2).

    The ratio tends to 1 along any non-tangential approach to the contact
    point, quantifying the internal-tangency metric equivalence on the model
    pair (horodisc, disc).
    """
    if not level > 0.0:
        raise InvalidPointError("horodisc level must be > 0")
    z = as_complex(z)
    r = level / (1.0 + level)
    u = 1.0 - np.asarray(z, dtype=complex)
    usq = np.abs(u) ** 2
    denom = 2.0 * r * np.real(u) - usq
    if np.any(denom <= 0.0):
        raise InvalidPointError("point outside the horodisc")
    out = r * (2.0 * np.real(u) - usq) / denom
    return out if np.ndim(out) else float(out)


