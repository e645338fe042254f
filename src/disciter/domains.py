"""The slit plane K = C \\ (-inf, -1], the chart image distances are measured in.

K is uniformized by

    g(z) = ((1+z)/(1-z))**2 - 1,

whose inverse uses the principal square root; arguments exactly on the branch
cut are rejected rather than resolved by convention.  SLIT_PLANE_K supplies an
exact membership test, an exact test that a straight segment stays inside,
the Euclidean boundary distance (what hypgeo.distance_lemma_bounds reads) and
the exact hyperbolic distance by conformal transport to the disc.
horodisc_tangency_ratio compares the horodisc metric with the disc metric.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidPointError
from . import hypgeo
from .hypgeo import as_complex, dist_disk


def _on_slit(w):
    return (np.imag(w) == 0.0) & (np.real(w) <= -1.0)


def slit_riemann(z):
    """Riemann map of the disc onto the slit plane K: ((1+z)/(1-z))^2 - 1."""
    z = hypgeo.require_in_disk(z, "slit_riemann")
    q = (1.0 + z) / (1.0 - z)
    return q * q - 1.0


def slit_riemann_inv(w):
    """Inverse of slit_riemann: (s-1)/(s+1) with s the principal root of w+1."""
    w = as_complex(w)
    if np.any(_on_slit(w)):
        raise InvalidPointError("slit_riemann_inv: point on the slit (-inf, -1]")
    s = np.sqrt(np.asarray(w, dtype=complex) + 1.0)
    return (s - 1.0) / (s + 1.0)


def slit_boundary_distance(w):
    """Distance from w to the slit (-inf, -1]; positive exactly on K."""
    w = np.asarray(w, dtype=complex)
    x, y = np.real(w), np.imag(w)
    # Distance to the ray {x <= -1, y = 0}: |Im w| past the tip, |w+1| before it.
    return np.where(x <= -1.0, np.abs(y), np.abs(w + 1.0))


def real_geodesic_dist(a, b):
    """Distance in K between points a, b of the real geodesic (-1, +inf):
    (1/4) |log((1+b)/(1+a))|."""
    return 0.25 * np.abs(np.log1p(np.real(b)) - np.log1p(np.real(a)))


class SlitPlane:
    """K = C \\ (-inf, -1]: membership, segment containment, boundary distance
    and hyperbolic distance, each elementwise on arrays."""

    def contains(self, w):
        return ~_on_slit(np.asarray(as_complex(w), dtype=complex))

    def _require_inside(self, w, where):
        w = as_complex(w)
        if not np.all(self.contains(w)):
            raise InvalidPointError(f"{where}: point outside the slit plane K")
        return w

    def segment_inside(self, w1, w2):
        """Exact test that the straight segment [w1, w2] stays in K.

        Checks the sign change of Im against the cut, which pointwise
        sampling would miss (the slit has measure zero).
        """
        w1 = np.asarray(self._require_inside(w1, "segment_inside"))
        w2 = np.asarray(self._require_inside(w2, "segment_inside"))
        y1, y2 = np.imag(w1), np.imag(w2)
        # touching the real axis at an interior endpoint at most
        same_side = (y1 == 0.0) | (y2 == 0.0) | ((y1 > 0) == (y2 > 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = y1 / (y1 - y2)
            x_cross = (1.0 - t) * np.real(w1) + t * np.real(w2)
        inside = same_side | (x_cross > -1.0)
        return inside if inside.ndim else bool(inside)

    def boundary_distance(self, w):
        """Exact Euclidean distance to the slit."""
        w = self._require_inside(w, "boundary_distance")
        out = slit_boundary_distance(w)
        return out if isinstance(w, np.ndarray) else float(out)

    def dist(self, w1, w2):
        """Hyperbolic distance of K by transport to the disc.

        Pairs on the real geodesic (-1, +inf) take the closed form
        real_geodesic_dist.  Elementwise on arrays, each pair taking the
        branch a scalar call would.
        """
        w1 = self._require_inside(w1, "dist")
        w2 = self._require_inside(w2, "dist")
        both_real = (np.imag(w1) == 0.0) & (np.imag(w2) == 0.0)
        if np.ndim(both_real) == 0:
            if both_real:
                return float(real_geodesic_dist(w1, w2))
            return dist_disk(slit_riemann_inv(w1), slit_riemann_inv(w2))
        w1, w2 = np.broadcast_arrays(w1, w2)
        out = np.empty(both_real.shape)
        out[both_real] = real_geodesic_dist(w1[both_real], w2[both_real])
        off = ~both_real
        out[off] = dist_disk(slit_riemann_inv(w1[off]), slit_riemann_inv(w2[off]))
        return out


SLIT_PLANE_K = SlitPlane()


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


