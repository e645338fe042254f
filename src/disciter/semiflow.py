"""Continuous-time trajectories through the linearizing chart.

For a charted, univalent model whose chart image is starlike at infinity, the
family phi_t(z) = h^{-1}(h(z) + t) is a semigroup on the whole disc that
interpolates the iteration: phi_n = f^n.  The supported models are exactly the
zoo members with a chart kernel (unit-translation charts and the scaling
chart); the non-univalent quadratic map is rejected loudly by design, since a
fundamental subdomain for it is not constructed here.  A trajectory evaluates
its boundary gap and slope angle with the same kernel that maps.iterate
samples at integer times, so both agree with the orbit bit for bit at t = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedModelError
from .hypgeo import dist_disk, require_in_disk
from .maps import ModelMap, eval_map, iterate
from .util import TOL_CLOSED_FORM


@dataclass(frozen=True)
class Trajectory:
    map: ModelMap
    z0: complex
    w0: complex        # chart coordinate of z0
    _kernel: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_kernel", self.map.kernel(self.z0))

    @property
    def horizon(self):
        """Default time horizon, below where the disc point saturates doubles."""
        return self._kernel.horizon

    def point(self, t):
        """phi_t(z0), vectorized over t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise UnsupportedModelError("trajectory time must be >= 0")
        w = self.w0 + t
        out = self.map.chart.inverse(w)
        return out if t.ndim else complex(out)

    def koenigs(self, t):
        return self.w0 + np.asarray(t, dtype=float)

    def boundary_gap(self, t):
        """|phi_t(z0) - tau| without forming the disc point (log-scale safe)."""
        return np.exp(self._kernel.log_gap(t))

    def slope_angle(self, t):
        """arg(1 - conj(tau) phi_t(z0)) in a cancellation-free form."""
        return self._kernel.slope_angle(t)


def make_trajectory(f: ModelMap, z):
    """Trajectory through z; rejects unsupported (non-univalent/uncharted) maps."""
    if f.kernel is None:
        raise UnsupportedModelError(
            f"{f.name}: trajectories need a univalent chart with image starlike "
            "at infinity (quad is rejected by design)")
    z = complex(require_in_disk(z, "trajectory start"))
    return Trajectory(map=f, z0=z, w0=complex(f.chart.forward(z)))


@dataclass(frozen=True)
class CheckResult:
    max_error: float
    tolerance: float
    passed: bool
    details: dict = None

    def to_dict(self):
        out = {"max_error": self.max_error, "tolerance": self.tolerance,
               "passed": self.passed}
        if self.details:
            out.update(self.details)
        return out


def embed_check(traj: Trajectory, n_max=10 ** 4, tol=TOL_CLOSED_FORM):
    """phi_n(z) against f^n(z), compared in model coordinates and in the disc.

    Both sides are evaluated through the chart (that is what makes the
    identity exact); the disc comparison exercises the materialization path
    and is limited to indices where the orbit point is representable.  A
    short direct-composition cross-check lives in the test suite.
    """
    ns = np.unique(np.minimum(np.logspace(0, math.log10(max(n_max, 2)), 40).astype(np.int64),
                              n_max))
    orbit = iterate(traj.map, traj.z0, int(ns[-1]))
    model_gap = np.abs(traj.koenigs(ns.astype(float)) - orbit.koenigs(ns))
    zs_orbit, sat = orbit.disc_point(ns)
    good = ~np.asarray(sat)
    disc_gap = np.abs(traj.point(ns[good].astype(float)) - zs_orbit[good]) \
        if np.any(good) else np.zeros(1)
    err = float(max(model_gap.max(), disc_gap.max()))
    return CheckResult(err, tol, bool(err <= tol))


def invariance_check(traj: Trajectory, t_grid, tol=TOL_CLOSED_FORM):
    """max over the grid of |f(phi_t(z)) - phi_{t+1}(z)|."""
    ts = np.asarray(t_grid, dtype=float)
    lhs = eval_map(traj.map, traj.point(ts))
    rhs = traj.point(ts + 1.0)
    err = float(np.max(np.abs(lhs - rhs)))
    return CheckResult(err, tol, bool(err <= tol))


def semigroup_law_check(traj: Trajectory, st_pairs, tol=TOL_CLOSED_FORM):
    """max over sampled (s, t) of |phi_s(phi_t(z)) - phi_{s+t}(z)|."""
    errs = []
    for s, t in st_pairs:
        inner = traj.point(float(t))
        chained = make_trajectory(traj.map, inner).point(float(s))
        direct = traj.point(float(s) + float(t))
        errs.append(abs(chained - direct))
    err = float(max(errs))
    return CheckResult(err, tol, bool(err <= tol))


def _omega_boundary_distance(traj: Trajectory):
    return float(traj.map.chart.omega.boundary_distance(traj.w0))


def lipschitz_hyperbolic_check(traj: Trajectory, t_pairs, tol=TOL_CLOSED_FORM):
    """d(phi_t1 z, phi_t2 z) <= |t1 - t2| / delta_Omega(h(z)) + tol on all pairs.

    The constant is the explicit one: the boundary distance of the chart image
    is nondecreasing along horizontal rays, so the segment estimate gives
    1/delta at the left endpoint.
    """
    c0 = 1.0 / _omega_boundary_distance(traj)
    worst = -math.inf
    ratios = []
    for t1, t2 in t_pairs:
        d = float(dist_disk(traj.point(float(t1)), traj.point(float(t2))))
        bound = c0 * abs(t2 - t1)
        worst = max(worst, d - bound)
        if t1 != t2:
            ratios.append(d / abs(t2 - t1))
    fitted = float(max(ratios)) if ratios else 0.0
    return CheckResult(float(worst), tol, bool(worst <= tol),
                       details={"bound_constant": c0, "fitted_constant": fitted})


def lipschitz_euclidean_check(traj: Trajectory, t_pairs, tol=TOL_CLOSED_FORM):
    """|phi_t1 z - phi_t2 z| <= 16 |t1 - t2| / delta_Omega(h(z)) + tol.

    16 = 8 * diam(disc) * c0 is the constant from the hyperbolic estimate
    combined with the boundary-distance lower bound for the disc.
    """
    c = 16.0 / _omega_boundary_distance(traj)
    worst = -math.inf
    for t1, t2 in t_pairs:
        gap = abs(traj.point(float(t1)) - traj.point(float(t2)))
        worst = max(worst, gap - c * abs(t2 - t1))
    return CheckResult(float(worst), tol, bool(worst <= tol),
                       details={"bound_constant": c})


def landing_rate(traj: Trajectory, t_grid):
    """sup over the grid of |phi_t(z) - tau| * sqrt(t); finite for all models."""
    ts = np.asarray(t_grid, dtype=float)
    ts = ts[ts > 0]
    vals = traj.boundary_gap(ts) * np.sqrt(ts)
    return float(np.max(vals))
