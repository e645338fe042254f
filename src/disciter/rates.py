"""Divergence-rate and Euclidean-rate series with asymptotic fits and verdicts.

The central quantities along an orbit are d(z, f^n(z)) (how fast the orbit
runs away hyperbolically), 1 - |f^n(z)| and |f^n(z) - tau| (how fast it
approaches the boundary in Euclidean terms), and the step sequence
d(f^n(z), f^{n+1}(z)).  Fits use least squares over the last decade of the
grid by default and are always reported with their residual norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
import numpy as np

from .errors import InvalidPointError
from .hypgeo import dist_disk, euclid_rate_bracket
from .maps import ModelMap, OrbitRecord, iterate
from .util import FitResult, geometric_grid, last_decade_mask, linear_fit, tail_fit_mask


def _check_grid(n_grid):
    ns = np.asarray(n_grid, dtype=np.int64)
    if ns.size == 0:
        raise InvalidPointError("empty n grid")
    if np.any(np.diff(ns) <= 0):
        raise InvalidPointError("n grid must be strictly increasing")
    if ns[0] < 0:
        raise InvalidPointError("n grid must be nonnegative")
    return ns


@dataclass(frozen=True)
class DivergenceResult:
    ns: np.ndarray
    d: np.ndarray
    available: np.ndarray
    epsilon: float
    fitted_c: float          # min over grid of d - log(n)/(4+epsilon)
    floor_holds: bool        # every available point satisfies the fitted floor
    fit_d_vs_logn: FitResult

    def to_dict(self):
        return {"epsilon": self.epsilon, "fitted_c": self.fitted_c,
                "floor_holds": self.floor_holds,
                "fit_d_vs_logn": self.fit_d_vs_logn.to_dict()}


def divergence_series(orbit: OrbitRecord, n_grid, epsilon=0.5):
    """Series d(z, f^n z) over the grid, with the log-floor constant fitted.

    Charted orbits evaluate distances in chart coordinates (exact); black-box
    points that saturate are marked unavailable rather than approximated.
    """
    ns = _check_grid(n_grid)
    available = orbit.available(ns)
    d = np.full(ns.shape, np.nan)
    d[available] = orbit.dist_from_start(ns[available])

    pos = available & (ns >= 1)
    gaps = d[pos] - np.log(ns[pos]) / (4.0 + epsilon)
    fitted_c = float(gaps.min()) if gaps.size else math.nan
    floor_holds = bool(np.isfinite(fitted_c)) and bool(
        np.all(d[pos] >= np.log(ns[pos]) / (4.0 + epsilon) + fitted_c - 1e-12))
    mask = tail_fit_mask(ns, pos)
    fit = linear_fit(np.log(ns[mask]), d[mask])
    return DivergenceResult(ns, d, available, epsilon, fitted_c, floor_holds, fit)


@dataclass(frozen=True)
class EuclideanResult:
    ns: np.ndarray
    one_minus_mod: np.ndarray
    dist_to_tau: np.ndarray
    available: np.ndarray
    exponent_fit: FitResult          # slope of log|f^n z - tau| against log n
    exponent_bound: float            # -1/4 generally, -1/2 when non-tangential
    exponent_ok: bool
    non_tangential: bool

    def to_dict(self):
        return {"exponent_fit": self.exponent_fit.to_dict(),
                "exponent_bound": self.exponent_bound,
                "exponent_ok": self.exponent_ok,
                "non_tangential": self.non_tangential}


def euclidean_series(orbit: OrbitRecord, n_grid, non_tangential=False, fit_tol=0.02):
    """Euclidean gap series with the decay-exponent fit and verdict.

    The fitted exponent of |f^n z - tau| is checked against -1/4 in general
    and against -1/2 when the caller flags non-tangential convergence.
    """
    ns = _check_grid(n_grid)
    available = orbit.available(ns)
    omm = np.full(ns.shape, np.nan)
    gap = np.full(ns.shape, np.nan)
    omm[available] = orbit.one_minus_mod(ns[available])
    gap[available] = orbit.dist_to_tau(ns[available])

    mask = tail_fit_mask(ns, available & (ns >= 1))
    fit = linear_fit(np.log(ns[mask]), orbit.log_dist_to_tau(ns[mask]))
    bound = -0.5 if non_tangential else -0.25
    ok = bool(fit.slope <= bound + fit_tol)
    return EuclideanResult(ns, omm, gap, available, fit, bound, ok, non_tangential)


@dataclass(frozen=True)
class ArosioBracciResult:
    estimate: float       # tail average of d(n)/n
    target: float         # -log f'(tau) / 2
    verdict: bool
    tolerance: float

    def to_dict(self):
        return {"estimate": self.estimate, "target": self.target,
                "verdict": self.verdict, "tolerance": self.tolerance}


def arosio_bracci_limit(orbit: OrbitRecord, n_max=10 ** 4, rel_tol=1e-3):
    """Tail average of d(z, f^n z)/n against the limit -log f'(tau)/2.

    For parabolic maps the target is 0 and the relative tolerance degenerates;
    the verdict then uses rel_tol as an absolute tolerance.
    """
    ns = geometric_grid(n_max)
    mask = last_decade_mask(ns)
    ratios = orbit.dist_from_start(ns[mask]) / ns[mask]
    est = float(np.mean(ratios))
    fpt = orbit.map.f_prime_tau
    if fpt is None:
        raise InvalidPointError("arosio_bracci_limit needs f'(tau)")
    target = -math.log(fpt) / 2.0
    tol = max(rel_tol * abs(target), rel_tol)
    return ArosioBracciResult(est, target, bool(abs(est - target) <= tol), tol)


@dataclass(frozen=True)
class LowerBoundResult:
    epsilon: float
    c0: float                  # min over grid of |f^n z - tau| / (eps f'(tau))^n
    tail_bounded_away: bool    # tail of the ratio stays >= c0 (checked in logs)
    verdict: bool

    def to_dict(self):
        return {"epsilon": self.epsilon, "c0": self.c0,
                "tail_bounded_away": self.tail_bounded_away, "verdict": self.verdict}


def lower_bound_check(orbit: OrbitRecord, epsilon, n_max=10 ** 4):
    """Geometric lower envelope |f^n z - tau| >= c0 (eps f'(tau))^n, c0 fitted.

    Ratios are handled in logs so the check stays meaningful where the
    geometric envelope underflows.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidPointError("epsilon must lie in (0, 1)")
    fpt = orbit.map.f_prime_tau
    if fpt is None:
        raise InvalidPointError("lower_bound_check needs f'(tau)")
    ns = geometric_grid(n_max)
    log_ratio = orbit.log_dist_to_tau(ns) - ns * math.log(epsilon * fpt)
    c0_log = float(np.min(log_ratio))
    tail = log_ratio[last_decade_mask(ns)]
    tail_ok = bool(np.all(tail >= c0_log - 1e-9))
    c0 = math.exp(c0_log) if c0_log < 700 else math.inf
    return LowerBoundResult(epsilon, c0, tail_ok, bool(np.isfinite(c0_log) and c0 > 0))


@dataclass(frozen=True)
class StepResult:
    ns: np.ndarray
    steps: np.ndarray
    limit_estimate: float
    tag: str                  # positive-step | zero-step
    non_increasing: bool

    def to_dict(self):
        return {"limit_estimate": self.limit_estimate, "tag": self.tag,
                "non_increasing": self.non_increasing}


def step_series(orbit: OrbitRecord, n_grid, zero_threshold=1e-4):
    """Step sequence d(f^n z, f^{n+1} z) on the grid with the trichotomy tag;
    the orbit must reach one index past the grid."""
    ns = _check_grid(n_grid)
    steps = orbit.step(ns)
    limit = float(steps[-1])
    tag = "zero-step" if limit < zero_threshold else "positive-step"
    non_increasing = bool(np.all(np.diff(steps) <= 1e-12))
    return StepResult(ns, steps, limit, tag, non_increasing)


def euclid_consistency(orbit: OrbitRecord, ns):
    """Check 1 - |f^n z| against the distance bracket shifted by d(0, z).

    Triangle inequality: d(0, f^n z) lies within d(z, f^n z) +/- d(0, z), so
    1 - |f^n z| must lie in [lo(d + d0), hi(max(d - d0, 0))].
    """
    ns = _check_grid(ns)
    d0 = float(dist_disk(0.0, orbit.z0))
    d = orbit.dist_from_start(ns)
    lo, _ = euclid_rate_bracket(d + d0)
    _, hi = euclid_rate_bracket(np.maximum(d - d0, 0.0))
    omm = orbit.one_minus_mod(ns)
    return bool(np.all((omm >= lo * (1 - 1e-12)) & (omm <= hi * (1 + 1e-12))))


@dataclass(frozen=True)
class RateReport:
    map_name: str
    z0: complex
    ns: np.ndarray
    divergence: DivergenceResult
    euclidean: EuclideanResult
    steps: StepResult
    arosio_bracci: ArosioBracciResult
    lower_bound: LowerBoundResult
    extras: dict = field(default_factory=dict)

    def csv_columns(self):
        """Columns n, d, one_minus_mod, dist_to_tau, step."""
        return (["n", "d", "one_minus_mod", "dist_to_tau", "step"],
                [self.ns, self.divergence.d, self.euclidean.one_minus_mod,
                 self.euclidean.dist_to_tau, self.steps.steps])

    def to_dict(self):
        return {
            "schema": "disciter/rate-report/v1",
            "map": self.map_name,
            "z0": {"re": self.z0.real, "im": self.z0.imag},
            "divergence": self.divergence.to_dict(),
            "euclidean": self.euclidean.to_dict(),
            "steps": self.steps.to_dict(),
            "arosio_bracci": self.arosio_bracci.to_dict(),
            "lower_bound": self.lower_bound.to_dict(),
            "extras": dict(self.extras),
        }


def rate_report(f: ModelMap, z, n_grid=None, epsilon=0.5, lower_eps=0.9,
                non_tangential=None):
    """Full rate analysis of one orbit; the CLI `rate` subcommand wraps this."""
    if n_grid is None:
        n_grid = geometric_grid(min(10 ** 6, f.n_cap - 1))
    ns = _check_grid(n_grid)
    orbit = iterate(f, z, int(ns[-1]) + 1)
    if non_tangential is None:
        non_tangential = f.non_tangential
    div = divergence_series(orbit, ns, epsilon=epsilon)
    euc = euclidean_series(orbit, ns, non_tangential=non_tangential)
    stp = step_series(orbit, ns)
    ab = arosio_bracci_limit(orbit, n_max=int(ns[-1]))
    lb = lower_bound_check(orbit, lower_eps, n_max=int(ns[-1]))
    tail = tail_fit_mask(ns, div.available & (ns >= 1))
    extras = {"euclid_bracket_consistent": euclid_consistency(orbit, ns),
              "fit_d_vs_n": linear_fit(ns[tail].astype(float), div.d[tail]).to_dict()}
    return RateReport(f.name, complex(z), ns, div, euc, stp, ab, lb, extras)
