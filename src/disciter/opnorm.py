"""Composition-operator norm bounds on Hardy and weighted Bergman spaces.

Only the bound functions are computed, never actual function-space norms: the
two-sided growth estimates

    (1/(1 - m^2))^(1/p)        <= ||C_f||_Hp    <= ((1+m)/(1-m))^(1/p)
    (1/(1 - m^2))^((2+a)/p)    <= ||C_f||_Apa   <= ((1+m)/(1-m))^((2+a)/p)

with m = |f(0)| turn orbit asymptotics of |f^n(0)| into norm asymptotics of
the iterated operator.  Series are evaluated in log space from chart-exact
orbit data, so hyperbolic maps can be followed far past the point where
1 - |f^n(0)| underflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .maps import HYPERBOLIC, ModelMap, iterate
from .util import FitResult, geometric_grid, linear_fit, tail_fit_mask

# How close both per-n log-bounds must come to -log f'(tau)/p (hyperbolic squeeze).
SQUEEZE_TOL = 1e-3


def _require_p(p):
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidPointError(f"need a finite p >= 1, got {p!r}")


def _require_alpha(alpha):
    if not (math.isfinite(alpha) and alpha > -1.0):
        raise InvalidPointError(f"need a finite alpha > -1, got {alpha!r}")


def hardy_bounds(mod_f0, p):
    """Two-sided Hardy-norm bounds from m = |f(0)|."""
    if not 0.0 <= mod_f0 < 1.0:
        raise InvalidPointError("need |f(0)| in [0, 1)")
    _require_p(p)
    low = (1.0 / ((1.0 - mod_f0) * (1.0 + mod_f0))) ** (1.0 / p)
    high = ((1.0 + mod_f0) / (1.0 - mod_f0)) ** (1.0 / p)
    return low, high


def bergman_bounds(mod_f0, p, alpha):
    """Weighted-Bergman bounds: the Hardy bounds raised to exponent (2+alpha)."""
    _require_alpha(alpha)
    low, high = hardy_bounds(mod_f0, p)
    return low ** (2.0 + alpha), high ** (2.0 + alpha)


@dataclass(frozen=True)
class NormBoundSeries:
    ns: np.ndarray
    mod_f0: np.ndarray            # |f^n(0)|, NaN where saturated in doubles
    log_hardy_low: np.ndarray
    log_hardy_high: np.ndarray
    log_bergman_low: np.ndarray
    log_bergman_high: np.ndarray
    p: float
    alpha: float

    def csv_columns(self):
        cols = (["n", "mod_f0", "hardy_lo", "hardy_hi", "bergman_lo", "bergman_hi"],
                [self.ns, self.mod_f0,
                 np.exp(self.log_hardy_low), np.exp(self.log_hardy_high),
                 np.exp(self.log_bergman_low), np.exp(self.log_bergman_high)])
        return cols


def norm_bound_series(f: ModelMap, p, alpha, n_grid=None):
    """Bound series along the orbit of 0, computed in log space; p must be
    a finite p >= 1 and alpha a finite alpha > -1, as for the plain bounds."""
    _require_p(p)
    _require_alpha(alpha)
    if n_grid is None:
        n_grid = geometric_grid(min(10 ** 4, f.n_cap - 1))
    ns = np.asarray(n_grid, dtype=np.int64)
    orbit = iterate(f, 0.0, int(ns[-1]))
    log_q = orbit.log_one_minus_mod_sq(ns)          # log(1 - m^2)
    log_omm = orbit.log_one_minus_mod(ns)           # log(1 - m)
    m = -np.expm1(log_omm)
    log_low = -log_q / p
    log_high = (np.log1p(m) - log_omm) / p
    return NormBoundSeries(ns=ns, mod_f0=m,
                           log_hardy_low=log_low, log_hardy_high=log_high,
                           log_bergman_low=(2.0 + alpha) * log_low,
                           log_bergman_high=(2.0 + alpha) * log_high,
                           p=p, alpha=alpha)


@dataclass(frozen=True)
class OpnormReport:
    map_name: str
    p: float
    alpha: float
    series: NormBoundSeries
    # Hyperbolic squeeze: pointwise log-bound/n at the grid end vs -log f'(tau)/p.
    per_n_low: float
    per_n_high: float
    per_n_target: float
    squeeze_ok: bool
    # Parabolic floors: fitted slope of log-lower vs log n, plus the tail-min
    # ratio used as a liminf proxy, against 1/(2p) resp (2+alpha)/(2p).
    hardy_exponent_fit: FitResult
    bergman_exponent_fit: FitResult
    hardy_tail_min_ratio: float
    bergman_tail_min_ratio: float
    hardy_floor: float
    bergman_floor: float
    floors_ok: bool

    def to_dict(self):
        return {
            "schema": "disciter/opnorm-report/v1",
            "map": self.map_name, "p": self.p, "alpha": self.alpha,
            "per_n": {"low": self.per_n_low, "high": self.per_n_high,
                      "target": self.per_n_target, "squeeze_ok": self.squeeze_ok},
            "hardy_exponent_fit": self.hardy_exponent_fit.to_dict(),
            "bergman_exponent_fit": self.bergman_exponent_fit.to_dict(),
            "tail_min_ratio": {"hardy": self.hardy_tail_min_ratio,
                               "bergman": self.bergman_tail_min_ratio},
            "floors": {"hardy": self.hardy_floor, "bergman": self.bergman_floor,
                       "ok": self.floors_ok},
        }


def asymptotic_verdicts(f: ModelMap, p, alpha, n_max=10 ** 4):
    """Norm-growth verdicts for one map.

    Hyperbolic: both log-bounds divided by n converge to -log f'(tau)/p and
    are checked pointwise at the grid end (squeeze).  Parabolic charted maps:
    the fitted exponent of the lower bound in log n is reported, with the
    tail-min ratio as a liminf proxy, against the 1/(2p) and (2+alpha)/(2p)
    floors.  Saturation never occurs in the log-space series for charted maps;
    black-box points that saturate are excluded from fits.
    """
    n_grid = geometric_grid(min(int(n_max), f.n_cap - 1))
    series = norm_bound_series(f, p, alpha, n_grid)
    ns = series.ns.astype(float)
    ok = np.isfinite(series.log_hardy_low) & np.isfinite(series.log_hardy_high)

    fpt = f.f_prime_tau
    target = -math.log(fpt) / p if fpt else math.inf
    last = int(np.nonzero(ok)[0][-1])
    per_n_low = float(series.log_hardy_low[last] / ns[last])
    per_n_high = float(series.log_hardy_high[last] / ns[last])
    is_hyperbolic = f.model_type == HYPERBOLIC
    squeeze_ok = bool(is_hyperbolic
                      and abs(per_n_low - target) <= SQUEEZE_TOL
                      and abs(per_n_high - target) <= SQUEEZE_TOL)

    mask = tail_fit_mask(series.ns, ok & (series.ns >= 1))
    hfit = linear_fit(np.log(ns[mask]), series.log_hardy_low[mask])
    bfit = linear_fit(np.log(ns[mask]), series.log_bergman_low[mask])
    # log n vanishes at n = 1, so the ratios run over n >= 2 only.
    tail = mask & (series.ns >= 2)
    h_ratio = float(np.min(series.log_hardy_low[tail] / np.log(ns[tail])))
    b_ratio = float(np.min(series.log_bergman_low[tail] / np.log(ns[tail])))
    h_floor = 1.0 / (2.0 * p)
    b_floor = (2.0 + alpha) / (2.0 * p)
    # The floor verdict uses the fitted exponent: the bound's additive
    # constant drags the pointwise ratio below the limit at any finite n,
    # while a linear fit in log n isolates the exponent up to the O(1/sqrt(n))
    # curvature of the series, hence the 0.01 allowance.
    floors_ok = bool(hfit.slope >= h_floor - 1e-2 and bfit.slope >= b_floor - 1e-2) \
        if not is_hyperbolic else True

    return OpnormReport(f.name, p, alpha, series, per_n_low, per_n_high, target,
                        squeeze_ok, hfit, bfit, h_ratio, b_ratio, h_floor,
                        b_floor, floors_ok)
