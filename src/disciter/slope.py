"""Slope series and tangential/non-tangential classification of approaches.

The slope of a sequence approaching a boundary point tau is the cluster set of
arg(1 - conj(tau) z_n), a subset of [-pi/2, pi/2] once the sequence is near
tau.  A finite computation can only see tail extrema, so the cluster set is
approximated by the min/max over a trailing fraction of the samples, with a
stabilization check across two nested tails.  Oscillating examples with
non-degenerate cluster sets are outside the model zoo; when stabilization
fails this module reports "inconclusive" rather than resolving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .maps import OrbitRecord

# Width below which a cluster interval is declared a singleton, and the margin
# for the +/- pi/2 tangentiality decision.  The margin is sized so that the
# upper-half-plane translation automorphism classifies correctly from the
# default grids (its slope angle approaches pi/2 like arctan(c/n)).
SINGLETON_WIDTH = 1e-3
TANGENT_MARGIN = 1e-3
STABILIZATION_TOL = 1e-3


@dataclass(frozen=True)
class ClusterEstimate:
    theta_min: float
    theta_max: float
    stable: bool
    singleton: bool

    @property
    def midpoint(self):
        return 0.5 * (self.theta_min + self.theta_max)

    @property
    def width(self):
        return self.theta_max - self.theta_min

    def to_dict(self):
        return {"theta_min": self.theta_min, "theta_max": self.theta_max,
                "stable": self.stable, "singleton": self.singleton,
                "width": self.width}


def cluster_estimate(series, tail_fraction=0.125):
    """Tail min/max as a finite proxy for the cluster set.

    Stability is a Cauchy-style check: the extrema over the last
    `tail_fraction` of the samples must agree with those over the last half of
    that tail to within STABILIZATION_TOL.
    """
    thetas = np.asarray(series, dtype=float)
    thetas = thetas[np.isfinite(thetas)]
    if thetas.size == 0:
        raise InvalidPointError("cluster_estimate: empty tail")
    k = max(2, int(math.ceil(tail_fraction * thetas.size)))
    k = min(k, thetas.size)
    tail = thetas[-k:]
    sub = thetas[-max(2, k // 2):]
    tmin, tmax = float(tail.min()), float(tail.max())
    stable = (abs(tmin - float(sub.min())) <= STABILIZATION_TOL
              and abs(tmax - float(sub.max())) <= STABILIZATION_TOL)
    return ClusterEstimate(tmin, tmax, stable, bool(tmax - tmin < SINGLETON_WIDTH))


def tangentiality_verdict(cluster: ClusterEstimate):
    """Classify a cluster interval: non-tangential, tangential, or inconclusive."""
    if not cluster.stable:
        return "inconclusive"
    edge = math.pi / 2.0 - TANGENT_MARGIN
    if cluster.theta_min >= edge or cluster.theta_max <= -edge:
        return "tangential"
    if -edge < cluster.theta_min and cluster.theta_max < edge:
        return "non-tangential"
    return "inconclusive"


@dataclass(frozen=True)
class SlopeReport:
    ns: np.ndarray
    thetas: np.ndarray
    cluster: ClusterEstimate
    verdict: str

    def csv_columns(self):
        return ["n", "theta"], [self.ns, self.thetas]

    def to_dict(self):
        return {"schema": "disciter/slope-report/v1",
                "cluster": self.cluster.to_dict(), "verdict": self.verdict}


def slope_report(orbit: OrbitRecord, n_grid, tail_fraction=0.125):
    """Slope series, cluster estimate and verdict for one orbit."""
    ns = np.asarray(n_grid, dtype=np.int64)
    thetas = orbit.slope_angle(ns)
    cluster = cluster_estimate(thetas, tail_fraction)
    return SlopeReport(ns, thetas, cluster, tangentiality_verdict(cluster))
