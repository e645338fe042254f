"""Discrete and continuous quasi-geodesic certification.

A sequence (or sampled curve) passes when the summed hyperbolic step lengths
between parameters are controlled by the endpoint distance:

    sum_{k=n}^{m-1} d(z_k, z_{k+1})  <=  A * d(z_n, z_m) + B.

The search scans A in {1.0, 1.1, ..., 10.0} lexicographically (minimal A,
then minimal integer B in 0..1000).  "Refuted" always means refuted relative
to this finite box, which is recorded in the certificate: no finite
computation refutes all (A, B).  For sequences whose steps stay bounded below
while endpoint distances grow only logarithmically, the reported witness pair
carries the analytic growth mismatch in its ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .hypgeo import dist_disk, metric_disk
from .maps import OrbitRecord

# The search box: A in A_GRID, integer B in 0..B_MAX, and the slack a need
# may exceed them by.
A_GRID = np.round(np.arange(1.0, 10.0 + 1e-9, 0.1), 10)
B_MAX = 1000.0
SLACK = 1e-9


def _geometric_pairs(last):
    """Index pairs geometric in n and in m - n, plus (n, last), for n < last."""
    out = set()
    n = 0
    while n < last:
        gap = 1
        while n + gap <= last:
            out.add((n, n + gap))
            gap *= 2
        out.add((n, last))
        n = 1 if n == 0 else n * 2
    return sorted(out)


@dataclass(frozen=True)
class QgCertificate:
    verdict: str                 # certified | refuted | inconclusive
    a: float                     # found constants (certified only)
    b: float
    a_box: float                 # search box actually scanned
    b_box: float
    pairs: list                  # (n, m, sum_steps, dist, ratio) with ratio = (S - b_box)/d
    witness: tuple               # maximal-violation pair when refuted
    excluded_fraction: float
    notes: str = ""

    def pair_lookup(self, n, m):
        for row in self.pairs:
            if row[0] == n and row[1] == m:
                return row
        raise KeyError((n, m))

    def to_dict(self):
        return {
            "schema": "disciter/qg-certificate/v1",
            "verdict": self.verdict, "a": self.a, "b": self.b,
            "box": {"a_max": self.a_box, "b_max": self.b_box},
            "witness": list(self.witness) if self.witness else None,
            "excluded_fraction": self.excluded_fraction,
            "notes": self.notes,
            "pairs": [list(p) for p in self.pairs],
        }


def _search_box(sums, dists):
    """Lexicographically minimal (A, B) feasible on all pairs, or None.

    The need max(sums - A * dists) of every A comes from one array; each
    entry is the same correctly rounded product and difference, and a row
    max is exact, so each need equals the one a loop over A computes.
    """
    needs = np.max(sums - np.multiply.outer(A_GRID, dists), axis=1)
    for a, need in zip(A_GRID.tolist(), needs.tolist()):
        if need <= SLACK:
            return a, 0.0
        b = math.ceil(need - SLACK)
        if b <= B_MAX:
            return a, float(b)
    return None


def _certify(labels, sums, dists, excluded):
    """Certificate over the pairs labelled by `labels` (index or parameter pairs)."""
    # Triangle inequality must hold pairwise regardless of the verdict.
    worst = float(np.max(dists - sums))
    if worst > 1e-6:
        raise InvalidPointError(
            f"step sums violate the triangle inequality by {worst:g}")
    ratios = (sums - B_MAX) / np.where(dists > 0, dists, np.nan)
    rows = [(n, m, float(s), float(d), float(r))
            for (n, m), s, d, r in zip(labels, sums, dists, ratios)]
    found = _search_box(sums, dists)
    if found is not None:
        return QgCertificate("certified", found[0], found[1], float(A_GRID[-1]), B_MAX,
                             rows, None, excluded)
    viol = sums - float(A_GRID[-1]) * dists - B_MAX
    witness = rows[int(np.argmax(viol))]
    return QgCertificate("refuted", math.nan, math.nan, float(A_GRID[-1]), B_MAX,
                         rows, witness, excluded)


def discrete_qg_fit(orbit: OrbitRecord, m_max=None):
    """Certificate for the orbit's step sums against endpoint distances.

    The pairs (n, m) run up to m_max (default min(10^4, n_max - 1)),
    geometric in n and in m - n, plus (n, m_max).  Saturated black-box
    points are excluded; if more than half the pairs go, the verdict is
    inconclusive.
    """
    if m_max is None:
        m_max = min(10 ** 4, orbit.n_max - 1)
    if m_max + 1 > orbit.n_max:
        raise InvalidPointError(f"orbit too short for m_max = {m_max}")
    pairs = _geometric_pairs(m_max)
    prefix = orbit.steps_prefix(m_max)

    ok = orbit.available(np.arange(m_max + 1, dtype=np.int64))
    ok_idx = np.array([ok[n] and ok[m] for n, m in pairs])
    excluded = 1.0 - float(np.mean(ok_idx))
    if excluded > 0.5:
        return QgCertificate("inconclusive", math.nan, math.nan, float(A_GRID[-1]), B_MAX,
                             [], None, excluded, "more than half of the pairs saturated")
    kept = [p for p, ok in zip(pairs, ok_idx) if ok]
    ns = np.array([p[0] for p in kept], dtype=np.int64)
    ms = np.array([p[1] for p in kept], dtype=np.int64)
    sums = prefix[ms] - prefix[ns]
    dists = np.asarray(orbit.pair_dist(ns, ms), dtype=float)
    return _certify(kept, sums, dists, excluded)


def curve_qg_check(ts, points):
    """Certificate for a sampled curve in the disc: polyline length against
    distance.

    `ts` must be strictly increasing; `points` are the curve samples.  Probe
    parameter pairs are geometric in index and in index gap.
    """
    ts = np.asarray(ts, dtype=float)
    pts = np.asarray(points, dtype=complex)
    if ts.size != pts.size:
        raise InvalidPointError("ts/points length mismatch")
    if ts.size < 2:
        raise InvalidPointError("curve_qg_check needs at least two samples")
    if np.any(np.diff(ts) <= 0):
        raise InvalidPointError("curve parameters must be strictly increasing")

    lam = metric_disk(pts)
    seg = np.abs(np.diff(pts))
    chunk = 0.5 * (lam[:-1] + lam[1:]) * seg
    prefix = np.concatenate([[0.0], np.cumsum(chunk)])

    pairs = _geometric_pairs(ts.size - 1)
    ii = np.array([p[0] for p in pairs])
    jj = np.array([p[1] for p in pairs])
    sums = prefix[jj] - prefix[ii]
    dists = np.asarray(dist_disk(pts[ii], pts[jj]), dtype=float)
    # Quadrature may undershoot the true arc length a hair below chord
    # distance on short spans; clamp the triangle check at quadrature scale.
    sums = np.maximum(sums, dists)
    labels = [(float(ts[i]), float(ts[j])) for i, j in pairs]
    return _certify(labels, sums, dists, 0.0)
