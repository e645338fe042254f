"""Harmonic measure: the closed-form Poisson integral and walk-on-spheres Monte Carlo.

Boundary arcs of the disc use the closed form of the Poisson integral (an
angle subtended at z).  Slit domains (the disc minus a polyline) are handled by
walk-on-spheres: jump to a uniform point of the maximal inscribed circle,
absorb within eps of the boundary, classify by the nearest boundary part.
Estimates are unbiased up to O(eps) boundary-classification error.

Randomness comes from the counter-based Philox generator; walks are split
into fixed-size chunks with independently derived substreams, so a chunk's
walks depend only on the seed and the chunk index.  Chunks run on up to two
threads, and no result depends on which thread runs which chunk.
"""

from __future__ import annotations

import cmath
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError
from .hypgeo import require_in_disk
from .maps import ModelMap, iterate
from .semiflow import make_trajectory

WOS_EPS = 1e-4
WOS_CAP = 10 ** 5
WOS_CHUNK = 1 << 14
DISCARD_FLAG_FRACTION = 0.01
# Polyline segments per distance block: a 16,384-walk chunk's temporaries
# then stay near 2 MB each, even with two chunks in flight.
SEGMENT_BLOCK = 8


@dataclass(frozen=True)
class HmEstimate:
    value: float
    method: str               # poisson-quadrature | arcsin-formula | wos-monte-carlo
    se: float = 0.0           # Monte Carlo standard error sqrt(p(1-p)/N); 0 otherwise
    n_walks: int = 0
    discards: int = 0
    mean_steps: float = 0.0
    flagged: bool = False     # more than 1% of walks discarded

    def to_dict(self):
        return {"value": self.value, "method": self.method, "se": self.se,
                "n_walks": self.n_walks, "discards": self.discards,
                "mean_steps": self.mean_steps, "flagged": self.flagged}


def arc_measure_from_diameter(diam):
    """Arc formula at the origin: measure = arcsin(diam/2) / pi."""
    if not 0.0 <= diam <= 2.0:
        raise InvalidPointError("arc diameter must lie in [0, 2]")
    return HmEstimate(value=math.asin(diam / 2.0) / math.pi, method="arcsin-formula")


def arc_diameter(theta1, theta2):
    """Euclidean diameter of the arc between the two angles (2 once it spans pi)."""
    spread = theta2 - theta1
    return 2.0 if spread >= math.pi else 2.0 * math.sin(spread / 2.0)


def hm_disk_arc(z, theta1, theta2):
    """Harmonic measure of the circle arc theta1..theta2 seen from z.

    The Poisson integral has the closed form

        omega = arg_[0, 2pi)((e^{i theta2} - z)/(e^{i theta1} - z))/pi - (theta2 - theta1)/(2 pi).

    That arg lies in (spread/2, pi + spread/2), so it is taken relative to the
    middle of that range, (spread + pi)/2, where the principal branch has no
    cut; the empty arc and the full circle are exact.
    """
    z = complex(require_in_disk(z, "hm_disk_arc"))
    if not theta1 <= theta2 <= theta1 + 2.0 * math.pi:
        raise InvalidPointError("need theta1 <= theta2 <= theta1 + 2*pi")
    spread = theta2 - theta1
    if spread == 0.0 or spread == 2.0 * math.pi:
        return HmEstimate(value=spread / (2.0 * math.pi), method="poisson-quadrature")
    ratio = (cmath.exp(1j * theta2) - z) / (cmath.exp(1j * theta1) - z)
    value = 0.5 + cmath.phase(ratio * cmath.exp(-0.5j * (spread + math.pi))) / math.pi
    return HmEstimate(value=value, method="poisson-quadrature")


# ---------------------------------------------------------------------------
# Slit domains and walk-on-spheres
# ---------------------------------------------------------------------------

def _collapse_collinear(pts):
    if pts.size <= 2:
        return pts
    keep = [0]
    for k in range(1, pts.size - 1):
        a, b, c = pts[keep[-1]], pts[k], pts[k + 1]
        cross = (b - a).real * (c - a).imag - (b - a).imag * (c - a).real
        if cross != 0.0:
            keep.append(k)
    keep.append(pts.size - 1)
    return pts[keep]


def _orient(a, b, c):
    v = (b - a).real * (c - a).imag - (b - a).imag * (c - a).real
    return 0 if v == 0.0 else (1 if v > 0 else -1)


def _on_segment(a, b, p):
    return (min(a.real, b.real) <= p.real <= max(a.real, b.real)
            and min(a.imag, b.imag) <= p.imag <= max(a.imag, b.imag))


def _segments_cross(p1, p2, p3, p4):
    o1, o2 = _orient(p1, p2, p3), _orient(p1, p2, p4)
    o3, o4 = _orient(p3, p4, p1), _orient(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, p3):
        return True
    if o2 == 0 and _on_segment(p1, p2, p4):
        return True
    if o3 == 0 and _on_segment(p3, p4, p1):
        return True
    if o4 == 0 and _on_segment(p3, p4, p2):
        return True
    return False


@dataclass(frozen=True)
class SlitDiskDomain:
    """The unit disc minus a polyline slit (possibly empty).

    The polyline must lie strictly inside the disc and be simple
    (non-self-intersecting).  Collinear interior vertices are collapsed, so a
    densely sampled straight tail costs one segment.
    """

    vertices: tuple

    def __init__(self, vertices):
        pts = np.asarray([complex(v) for v in vertices], dtype=complex)
        if pts.size and np.any(np.abs(pts) >= 1.0):
            raise InvalidPointError("slit polyline must lie strictly inside the disc")
        pts = _collapse_collinear(pts)
        segs = [(pts[i], pts[i + 1]) for i in range(pts.size - 1)]
        for i in range(len(segs)):
            for j in range(i + 2, len(segs)):
                if _segments_cross(*segs[i], *segs[j]):
                    raise InvalidPointError("slit polyline is self-intersecting")
        object.__setattr__(self, "vertices", tuple(pts.tolist()))

    @property
    def empty(self):
        return len(self.vertices) == 0

    def distance(self, p):
        """Euclidean distance from points p to the polyline (inf when empty)."""
        p = np.asarray(p, dtype=complex)
        if self.empty:
            return np.full(p.shape, np.inf)
        return _polyline_distance(np.asarray(self.vertices, dtype=complex), p)

    def contains(self, p):
        p = np.asarray(p, dtype=complex)
        inside = np.abs(p) < 1.0
        if self.empty:
            return inside
        return inside & (self.distance(p) > 0.0)


def _polyline_distance(verts, p):
    """Distance from the complex array p to the polyline through verts (size >= 1).

    Segments are taken SEGMENT_BLOCK at a time, so the temporaries hold at
    most that many distances per point; the minimum is exact, so blocking
    does not change a bit.
    """
    if verts.size == 1:
        return np.abs(p - verts[0])
    a = verts[:-1]
    ab = verts[1:] - a
    denom = np.abs(ab) ** 2
    pc = p[..., None]
    dist = None
    for s in range(0, a.size, SEGMENT_BLOCK):
        sa, sab = a[s:s + SEGMENT_BLOCK], ab[s:s + SEGMENT_BLOCK]
        t = np.clip(((pc - sa) * np.conj(sab)).real / denom[s:s + SEGMENT_BLOCK], 0.0, 1.0)
        d = np.abs(pc - (sa + t * sab)).min(axis=-1)
        dist = d if dist is None else np.minimum(dist, d)
    return dist


def _walk_chunk(out, ci, child, z, verts, eps, cap, chunk):
    """Run the walks of chunk ci and write their slices of out = (kinds, angles, steps).

    The walks are global indices ci*chunk up to the end of the chunk, drawing
    from the Philox substream `child`.  Only the live walks are kept: their
    positions and global indices, in walk order, shrunk when walks are
    absorbed.  Each step draws rng.random(number of live walks) in walk order
    and moves p to p + rho * exp(2j pi u), so the draws a walk gets depend
    only on which walks of its chunk are still live, never on how they are
    stored.  With no slit (verts None) rho = 1 - |p| and walks absorb on the
    circle (kind 0).  Only private functions are called, so a helper thread
    running a chunk touches nothing a caller may have wrapped.
    """
    kinds, angles, steps = out
    rng = np.random.Generator(np.random.Philox(child))
    idx = np.arange(ci * chunk, min((ci + 1) * chunk, kinds.size))
    p = np.full(idx.size, z, dtype=complex)
    for it in range(cap):
        rho = 1.0 - np.abs(p)
        if verts is not None:
            d_slit = _polyline_distance(verts, p)
            on_slit = d_slit < rho
            rho = np.minimum(rho, d_slit)
        hit = rho < eps
        at = np.flatnonzero(hit)
        if at.size:
            gone = idx[at]
            kinds[gone] = 0 if verts is None else on_slit[at]
            angles[gone] = np.angle(p[at])
            steps[gone] = it
            keep = np.flatnonzero(~hit)
            idx, p, rho = idx[keep], p[keep], rho[keep]
            if idx.size == 0:
                break
        u = rng.random(idx.size)
        p = p + rho * np.exp(2j * math.pi * u)
    steps[idx] = cap  # cap reached: discarded, kind stays -1


def _usable_cpus():
    """CPUs this process may run on (os.cpu_count() where affinity is not exposed)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _wos_run(domain: SlitDiskDomain, z, n_walks, eps, cap, seed, chunk=WOS_CHUNK):
    """Run walks; returns (kind, absorption angle, steps) per walk, with kind
    0=circle, 1=slit, -1=discard.

    Walks run in chunks of `chunk`; chunk c draws from the Philox substream
    spawned c-th from `seed` and writes only its own slice of the outputs, so
    a chunk's walks depend only on the seed and the chunk index.  Chunks are
    taken in index order from one shared iterator by the calling thread and,
    when there is more than one chunk and more than one usable CPU, by one
    helper thread (numpy releases the interpreter lock inside its array
    operations).  Which thread runs a chunk cannot change its bits.  The
    helper is joined before returning, and an exception it raised is raised
    here.
    """
    z = complex(z)
    out = (np.full(n_walks, -1, dtype=np.int8), np.zeros(n_walks),
           np.zeros(n_walks, dtype=np.int64))
    verts = None if domain.empty else np.asarray(domain.vertices, dtype=complex)
    seeds = np.random.SeedSequence(seed).spawn(math.ceil(n_walks / chunk))
    todo = iter(range(len(seeds)))
    errors = []

    def run_chunks():
        try:
            for ci in todo:
                _walk_chunk(out, ci, seeds[ci], z, verts, eps, cap, chunk)
        except BaseException:
            for _ in todo:  # leave the other thread no chunk to start
                pass
            raise

    def helper_main():
        try:
            run_chunks()
        except BaseException as exc:
            errors.append(exc)

    helper = None
    if len(seeds) > 1 and _usable_cpus() > 1:
        helper = threading.Thread(target=helper_main, name="wos-chunks", daemon=True)
        helper.start()
    try:
        run_chunks()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return out


def hm_wos(domain: SlitDiskDomain, z, target="slit", arc=None, n_walks=10 ** 5,
           eps=WOS_EPS, cap=WOS_CAP, seed=0):
    """Walk-on-spheres estimate of the harmonic measure of a boundary part.

    target is 'slit' or 'circle'; with target='circle' an optional arc
    (theta1, theta2) restricts to walks absorbed at angles inside the arc.
    Walks exceeding the step cap are discarded and counted; the estimate is
    flagged when more than 1% are discarded.
    """
    z = complex(require_in_disk(z, "hm_wos"))
    if target not in ("slit", "circle"):
        raise InvalidPointError("target must be 'slit' or 'circle'")
    if target == "slit" and domain.empty:
        raise InvalidPointError("target='slit' needs a non-empty slit")
    if not np.all(domain.contains(z)):
        raise InvalidPointError("start point outside the slit domain")
    kinds, angles, steps = _wos_run(domain, z, int(n_walks), eps, cap, seed)
    done = kinds >= 0
    n_done = int(done.sum())
    discards = int(n_walks) - n_done
    if n_done == 0:
        raise InvalidPointError("all walks discarded; raise the cap")
    if target == "slit":
        success = kinds[done] == 1
    else:
        success = kinds[done] == 0
        if arc is not None:
            t1, t2 = arc
            ang = np.mod(angles[done] - t1, 2.0 * math.pi)
            success = success & (ang <= (t2 - t1))
    p_hat = float(np.mean(success))
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_done)
    return HmEstimate(value=p_hat, method="wos-monte-carlo", se=se,
                      n_walks=int(n_walks), discards=discards,
                      mean_steps=float(np.mean(steps[done])) if n_done else math.nan,
                      flagged=bool(discards > DISCARD_FLAG_FRACTION * n_walks))


# ---------------------------------------------------------------------------
# Trajectory-tail series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailHmResult:
    ns: np.ndarray
    omega: np.ndarray
    se: np.ndarray
    discards: np.ndarray
    arcsin_floor: np.ndarray      # arcsin(|f^n z - tau|/2)/pi per grid point
    floor_holds: bool             # omega >= floor - 3 se everywhere
    max_omega_sqrt_n: float

    def csv_columns(self):
        return (["n", "omega_hat", "se", "discards"],
                [self.ns, self.omega, self.se, self.discards])

    def to_dict(self):
        return {"schema": "disciter/tail-hm/v1", "floor_holds": self.floor_holds,
                "max_omega_sqrt_n": self.max_omega_sqrt_n}


def tail_slit(f: ModelMap, z, n, cut=1e-6, samples=96):
    """Polyline sampling of the flow tail {phi_t(z) : t >= n}, truncated where
    the boundary gap drops below `cut` (Hausdorff error <= cut)."""
    traj = make_trajectory(f, z)
    gap_n = float(traj.boundary_gap(float(n)))
    if gap_n <= cut:
        raise InvalidPointError("tail already inside the cut; lower n or cut")
    # For the translation charts the gap is ~ 2/sqrt(t); invert to find the cut time.
    t_far = float(n) + max(1.0, (2.0 / cut) ** 2)
    offsets = np.concatenate([[0.0], np.geomspace(1e-3, t_far - float(n), samples - 1)])
    pts = traj.point(float(n) + offsets)
    return SlitDiskDomain(np.atleast_1d(pts))


def tail_hm_series(f: ModelMap, z, n_grid, n_walks=10 ** 5, seed=0, cut=1e-6,
                   eps=WOS_EPS, cap=WOS_CAP):
    """Monte Carlo series omega(0, tail_n, disc \\ tail_n) over the grid.

    Asserts the two-sided sanity chain: the arcsin floor from the tail
    diameter below, boundedness of omega * sqrt(n) above.
    """
    ns = np.asarray(n_grid, dtype=np.int64)
    orbit = iterate(f, z, int(ns[-1]))
    omega = np.zeros(ns.shape)
    se = np.zeros(ns.shape)
    discards = np.zeros(ns.shape, dtype=np.int64)
    floor = np.zeros(ns.shape)
    for i, n in enumerate(ns):
        slit = tail_slit(f, z, int(n), cut=cut)
        est = hm_wos(slit, 0.0, target="slit", n_walks=n_walks, eps=eps, cap=cap,
                     seed=seed + i)
        omega[i], se[i], discards[i] = est.value, est.se, est.discards
        floor[i] = math.asin(min(float(orbit.dist_to_tau(int(n))), 2.0) / 2.0) / math.pi
    floor_holds = bool(np.all(omega >= floor - 3.0 * se))
    max_scaled = float(np.max(omega * np.sqrt(ns.astype(float))))
    return TailHmResult(ns, omega, se, discards, floor, floor_holds, max_scaled)
