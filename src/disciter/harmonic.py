"""Harmonic measure: the closed-form Poisson integral and walk-on-spheres Monte Carlo.

Boundary arcs of the disc use the closed form of the Poisson integral (an
angle subtended at z).  Slit domains (the disc minus a polyline) are handled by
walk-on-spheres: jump to a uniform point of the maximal inscribed circle,
absorb within eps of the boundary, classify by the nearest boundary part.
Estimates are unbiased up to O(eps) boundary-classification error.

Randomness comes from the counter-based Philox generator; walks are split
into fixed-size chunks with independently derived substreams, so a chunk's
walks depend only on the seed and the chunk index.  Each chunk is reduced to
three exact integer counts (walks done, successes, step sum).  A WosBatch
starts the walks of a batch of estimates when it is made: on more than one
CPU, one forked worker takes chunks from the back of the batch while the
caller is free for other work, and collect() takes them from the front until
the two meet.  hm_wos_many is a batch started and collected at once.  No
result depends on which process runs which chunk.
"""

from __future__ import annotations

import cmath
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, replace

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
# then stay near 2 MB each.
SEGMENT_BLOCK = 8
# Vertices of the polyline that tail_slit puts on a flow tail.
TAIL_SLIT_SAMPLES = 96


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


def _walk_chunk(child, size, req, verts):
    """Run `size` walks of req from req.z drawing from the Philox substream
    `child`; returns their tally (walks done, successes, step sum over the
    done walks).

    Only the live walks are kept: their positions in walk order, shrunk when
    walks are absorbed, and each absorbed walk is counted as it goes.  Each
    step draws rng.random(number of live walks) in walk order and moves p to
    p + rho * exp(2j pi u), so the draws a walk gets depend only on which
    walks of its chunk are still live.  With no slit (verts None) rho = 1 - |p|
    and walks absorb on the circle; with one, a walk absorbed nearer the slit
    than the circle lands on the slit.  Walks still live after req.cap steps
    are discarded.  The counts are exact integers, so their sums over chunks
    reproduce means over all walks bit for bit (below 2**53).  Only private
    functions are called, so a chunk run by the worker process calls nothing
    a caller may have wrapped.
    """
    rng = np.random.Generator(np.random.Philox(child))
    p = np.full(size, req.z, dtype=complex)
    done = successes = step_sum = 0
    for it in range(req.cap):
        rho = 1.0 - np.abs(p)
        if verts is not None:
            d_slit = _polyline_distance(verts, p)
            on_slit = d_slit < rho
            rho = np.minimum(rho, d_slit)
        hit = rho < req.eps
        at = np.flatnonzero(hit)
        if at.size:
            done += at.size
            step_sum += it * at.size
            if req.target == "slit":
                successes += np.count_nonzero(on_slit[at])
            else:
                circle = p[at] if verts is None else p[at[~on_slit[at]]]
                if req.arc is not None:
                    t1, t2 = req.arc
                    circle = circle[np.mod(np.angle(circle) - t1, 2.0 * math.pi) <= t2 - t1]
                successes += circle.size
            keep = np.flatnonzero(~hit)
            p, rho = p[keep], rho[keep]
            if p.size == 0:
                break
        u = rng.random(p.size)
        p = p + rho * np.exp(2j * math.pi * u)
    return done, successes, step_sum


def _usable_cpus():
    """CPUs this process may run on (os.cpu_count() where affinity is not exposed)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _may_fork(n_chunks):
    """Share n_chunks with a forked worker?  Not for one chunk, on one CPU,
    without os.fork, or while another thread is alive (it could hold a lock
    the worker would then wait on forever)."""
    return (n_chunks > 1 and hasattr(os, "fork") and _usable_cpus() > 1
            and threading.active_count() == 1)


@dataclass(frozen=True)
class WosRequest:
    """The arguments of one hm_wos estimate, for WosBatch and hm_wos_many."""

    domain: SlitDiskDomain
    z: complex
    target: str = "slit"
    arc: tuple | None = None
    n_walks: int = 10 ** 5
    eps: float = WOS_EPS
    cap: int = WOS_CAP
    seed: int = 0


def _checked(req):
    """req with z a complex and n_walks an int, once its inputs are valid."""
    z = complex(require_in_disk(req.z, "hm_wos"))
    if req.target not in ("slit", "circle"):
        raise InvalidPointError("target must be 'slit' or 'circle'")
    if req.target == "slit" and req.domain.empty:
        raise InvalidPointError("target='slit' needs a non-empty slit")
    if not np.all(req.domain.contains(z)):
        raise InvalidPointError("start point outside the slit domain")
    if int(req.n_walks) < 1:
        raise InvalidPointError("n_walks must be at least 1")
    return replace(req, z=z, n_walks=int(req.n_walks))


def _estimate(req, tally):
    n_done, successes, step_sum = (int(v) for v in tally.sum(axis=0))
    discards = req.n_walks - n_done
    if n_done == 0:
        raise InvalidPointError("all walks discarded; raise the cap")
    p_hat = successes / n_done
    se = math.sqrt(p_hat * (1.0 - p_hat) / n_done)
    return HmEstimate(value=p_hat, method="wos-monte-carlo", se=se,
                      n_walks=req.n_walks, discards=discards,
                      mean_steps=step_sum / n_done,
                      flagged=bool(discards > DISCARD_FLAG_FRACTION * req.n_walks))


class WosBatch:
    """The walks of a list of WosRequest, begun when the batch is made.

    Every request is checked first, before any walk runs.  The chunks of all
    requests are listed in request order; chunk c of a request draws from the
    Philox substream spawned c-th from its seed, so a chunk's walks depend
    only on the seed and the chunk index, and the process that runs a chunk
    reduces it to its tally.  When _may_fork allows, one os.fork()ed worker
    starts at once and takes chunks from the back of the list while the
    caller goes on with other work; collect() then takes chunks from the
    front in the calling process until the two meet.  Otherwise collect()
    runs every chunk here.  Which process runs a chunk cannot change its
    tally, so each estimate has the bits hm_wos gives it alone.

    Use it as a context manager, or call collect(): either way the worker is
    reaped, and leaving the block before collect() kills it first.
    """

    def __init__(self, requests):
        self.requests = [_checked(req) for req in requests]
        self._jobs, counts = [], []
        chunk = WOS_CHUNK  # read here, so a test may set a smaller one
        for req in self.requests:
            verts = None if req.domain.empty else np.asarray(req.domain.vertices, dtype=complex)
            seeds = np.random.SeedSequence(req.seed).spawn(math.ceil(req.n_walks / chunk))
            self._jobs += [(s, min(chunk, req.n_walks - ci * chunk), req, verts)
                           for ci, s in enumerate(seeds)]
            counts.append(len(seeds))
        self._splits = np.cumsum(counts)[:-1]
        self._pid = None
        if _may_fork(len(self._jobs)):
            self._start_worker()

    def _start_worker(self):
        """Fork the worker.  It shares a board with this process: the cursors
        (chunks the caller has claimed, first chunk the worker has claimed),
        then per chunk a done flag and the tally, 32 bytes a chunk.  The
        worker always leaves through os._exit."""
        n = len(self._jobs)
        self._board = np.frombuffer(mmap.mmap(-1, 8 * (2 + 4 * n)), dtype=np.int64)
        self._board[:2] = 0, n
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _work_from_back(self._jobs, self._board)
                code = 0
            finally:
                os._exit(code)
        self._pid = pid

    def _tallies(self):
        """Per request an int64 array with one row (walks done, successes,
        step sum) per chunk.

        The caller claims chunks from the front: it announces chunk k in its
        cursor, then runs it unless the worker has claimed k.  The worker does
        the same from the back, so at most the chunk where they meet runs
        twice, with the same tally.  Once the caller stops it reaps the
        worker and reruns every chunk the worker left without a done flag; a
        worker that failed, or was killed, thus costs time but no walks, and
        a real error is raised here with its own traceback.  If a chunk of
        the caller raises, the worker is killed and reaped before it
        propagates.
        """
        jobs = self._jobs
        tallies = np.zeros((len(jobs), 3), dtype=np.int64)
        left = range(len(jobs))
        if self._pid is not None:
            cursors, rows = self._board[:2], self._board[2:].reshape(-1, 4)
            mine = 0
            try:
                while True:
                    cursors[0] = mine + 1
                    if mine >= cursors[1]:
                        break
                    tallies[mine] = _walk_chunk(*jobs[mine])
                    mine += 1
            except BaseException:
                os.kill(self._pid, signal.SIGKILL)
                raise
            finally:
                self._reap()
            tallies[mine:] = rows[mine:, 1:]
            left = mine + np.flatnonzero(rows[mine:, 0] == 0)
        for k in left:
            tallies[k] = _walk_chunk(*jobs[k])
        return np.split(tallies, self._splits)

    def _reap(self):
        pid, self._pid = self._pid, None
        if pid is not None:
            os.waitpid(pid, 0)

    def collect(self):
        """The hm_wos estimate of each request, in order."""
        return [_estimate(req, tally) for req, tally in zip(self.requests, self._tallies())]

    def close(self):
        """Kill and reap the worker if it is still running; a later collect()
        runs every chunk in this process."""
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _work_from_back(jobs, board):
    """The worker's side of WosBatch: claim chunks from the back, announcing
    each in the second cursor before checking the caller's, and set a chunk's
    done flag after its tally."""
    cursors, rows = board[:2], board[2:].reshape(-1, 4)
    for k in range(len(jobs) - 1, -1, -1):
        cursors[1] = k
        if k < cursors[0]:
            return
        rows[k, 1:] = _walk_chunk(*jobs[k])
        rows[k, 0] = 1


def _wos_run(requests):
    """The per-chunk tallies of WosBatch(requests), per request."""
    with WosBatch(requests) as batch:
        return batch._tallies()


def hm_wos_many(requests):
    """The hm_wos estimate of each WosRequest, in order: a WosBatch, started
    and then collected."""
    return WosBatch(requests).collect()


def hm_wos(domain: SlitDiskDomain, z, target="slit", arc=None, n_walks=10 ** 5,
           eps=WOS_EPS, cap=WOS_CAP, seed=0):
    """Walk-on-spheres estimate of the harmonic measure of a boundary part.

    target is 'slit' or 'circle'; with target='circle' an optional arc
    (theta1, theta2) restricts to walks absorbed at angles inside the arc.
    Walks exceeding the step cap are discarded and counted; the estimate is
    flagged when more than 1% are discarded.
    """
    return hm_wos_many([WosRequest(domain, z, target, arc, n_walks, eps, cap, seed)])[0]


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


def tail_slit(f: ModelMap, z, n, cut=1e-6):
    """Polyline sampling of the flow tail {phi_t(z) : t >= n}, truncated where
    the boundary gap drops below `cut` (Hausdorff error <= cut)."""
    if not cut > 0.0:
        raise InvalidPointError(f"cut must be positive, got {cut!r}")
    traj = make_trajectory(f, z)
    gap_n = float(traj.boundary_gap(float(n)))
    if gap_n <= cut:
        raise InvalidPointError("tail already inside the cut; lower n or cut")
    # The slit-plane gap, ~ 2/sqrt(t), falls slowest in the zoo; invert it for
    # the last sample time.  Where the gap falls faster (parab-aut ~ 2/t, hyp
    # ~ lam^-t), the samples with gap below cut/2 are dropped before their
    # disc points round onto the circle.
    t_far = float(n) + max(1.0, (2.0 / cut) ** 2)
    offsets = np.concatenate([[0.0], np.geomspace(1e-3, t_far - float(n),
                                                 TAIL_SLIT_SAMPLES - 1)])
    ts = float(n) + offsets
    ts = ts[traj.boundary_gap(ts) >= cut / 2.0]
    return SlitDiskDomain(np.atleast_1d(traj.point(ts)))


def tail_hm_requests(f: ModelMap, z, n_grid, n_walks=10 ** 5, seed=0, cut=1e-6,
                     eps=WOS_EPS, cap=WOS_CAP):
    """The walk-on-spheres request of tail_hm_series for each grid index n:
    the slit measure of the tail from n seen from 0, seed + i at the i-th."""
    return [WosRequest(tail_slit(f, z, int(n), cut=cut), 0.0, target="slit",
                       n_walks=n_walks, eps=eps, cap=cap, seed=seed + i)
            for i, n in enumerate(np.asarray(n_grid, dtype=np.int64))]


def tail_hm_result(f: ModelMap, z, n_grid, estimates):
    """The TailHmResult of the estimates of tail_hm_requests(f, z, n_grid, ...).

    Asserts the two-sided sanity chain: the arcsin floor from the tail
    diameter below, boundedness of omega * sqrt(n) above.
    """
    ns = np.asarray(n_grid, dtype=np.int64)
    orbit = iterate(f, z, int(ns[-1]))
    omega = np.array([est.value for est in estimates])
    se = np.array([est.se for est in estimates])
    discards = np.array([est.discards for est in estimates], dtype=np.int64)
    floor = np.array([math.asin(min(float(orbit.dist_to_tau(int(n))), 2.0) / 2.0) / math.pi
                      for n in ns])
    floor_holds = bool(np.all(omega >= floor - 3.0 * se))
    max_scaled = float(np.max(omega * np.sqrt(ns.astype(float))))
    return TailHmResult(ns, omega, se, discards, floor, floor_holds, max_scaled)


def tail_hm_series(f: ModelMap, z, n_grid, n_walks=10 ** 5, seed=0, cut=1e-6,
                   eps=WOS_EPS, cap=WOS_CAP):
    """Monte Carlo series omega(0, tail_n, disc \\ tail_n) over the grid, all
    estimates in one hm_wos_many call (see tail_hm_result)."""
    requests = tail_hm_requests(f, z, n_grid, n_walks, seed, cut, eps, cap)
    return tail_hm_result(f, z, n_grid, hm_wos_many(requests))
