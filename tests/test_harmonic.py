import math
import os
import threading
import time

import numpy as np
import pytest

from disciter import harmonic
from disciter.errors import InvalidPointError
from disciter.harmonic import (WOS_CHUNK, SlitDiskDomain, WosBatch, WosRequest, _wos_run,
                               arc_diameter, arc_measure_from_diameter,
                               hm_disk_arc, hm_wos, hm_wos_many, tail_hm_series,
                               tail_slit)
from disciter.maps import koebe_shift, iterate

WALKS = 2 * 10 ** 4  # module tests trade walks for speed; acceptance uses 1e5


class TestQuadrature:
    def test_half_circle_from_center(self):
        assert hm_disk_arc(0.0, 0.0, math.pi).value == pytest.approx(0.5, abs=1e-12)

    def test_center_matches_arc_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t1 = rng.uniform(0, 2 * math.pi)
            spread = rng.uniform(1e-3, math.pi)
            got = hm_disk_arc(0.0, t1, t1 + spread).value
            want = arc_measure_from_diameter(arc_diameter(t1, t1 + spread)).value
            assert got == pytest.approx(want, abs=1e-10)

    def test_degenerate_arc(self):
        assert hm_disk_arc(0.3, 1.0, 1.0).value == 0.0

    def test_kernel_monotone_toward_point(self):
        symmetric = (-0.5, 0.5)
        assert hm_disk_arc(0.5, *symmetric).value > hm_disk_arc(0.0, *symmetric).value

    def test_probability_measure(self):
        z = 0.4 - 0.3j
        total = hm_disk_arc(z, 0.0, 1.7).value + hm_disk_arc(z, 1.7, 2 * math.pi).value
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_subordination_on_cayley(self):
        # disc arc <-> real interval under the upper Cayley chart; Moebius
        # equality of harmonic measures.  The measure of [a, b] seen from w in
        # the upper half-plane is the subtended angle over pi.
        z = 0.2 + 0.1j
        t1, t2 = 2.0, 2.8  # arc away from the boundary point 1
        w = 1j * (1 + z) / (1 - z)
        a = complex(1j * (1 + np.exp(1j * t2)) / (1 - np.exp(1j * t2))).real
        b = complex(1j * (1 + np.exp(1j * t1)) / (1 - np.exp(1j * t1))).real
        lo, hi = min(a, b), max(a, b)
        subtended = float(np.angle((hi - w) / (lo - w))) / math.pi
        assert hm_disk_arc(z, t1, t2).value == pytest.approx(subtended, abs=1e-9)

    def test_bad_interval_rejected(self):
        with pytest.raises(InvalidPointError):
            hm_disk_arc(0.0, 1.0, 0.5)

    def test_matches_simpson_poisson_integral(self):
        # composite Simpson on the Poisson kernel as an independent oracle
        def simpson(z, t1, t2, intervals=1 << 14):
            th = np.linspace(t1, t2, intervals + 1)
            f = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * th) - z) ** 2 / (2.0 * math.pi)
            h = (t2 - t1) / intervals
            return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())

        rng = np.random.default_rng(11)
        spreads = np.concatenate([[0.0, 2.0 * math.pi], rng.uniform(0.0, 2.0 * math.pi, 60)])
        for spread in spreads:
            z = 0.9 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
            t1 = rng.uniform(-math.pi, math.pi)
            got = hm_disk_arc(z, t1, t1 + spread).value
            assert got == pytest.approx(simpson(z, t1, t1 + spread), abs=1e-9), (z, t1, spread)


class TestSlitDomain:
    def test_collinear_collapse(self):
        dom = SlitDiskDomain(np.linspace(0.5, 0.9, 40))
        assert len(dom.vertices) == 2

    def test_distance_to_segment(self):
        dom = SlitDiskDomain([0.0, 0.5])
        assert dom.distance(np.array([0.25 + 0.1j]))[0] == pytest.approx(0.1)
        assert dom.distance(np.array([-0.2 + 0.0j]))[0] == pytest.approx(0.2)

    def test_blocked_distance_matches_all_segments_at_once(self):
        verts = 0.6 * np.exp(1j * np.linspace(0.0, 3.0, 4 * harmonic.SEGMENT_BLOCK + 4))
        dom = SlitDiskDomain(verts)
        v = np.asarray(dom.vertices, dtype=complex)
        rng = np.random.default_rng(5)
        p = 0.9 * np.sqrt(rng.random(4000)) * np.exp(2j * math.pi * rng.random(4000))
        a, ab = v[:-1], v[1:] - v[:-1]
        pc = p[:, None]
        t = np.clip(((pc - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
        assert np.array_equal(dom.distance(p), np.abs(pc - (a + t * ab)).min(axis=-1))

    def test_empty(self):
        dom = SlitDiskDomain([])
        assert dom.empty
        assert np.isinf(dom.distance(np.array([0.1 + 0.1j]))[0])

    def test_outside_disc_rejected(self):
        with pytest.raises(InvalidPointError):
            SlitDiskDomain([0.5, 1.5])

    def test_self_intersection_rejected(self):
        with pytest.raises(InvalidPointError):
            SlitDiskDomain([0.0, 0.5, 0.25 + 0.2j, 0.25 - 0.2j])


class TestWos:
    def test_matches_quadrature_no_slit(self):
        z = 0.3 + 0.2j
        t1, t2 = 0.7, 2.4
        est = hm_wos(SlitDiskDomain([]), z, target="circle", arc=(t1, t2),
                     n_walks=WALKS, seed=42)
        ref = hm_disk_arc(z, t1, t2).value
        assert abs(est.value - ref) <= 3.0 * est.se
        assert est.se == pytest.approx(
            math.sqrt(est.value * (1 - est.value) / (WALKS - est.discards)), rel=1e-12)

    def test_start_adjacent_to_slit_absorbs(self):
        dom = SlitDiskDomain([0.3, 0.6])
        est = hm_wos(dom, 0.45 + 0.5e-4 * 1j, target="slit", n_walks=100,
                     eps=1e-4, seed=1)
        assert est.value == 1.0

    def test_solynin_floor_radial_slit(self):
        ell = 0.5
        dom = SlitDiskDomain([1.0 - ell, 1.0 - 1e-9])
        est = hm_wos(dom, 0.0, target="slit", n_walks=WALKS, seed=3)
        floor = arc_measure_from_diameter(ell - 1e-9).value
        assert est.value >= floor - 3.0 * est.se

    def test_complementary_parts_sum_to_one(self):
        dom = SlitDiskDomain([0.2, 0.6])
        a = hm_wos(dom, -0.3, target="slit", n_walks=WALKS, seed=5)
        b = hm_wos(dom, -0.3, target="circle", n_walks=WALKS, seed=5)
        assert a.value + b.value == pytest.approx(1.0, abs=1e-12)

    def test_monotonicity_removing_slit(self):
        # removing the slit cannot decrease the arc's measure (paired seeds)
        arc = (2.0, 2.9)
        z = -0.2 + 0.1j
        with_slit = hm_wos(SlitDiskDomain([0.2, 0.7]), z, target="circle",
                           arc=arc, n_walks=WALKS, seed=11)
        without = hm_wos(SlitDiskDomain([]), z, target="circle", arc=arc,
                         n_walks=WALKS, seed=11)
        assert with_slit.value <= without.value + 3.0 * (with_slit.se + without.se)

    def test_reproducible_bitwise(self):
        dom = SlitDiskDomain([0.4, 0.8])
        a = hm_wos(dom, 0.0, target="slit", n_walks=5000, seed=77)
        b = hm_wos(dom, 0.0, target="slit", n_walks=5000, seed=77)
        assert a.value == b.value and a.se == b.se

    def test_pinned_bits(self):
        # Recorded from the masked loop; 2 chunks and a partial third, and the
        # zigzag's cap discards walks.  Any change to the walks moves these.
        n_walks = 2 * WOS_CHUNK + 123
        cases = [
            (SlitDiskDomain([]), 0.3 + 0.2j, dict(target="circle", arc=(0.7, 2.4)), 2025,
             (0.3509774710407102, 0.002631667199056441, 0, 12.760846432154693)),
            (SlitDiskDomain([0.4, 0.8]), 0.0, dict(target="slit"), 2026,
             (0.2812623514031194, 0.0024791480340029827, 0, 15.525827734030585)),
            (SlitDiskDomain([-0.7, -0.5 + 0.2j, -0.3, -0.1 + 0.2j]), -0.4 - 0.3j,
             dict(target="slit", cap=40), 2027,
             (0.4386057319907049, 0.0027620911927290323, 616, 14.042106893880712)),
        ]
        for dom, z, kwargs, seed, pinned in cases:
            est = hm_wos(dom, z, n_walks=n_walks, seed=seed, **kwargs)
            assert (est.value, est.se, est.discards, est.mean_steps) == pinned

    def test_chunk_walks_independent_of_walk_count(self):
        # a chunk's walks depend only on the seed and the chunk index
        dom = SlitDiskDomain([0.4, 0.8])
        full, first = _wos_run([_request(dom, 0.1j, n_walks=2 * WOS_CHUNK + 123, seed=8),
                                _request(dom, 0.1j, n_walks=WOS_CHUNK, seed=8)])
        assert full.shape == (3, 3) and first.shape == (1, 3)
        assert np.array_equal(full[0], first[0])
        assert full[:, 0].sum() == 2 * WOS_CHUNK + 123  # no walk of a chunk discarded

    def test_requests_checked_before_any_walk(self, monkeypatch):
        def no_walks(*args):
            raise AssertionError("a walk ran")

        monkeypatch.setattr(harmonic, "_walk_chunk", no_walks)
        dom = SlitDiskDomain([0.4, 0.8])
        good = WosRequest(dom, 0.0, n_walks=3 * WOS_CHUNK)
        for bad in (WosRequest(dom, 1.5), WosRequest(dom, 0.0, target="arc"),
                    WosRequest(SlitDiskDomain([]), 0.0), WosRequest(dom, 0.6),
                    WosRequest(dom, 0.0, n_walks=0), WosRequest(dom, 0.0, n_walks=-5)):
            with pytest.raises(InvalidPointError):
                hm_wos_many([good, good, bad])
        assert hm_wos_many([]) == []

    def test_discard_accounting(self):
        dom = SlitDiskDomain([0.4, 0.8])
        est = hm_wos(dom, 0.0, target="slit", n_walks=2000, cap=4, seed=1)
        assert est.discards > 0
        assert est.flagged


def _request(domain, z, **kwargs):
    """A checked WosRequest, as _wos_run takes it."""
    return harmonic._checked(WosRequest(domain, z, **kwargs))


def _fork_counter(monkeypatch):
    """Make os.fork count its calls in the returned list."""
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    return calls


def _no_child_left(threads_before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads_before


# the batch of test_batch_equals_one_cpu_runs: an arc, a radial slit and the
# zigzag whose step cap discards walks
_BATCH = [
    WosRequest(SlitDiskDomain([]), 0.3 + 0.2j, target="circle", arc=(0.7, 2.4),
               n_walks=2 * WOS_CHUNK + 123, seed=2025),
    WosRequest(SlitDiskDomain([0.4, 0.8]), 0.0, n_walks=WOS_CHUNK + 7, seed=2026),
    WosRequest(SlitDiskDomain([-0.7, -0.5 + 0.2j, -0.3, -0.1 + 0.2j]), -0.4 - 0.3j,
               cap=40, n_walks=2 * WOS_CHUNK + 123, seed=2027),
    WosRequest(SlitDiskDomain([0.4, 0.8]), 0.1j, target="circle", n_walks=500, seed=2028),
]


class TestChunkThreads:
    """Chunks split between the calling process and one forked worker."""

    N = 3 * WOS_CHUNK + 123

    def test_any_chunk_order_gives_the_same_bits(self):
        rng = np.random.default_rng(0)
        for verts, z in (([], 0.3 + 0.2j), ([0.4, 0.8], 0.1j)):
            dom = SlitDiskDomain(verts)
            req = _request(dom, z, target="circle", arc=(0.5, 2.0), n_walks=self.N, seed=8)
            (ref,) = _wos_run([req])
            seeds = np.random.SeedSequence(8).spawn(4)
            arr = np.asarray(dom.vertices, dtype=complex) if verts else None
            sizes = [WOS_CHUNK] * 3 + [123]
            for order in ([3, 2, 1, 0], rng.permutation(4)):
                got = {ci: harmonic._chunk_tally(req, arr, seeds[ci], sizes[ci])
                       for ci in order}
                assert np.array_equal([got[ci] for ci in range(4)], ref)

    def test_one_cpu_and_two_give_the_same_bits(self, monkeypatch):
        threads = threading.active_count()
        forks = _fork_counter(monkeypatch)
        req = _request(SlitDiskDomain([0.4, 0.8]), 0.1j, n_walks=self.N, seed=8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (one,) = _wos_run([req])
        assert forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        (two,) = _wos_run([req])
        assert forks == [1]
        _no_child_left(threads)
        assert one.dtype == two.dtype == np.int64 and np.array_equal(one, two)

    def test_batch_equals_one_cpu_runs(self, monkeypatch):
        threads = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = [hm_wos(r.domain, r.z, r.target, r.arc, r.n_walks, r.eps, r.cap, r.seed)
                 for r in _BATCH]
        assert alone[2].discards > 0 and alone[0].discards == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _fork_counter(monkeypatch)
        batch = hm_wos_many(_BATCH)
        assert forks == [1]
        _no_child_left(threads)
        assert batch == alone
        # the pinned bits of TestWos hold for the batch too
        assert (batch[0].value, batch[0].se, batch[0].discards, batch[0].mean_steps) == (
            0.3509774710407102, 0.002631667199056441, 0, 12.760846432154693)
        assert (batch[2].value, batch[2].se, batch[2].discards, batch[2].mean_steps) == (
            0.4386057319907049, 0.0027620911927290323, 616, 14.042106893880712)

    def test_small_chunks_split_between_processes(self, monkeypatch):
        # many chunks and an odd count: a chunk lost or run twice in the
        # split would leave or change walks
        threads = threading.active_count()
        req = _request(SlitDiskDomain([0.4, 0.8]), 0.1j, n_walks=201 * 64 + 5, seed=9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (serial,) = _wos_run([req], chunk=64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        forks = _fork_counter(monkeypatch)
        (split,) = _wos_run([req], chunk=64)
        assert forks == [1]
        _no_child_left(threads)
        assert serial.shape == (202, 3) and serial[:, 0].sum() == req.n_walks
        assert np.array_equal(serial, split)

    def test_failing_worker_gives_the_same_estimates(self, monkeypatch):
        threads = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        want = hm_wos_many(_BATCH)
        parent, real = os.getpid(), harmonic._walk_chunk

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise RuntimeError("worker failed")
            return real(*args)

        monkeypatch.setattr(harmonic, "_walk_chunk", fail_in_worker)
        forks = _fork_counter(monkeypatch)
        assert hm_wos_many(_BATCH) == want
        assert forks == [1]
        _no_child_left(threads)

    @pytest.mark.parametrize("side", ["main", "helper"])
    def test_chunk_error_reaches_the_caller(self, monkeypatch, side):
        # "main": the caller's first chunk raises while the worker sleeps, so
        # only a kill ends the worker in time; "helper": the last chunk, the
        # worker's, raises in the worker and again when the caller reruns it
        boom, real = RuntimeError("chunk failed"), harmonic._walk_chunk
        parent = os.getpid()

        def fail_on_one_side(child, size, *args):
            if side == "main":
                if os.getpid() == parent:
                    raise boom
                time.sleep(60)
            elif size == 123:
                raise boom
            return real(child, size, *args)

        threads = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(harmonic, "_walk_chunk", fail_on_one_side)
        forks = _fork_counter(monkeypatch)
        start = time.monotonic()
        with pytest.raises(RuntimeError) as info:
            hm_wos(SlitDiskDomain([0.4, 0.8]), 0.0, n_walks=self.N, seed=1)
        assert time.monotonic() - start < 30
        assert info.value is boom
        assert forks == [1]
        _no_child_left(threads)

    def test_no_fork_while_another_thread_is_alive(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked with another thread alive")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        want = hm_wos_many(_BATCH[:2])
        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            got = hm_wos_many(_BATCH[:2])
        finally:
            release.set()
            other.join()
        assert got == want


class TestBatch:
    """A WosBatch walks on its worker from the moment it is made."""

    def test_worker_walks_while_the_caller_is_elsewhere(self, monkeypatch):
        threads = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = hm_wos_many(_BATCH)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real, calls = os.getpid(), harmonic._walk_chunk, []

        def counted(*args):
            if os.getpid() == parent:
                calls.append(1)
            return real(*args)

        monkeypatch.setattr(harmonic, "_walk_chunk", counted)
        with WosBatch(_BATCH) as batch:
            # the caller is busy elsewhere until the worker has exited
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            got = batch.collect()
        assert calls == [] and got == want
        _no_child_left(threads)

    def test_worker_failing_part_way_is_completed_by_the_caller(self, monkeypatch):
        # the worker finishes its first two chunks, then fails on the third;
        # the caller keeps the two and reruns the rest
        threads = threading.active_count()
        req = _request(SlitDiskDomain([0.4, 0.8]), 0.1j, n_walks=40 * 64 + 5, seed=9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = WosBatch([req], chunk=64).collect()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real, worker_calls, caller_sizes = os.getpid(), harmonic._walk_chunk, [], []

        def fail_on_third(child, size, *args):
            if os.getpid() != parent:
                worker_calls.append(1)
                if len(worker_calls) == 3:
                    raise RuntimeError("worker failed")
            else:
                caller_sizes.append(size)
            return real(child, size, *args)

        monkeypatch.setattr(harmonic, "_walk_chunk", fail_on_third)
        with WosBatch([req], chunk=64) as batch:
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            got = batch.collect()
        assert got == want
        # the two chunks the worker finished, the last two, were not rerun
        assert len(caller_sizes) == 41 - 2 and 5 not in caller_sizes
        _no_child_left(threads)

    def test_many_small_chunks_run_once_each(self, monkeypatch):
        # the caller and the worker race for 300 tiny chunks: every chunk runs,
        # and at most the one where they meet runs in both processes
        threads = threading.active_count()
        req = _request(SlitDiskDomain([0.4, 0.8]), 0.1j, n_walks=300 * 8, seed=10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        (want,) = _wos_run([req], chunk=8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real, calls = os.getpid(), harmonic._walk_chunk, []

        def counted(*args):
            if os.getpid() == parent:
                calls.append(1)
            return real(*args)

        monkeypatch.setattr(harmonic, "_walk_chunk", counted)
        for _ in range(5):
            calls.clear()
            with WosBatch([req], chunk=8) as batch:
                (got,) = batch._tallies()
            worker_done = int(batch._board[2:].reshape(-1, 4)[:, 0].sum())
            assert np.array_equal(got, want)
            assert 300 <= len(calls) + worker_done <= 301
        _no_child_left(threads)

    def test_closing_an_uncollected_batch_kills_its_worker(self, monkeypatch):
        threads = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        real = harmonic._walk_chunk
        parent = os.getpid()

        def slow_in_worker(*args):
            if os.getpid() != parent:
                time.sleep(60)
            return real(*args)

        monkeypatch.setattr(harmonic, "_walk_chunk", slow_in_worker)
        forks = _fork_counter(monkeypatch)
        start = time.monotonic()
        with pytest.raises(KeyError):
            with WosBatch(_BATCH):
                raise KeyError("elsewhere")
        assert time.monotonic() - start < 30
        assert forks == [1]
        _no_child_left(threads)


class TestTail:
    def test_tail_slit_is_single_segment(self):
        slit = tail_slit(koebe_shift(), 0.0, 10)
        assert len(slit.vertices) == 2
        z10 = (math.sqrt(11.0) - 1.0) / (math.sqrt(11.0) + 1.0)
        assert slit.vertices[0] == pytest.approx(z10, abs=1e-12)
        assert abs(slit.vertices[1] - 1.0) < 2e-6

    def test_series_chain(self):
        res = tail_hm_series(koebe_shift(), 0.0, [10, 100], n_walks=WALKS, seed=13)
        assert res.floor_holds
        assert res.max_omega_sqrt_n <= 5.0
        assert np.all(res.omega > 0.0) and np.all(res.omega < 1.0)
        assert np.all(res.se < 0.01)

    def test_final_rate_check(self):
        # |f^n(0) - 1| sqrt(n) -> 2 for the slit-plane translation model
        orbit = iterate(koebe_shift(), 0.0, 10 ** 6)
        vals = [float(orbit.dist_to_tau(n)) * math.sqrt(n) for n in (10 ** 4, 10 ** 6)]
        assert vals[-1] == pytest.approx(2.0, abs=0.01)
