import math
import os
import sys
import threading

import numpy as np
import pytest

from disciter import harmonic
from disciter.errors import InvalidPointError
from disciter.harmonic import (WOS_CHUNK, WOS_EPS, SlitDiskDomain, _wos_run,
                               arc_diameter, arc_measure_from_diameter,
                               hm_disk_arc, hm_wos, tail_hm_series, tail_slit)
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
        full = _wos_run(dom, 0.1j, 2 * WOS_CHUNK + 123, WOS_EPS, 10 ** 5, seed=8)
        first = _wos_run(dom, 0.1j, WOS_CHUNK, WOS_EPS, 10 ** 5, seed=8)
        for a, b in zip(full, first):
            assert np.array_equal(a[:WOS_CHUNK], b)

    def test_discard_accounting(self):
        dom = SlitDiskDomain([0.4, 0.8])
        est = hm_wos(dom, 0.0, target="slit", n_walks=2000, cap=4, seed=1)
        assert est.discards > 0
        assert est.flagged


def _chunk_outputs(n_walks):
    """Fresh (kinds, angles, steps) arrays, as _wos_run allocates them."""
    return (np.full(n_walks, -1, dtype=np.int8), np.zeros(n_walks),
            np.zeros(n_walks, dtype=np.int64))


def _both_threads(real, seen, barrier, ran=None):
    """_walk_chunk, except that each thread's first chunk waits until two
    threads hold one, so the helper thread is sure to run a chunk; the index
    of each chunk run is appended to `ran`."""
    def run(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        if ran is not None:
            ran.append(args[1])
        real(*args)
    return run


class TestChunkThreads:
    N = 3 * WOS_CHUNK + 123

    def test_any_chunk_order_gives_the_same_bits(self):
        rng = np.random.default_rng(0)
        for verts, z in (([], 0.3 + 0.2j), ([0.4, 0.8], 0.1j)):
            dom = SlitDiskDomain(verts)
            ref = _wos_run(dom, z, self.N, WOS_EPS, 10 ** 5, seed=8)
            seeds = np.random.SeedSequence(8).spawn(4)
            arr = np.asarray(dom.vertices, dtype=complex) if verts else None
            for order in ([3, 2, 1, 0], rng.permutation(4)):
                out = _chunk_outputs(self.N)
                for ci in order:
                    harmonic._walk_chunk(out, ci, seeds[ci], z, arr, WOS_EPS, 10 ** 5,
                                         WOS_CHUNK)
                for got, want in zip(out, ref):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_cpu_and_two_give_the_same_bits(self, monkeypatch):
        dom = SlitDiskDomain([0.4, 0.8])
        real, seen = harmonic._walk_chunk, set()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(harmonic, "_walk_chunk",
                            _both_threads(real, seen, threading.Barrier(1)))
        one = _wos_run(dom, 0.1j, self.N, WOS_EPS, 10 ** 5, seed=8)
        assert seen == {threading.get_ident()}
        seen.clear()
        ran = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(harmonic, "_walk_chunk",
                            _both_threads(real, seen, threading.Barrier(2, timeout=60), ran))
        two = _wos_run(dom, 0.1j, self.N, WOS_EPS, 10 ** 5, seed=8)
        assert len(seen) == 2 and sorted(ran) == [0, 1, 2, 3]
        for a, b in zip(one, two):
            assert np.array_equal(a, b)

    def test_small_chunks_under_fast_switching(self, monkeypatch):
        # many chunks and a short switch interval: a chunk index lost or run
        # twice by the shared iterator would leave or change walks
        dom, n, chunk = SlitDiskDomain([0.4, 0.8]), 200 * 64 + 5, 64
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = _wos_run(dom, 0.1j, n, WOS_EPS, 10 ** 5, seed=9, chunk=chunk)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _wos_run(dom, 0.1j, n, WOS_EPS, 10 ** 5, seed=9, chunk=chunk)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(serial[2] > 0)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("side", ["main", "helper"])
    def test_chunk_error_reaches_the_caller(self, monkeypatch, side):
        boom, seen = RuntimeError("chunk failed"), set()

        def fail_on_one_side(*args):
            if (threading.current_thread() is threading.main_thread()) == (side == "main"):
                raise boom

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(harmonic, "_walk_chunk", _both_threads(
            fail_on_one_side, seen, threading.Barrier(2, timeout=60)))
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            hm_wos(SlitDiskDomain([0.4, 0.8]), 0.0, n_walks=self.N, seed=1)
        assert info.value is boom
        assert len(seen) == 2
        assert threading.active_count() == before


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
