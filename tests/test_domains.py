import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disciter.domains import (SLIT_PLANE_K, horodisc_tangency_ratio, slit_riemann,
                              slit_riemann_inv)
from disciter.errors import InvalidPointError
from disciter.hypgeo import dist_disk


class TestSlitRiemann:
    def test_origin(self):
        assert slit_riemann(0.0) == 0.0

    def test_maps_to_one(self):
        # (1+z)/(1-z) = sqrt(2) at z = 3 - 2 sqrt(2)
        z = 3.0 - 2.0 * math.sqrt(2.0)
        assert slit_riemann(z) == pytest.approx(1.0, abs=1e-14)

    def test_negative_half(self):
        assert slit_riemann(-0.5) == pytest.approx(-8.0 / 9.0, abs=1e-15)

    def test_inverse_values(self):
        assert slit_riemann_inv(0.0) == 0.0
        assert slit_riemann_inv(1.0) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-14)
        for n in (2.0, 7.0, 100.0):
            expected = (math.sqrt(n + 1.0) - 1.0) / (math.sqrt(n + 1.0) + 1.0)
            assert slit_riemann_inv(n) == pytest.approx(expected, abs=1e-14)

    def test_slit_rejected(self):
        with pytest.raises(InvalidPointError):
            slit_riemann_inv(-2.0)

    @given(st.complex_numbers(max_magnitude=0.99, allow_nan=False, allow_infinity=False))
    @settings(max_examples=400, deadline=None)
    def test_round_trip(self, z):
        # Near z = -1 the image sits next to the slit tip where |dz/dw| ~ 200,
        # so quantizing w already costs ~2e-14; the stated 1e-14 holds away
        # from that corner, 5e-14 covers the whole |z| <= 0.99 disc.
        back = complex(slit_riemann_inv(slit_riemann(z)))
        tol = 1e-14 if abs(1.0 + complex(z)) > 0.05 else 5e-14
        assert abs(back - complex(z)) < tol

    def test_round_trip_worst_corner_sweep(self):
        z = np.linspace(-0.99, -0.9, 20001).astype(complex)
        back = slit_riemann_inv(slit_riemann(z))
        assert float(np.max(np.abs(back - z))) < 5e-14


class TestDistDomain:
    def test_slit_axis_closed_form(self):
        for n in (1.0, 5.0, 10.0 ** 6):
            assert SLIT_PLANE_K.dist(0.0, n) == pytest.approx(
                0.25 * math.log(n + 1.0), rel=1e-14)

    def test_identity(self):
        for w in (0.4 + 0.1j, 0.5):
            assert SLIT_PLANE_K.dist(w, w) == 0.0

    def test_slit_off_axis_matches_transport(self):
        w1, w2 = 1.0 + 2.0j, -0.5 + 0.25j
        via_disc = float(dist_disk(slit_riemann_inv(w1), slit_riemann_inv(w2)))
        assert SLIT_PLANE_K.dist(w1, w2) == pytest.approx(via_disc, abs=1e-14)

    def test_koebe_drift_bounded(self):
        # d_K(0, n) - (1/4) log n = (1/4) log((n+1)/n), maximal at n = 1
        ns = np.geomspace(1.0, 1e6, 40)
        drift = np.array([SLIT_PLANE_K.dist(0.0, n) for n in ns]) - 0.25 * np.log(ns)
        assert float(np.max(np.abs(drift))) <= 0.25 * math.log(2.0) + 1e-12
        assert np.all(drift > 0.0)

    def test_translation_drift_bounded_off_axis(self):
        # |d_K(z, z+t) - (1/4) log t| stays bounded in t for any base point
        ts = np.geomspace(1.0, 1e6, 25)
        for z in (0.0, 1.0, 2.0 + 1.5j, -0.5 - 2.0j):
            drift = np.array([SLIT_PLANE_K.dist(z, z + t) for t in ts]) \
                - 0.25 * np.log(ts)
            assert float(np.max(np.abs(drift))) < 2.0, z
            # and the drift settles: the last decade varies by o(1)
            assert abs(drift[-1] - drift[-5]) < 0.01, z

    def test_domain_monotonicity_under_dilation(self):
        # 3K contains K; transport gives d_{3K}(z, w) = d_K(z/3, w/3) <= d_K(z, w)
        rng = np.random.default_rng(7)
        count = 0
        while count < 1000:
            w1 = complex(rng.uniform(-4, 6), rng.uniform(-5, 5))
            w2 = complex(rng.uniform(-4, 6), rng.uniform(-5, 5))
            if not (SLIT_PLANE_K.contains(w1) and SLIT_PLANE_K.contains(w2)):
                continue
            count += 1
            small = SLIT_PLANE_K.dist(w1 / 3.0, w2 / 3.0)
            assert small <= SLIT_PLANE_K.dist(w1, w2) + 1e-12


class TestBoundaryDistance:
    def test_slit_tip(self):
        assert SLIT_PLANE_K.boundary_distance(0.0) == 1.0

    def test_above_slit(self):
        assert SLIT_PLANE_K.boundary_distance(-1.0 + 1j) == 1.0

    def test_perpendicular_foot(self):
        assert SLIT_PLANE_K.boundary_distance(-3.0 + 0.25j) == pytest.approx(0.25)

    def test_outside_rejected(self):
        with pytest.raises(InvalidPointError):
            SLIT_PLANE_K.boundary_distance(-2.0)


class TestHorodiscTangency:
    def test_near_contact(self):
        z = 1.0 - 1e-6
        assert horodisc_tangency_ratio(1.0, z) == pytest.approx(1.0, abs=1e-5)

    def test_at_center(self):
        # ratio at the center c is (1 - |c|^2)/r; level 1 gives r = c = 1/2
        c, r = 0.5, 0.5
        expected = (1.0 - abs(c) ** 2) / r
        assert horodisc_tangency_ratio(1.0, c) == pytest.approx(expected, rel=1e-14)

    def test_monotone_radial_decrease(self):
        ks = np.arange(1, 13)
        ratios = np.array([horodisc_tangency_ratio(1.0, 1.0 - 10.0 ** -float(k))
                           for k in ks])
        assert np.all(np.diff(ratios) < 0.0)
        assert np.all(ratios >= 1.0)

    def test_linear_gap_along_nontangential_sequence(self):
        # ratio - 1 <= C (1 - |z_k|) with a finite fitted C
        zs = 1.0 - np.geomspace(1e-1, 1e-9, 20)
        gaps = np.array([horodisc_tangency_ratio(2.0, z) - 1.0 for z in zs])
        c_fit = float(np.max(gaps / (1.0 - zs)))
        assert math.isfinite(c_fit)
        assert np.all(gaps <= c_fit * (1.0 - zs) + 1e-15)

    def test_outside_rejected(self):
        with pytest.raises(InvalidPointError):
            horodisc_tangency_ratio(1.0, -0.5)
