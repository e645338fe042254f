import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disciter import hypgeo
from disciter.domains import RIGHT_HALF_PLANE, SLIT_PLANE_K, dist_domain
from disciter.errors import InvalidPointError
from disciter.hypgeo import (BoundaryPoint, dist_disk, dist_halfplane,
                             distance_lemma_bounds, euclid_rate_bracket,
                             julia_check, metric_disk)


# strategy: points comfortably inside the disc
disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


class TestMetric:
    def test_center(self):
        assert metric_disk(0.0) == 1.0

    def test_half(self):
        assert metric_disk(0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_stable_form_near_boundary(self):
        expected = 1.0 / ((1.0 - 0.999) * (1.0 + 0.999))
        assert metric_disk(0.999) == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidPointError):
            metric_disk(complex(math.nan, 0.0))

    def test_rejects_boundary(self):
        with pytest.raises(InvalidPointError):
            metric_disk(1.0)


class TestDistDisk:
    def test_identity(self):
        assert dist_disk(0.3 + 0.4j, 0.3 + 0.4j) == 0.0

    def test_radius(self):
        # d(0, 1/2) = atanh(1/2) = (1/2) ln 3
        assert dist_disk(0.0, 0.5) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)

    def test_moebius_transport_oracle(self):
        # Independent oracle: the automorphism sending 0.3i to 0 sends -0.3i
        # to -0.6i/1.09, and d(0, r) = atanh(r).
        a = 0.3j
        image = (-0.3j - a) / (1.0 - np.conj(a) * -0.3j)
        assert dist_disk(0.3j, -0.3j) == pytest.approx(math.atanh(abs(image)), abs=1e-14)

    @given(disc_points, disc_points)
    @settings(max_examples=300, deadline=None)
    def test_symmetry_and_positivity(self, z, w):
        d1, d2 = dist_disk(z, w), dist_disk(w, z)
        assert d1 == pytest.approx(d2, abs=1e-13)
        assert d1 >= 0.0
        assert (d1 == 0.0) == (z == w)

    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidPointError):
            dist_disk(0.999999, complex(math.inf, 0))


class TestDistHalfplane:
    def test_right_axis_geodesic(self):
        # (1, lam^n) on the positive axis: d = (n/2) log lam
        for n in (1, 2, 5):
            assert dist_halfplane(1.0, 2.0 ** n, "right") == pytest.approx(
                n / 2.0 * math.log(2.0), abs=1e-13)

    def test_upper_identity(self):
        assert dist_halfplane(1j, 1j, "upper") == 0.0

    def test_cross_chart_consistency(self):
        # d(i, i+1) in the upper chart equals dist_disk of the Cayley preimages
        w1, w2 = 1j, 1j + 1.0
        z1 = (w1 - 1j) / (w1 + 1j)
        z2 = (w2 - 1j) / (w2 + 1j)
        assert dist_halfplane(w1, w2, "upper") == pytest.approx(
            float(dist_disk(z1, z2)), abs=1e-12)

    def test_right_chart_matches_disc(self):
        rng = np.random.default_rng(5)
        z = 0.8 * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
        w = 0.8 * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
        cz = (1 + z) / (1 - z)
        cw = (1 + w) / (1 - w)
        assert np.max(np.abs(dist_halfplane(cz, cw, "right") - dist_disk(z, w))) < 1e-12

    def test_upper_chart_matches_disc(self):
        rng = np.random.default_rng(6)
        z = 0.8 * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
        w = 0.8 * (rng.random(50) + 1j * rng.random(50) - 0.5 - 0.5j)
        cz = 1j * (1 + z) / (1 - z)
        cw = 1j * (1 + w) / (1 - w)
        assert np.max(np.abs(dist_halfplane(cz, cw, "upper") - dist_disk(z, w))) < 1e-12

    def test_rejects_wrong_halfplane(self):
        with pytest.raises(InvalidPointError):
            dist_halfplane(-1.0, 2.0, "right")


class TestSchwarzPickGenerics:
    @given(disc_points, disc_points,
           st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False),
           st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=300, deadline=None)
    def test_blaschke_contraction(self, z, w, a, phi):
        # degree-2 Blaschke product: a non-isometric holomorphic self-map
        f = lambda s: np.exp(1j * phi) * s * (s - a) / (1.0 - np.conj(a) * s)
        assert dist_disk(f(z), f(w)) <= dist_disk(z, w) + 1e-11

    @given(disc_points, disc_points,
           st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_automorphism_isometry(self, z, w, a):
        m = lambda s: (s - a) / (1.0 - np.conj(a) * s)
        assert abs(dist_disk(m(z), m(w)) - dist_disk(z, w)) < 1e-11


class TestJulia:
    def test_identity_map(self):
        rng = np.random.default_rng(3)
        z = 0.9 * (rng.random(100) - 0.5 + 1j * (rng.random(100) - 0.5))
        assert np.all(julia_check(1.0, 1.0, z, z))

    def test_hyperbolic_closed_form(self):
        # lam = 2 automorphism has f'(1) = 1/2 and maps 0 to 1/3
        assert julia_check(1.0, 0.5, 0.0, 1.0 / 3.0)

    def test_fprime_range_validated(self):
        with pytest.raises(InvalidPointError):
            julia_check(1.0, 1.5, 0.0, 0.1)


class TestEuclidBracket:
    def test_zero(self):
        lo, hi = euclid_rate_bracket(0.0)
        assert (lo, hi) == (1.0, 2.0)

    def test_half(self):
        d = 0.5 * math.log(3.0)
        lo, hi = euclid_rate_bracket(d)
        assert lo <= 0.5 <= hi
        assert lo == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_koebe_orbit_point(self):
        n = 100
        d = 0.25 * math.log(n + 1.0)
        lo, hi = euclid_rate_bracket(d)
        gap = 2.0 / (math.sqrt(n + 1.0) + 1.0)
        assert lo <= gap <= hi

    @given(disc_points)
    @settings(max_examples=300, deadline=None)
    def test_bracket_contains_gap(self, z):
        d = float(dist_disk(0.0, z))
        lo, hi = euclid_rate_bracket(d)
        assert lo - 1e-12 <= 1.0 - abs(z) <= hi + 1e-12


class TestDistanceLemma:
    def test_degenerate_pair(self):
        assert distance_lemma_bounds(SLIT_PLANE_K, 1.0, 1.0) == (0.0, 0.0)

    def test_slit_plane_example(self):
        lo, hi = distance_lemma_bounds(SLIT_PLANE_K, 0.0, 3.0)
        assert lo == pytest.approx(0.25 * math.log(4.0), abs=1e-12)
        exact = float(dist_domain(SLIT_PLANE_K, 0.0, 3.0))
        assert lo <= exact + 1e-12
        assert exact <= hi

    def test_halfplane_brackets_exact(self):
        lo, hi = distance_lemma_bounds(RIGHT_HALF_PLANE, 1.0, 1.0 + 1j)
        exact = float(dist_halfplane(1.0, 1.0 + 1j, "right"))
        assert lo <= exact <= hi

    def test_segment_exit_gives_absent_upper(self):
        lo, hi = distance_lemma_bounds(SLIT_PLANE_K, -2.0 + 1j, -2.0 - 1j)
        assert hi is None
        assert lo > 0.0

    def test_outside_point_rejected(self):
        with pytest.raises(InvalidPointError):
            distance_lemma_bounds(SLIT_PLANE_K, -3.0, 1.0)

    def test_arrays_match_scalar_calls_bitwise(self):
        rng = np.random.default_rng(7)
        rows = rng.uniform([-4, -5, -4, -5], [6, 5, 6, 5], size=(2000, 4))
        w1, w2 = rows.view(complex).T.copy()
        w2[:20] = w1[:20]  # equal points
        w1[20:40] = rng.uniform(-0.9, 6, 20)  # on the real geodesic
        w2[30:50] = rng.uniform(-0.9, 6, 20)
        lo, hi = distance_lemma_bounds(SLIT_PLANE_K, w1, w2)
        exact = dist_domain(SLIT_PLANE_K, w1, w2)
        exits = 0
        for k in range(w1.size):
            lo_k, hi_k = distance_lemma_bounds(SLIT_PLANE_K, complex(w1[k]), complex(w2[k]))
            assert isinstance(lo_k, float)
            assert np.float64(lo_k).view(np.int64) == lo[k].view(np.int64), k
            if hi_k is None:
                exits += 1
                assert np.isnan(hi[k]), k
            else:
                assert np.float64(hi_k).view(np.int64) == hi[k].view(np.int64), k
            exact_k = float(dist_domain(SLIT_PLANE_K, complex(w1[k]), complex(w2[k])))
            if w1[k].imag == 0.0 and w2[k].imag == 0.0:  # the closed form, as a scalar call
                assert exact[k] == exact_k, k
            else:
                assert exact[k] == pytest.approx(exact_k, rel=1e-12), k
        assert exits > 100
        assert np.all(lo[:20] == 0.0) and np.all(hi[:20] == 0.0)
        # the bracket formulas, one pair at a time, for the first 50 sampled pairs
        t = np.linspace(0.0, 1.0, 4096)
        for k in np.flatnonzero(~np.isnan(hi) & (w1 != w2))[:50]:
            a, b = complex(w1[k]), complex(w2[k])
            sep = abs(a - b)
            delta = SLIT_PLANE_K.boundary_distance
            assert lo[k] == pytest.approx(
                0.25 * math.log1p(sep / min(delta(a), delta(b))), rel=1e-14)
            upper = np.trapezoid(1.0 / delta(a + t * (b - a)), dx=sep / 4095)
            assert hi[k] == pytest.approx(upper, rel=1e-14)
        # the lower bound is attained on the real geodesic, up to rounding
        assert np.all(lo <= exact + 1e-12) and np.all(exact[~np.isnan(hi)] <= hi[~np.isnan(hi)])

    def test_segment_inside_elementwise(self):
        w1 = np.array([-2.0 + 1j, -2.0 + 1j, 1.0 + 1j, -0.5, -3.0 + 1j])
        w2 = np.array([-2.0 - 1j, 3.0 - 1j, 1.0 - 1j, 5.0 + 2j, -2.0 + 2j])
        inside = SLIT_PLANE_K.segment_inside(w1, w2)
        assert inside.tolist() == [False, True, True, True, True]
        assert inside.tolist() == [SLIT_PLANE_K.segment_inside(a, b) for a, b in zip(w1, w2)]
        assert RIGHT_HALF_PLANE.segment_inside(np.array([1.0, 2.0]), 1.0 + 1j).tolist() == [True, True]


class TestTypes:
    def test_boundary_point_wraps(self):
        bp = BoundaryPoint(2.0 * math.pi + 1.0)
        assert bp.angle == pytest.approx(1.0)
        assert abs(bp.value) == pytest.approx(1.0, abs=1e-16)
