import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disciter import hypgeo
from disciter.domains import SLIT_PLANE_K
from disciter.errors import InvalidPointError
from disciter.hypgeo import (BoundaryPoint, dist_disk, distance_lemma_bounds,
                             euclid_rate_bracket, julia_check, metric_disk)


# strategy: points comfortably inside the disc
disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


class RightHalfPlane:
    """The right half-plane {Re w > 0} as the duck-typed domain of
    distance_lemma_bounds: a convex domain, so no segment exits it."""

    def contains(self, w):
        return np.real(w) > 0.0

    def boundary_distance(self, w):
        return np.real(w)

    def segment_inside(self, w1, w2):
        return np.ones(np.broadcast_shapes(np.shape(w1), np.shape(w2)), dtype=bool)


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
        exact = float(SLIT_PLANE_K.dist(0.0, 3.0))
        assert lo <= exact + 1e-12
        assert exact <= hi

    def test_halfplane_brackets_exact(self):
        # exact distances from the disc, through the Cayley preimages
        def exact(w1, w2):
            return dist_disk((w1 - 1.0) / (w1 + 1.0), (w2 - 1.0) / (w2 + 1.0))

        lo, hi = distance_lemma_bounds(RightHalfPlane(), 1.0, 1.0 + 1j)
        assert lo <= float(exact(1.0, 1.0 + 1j)) <= hi
        rng = np.random.default_rng(5)
        w1 = rng.uniform(0.1, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
        w2 = rng.uniform(0.1, 3.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
        lo, hi = distance_lemma_bounds(RightHalfPlane(), w1, w2)
        assert np.all(lo <= exact(w1, w2) + 1e-12) and np.all(exact(w1, w2) <= hi)

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
        exact = SLIT_PLANE_K.dist(w1, w2)
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
            exact_k = float(SLIT_PLANE_K.dist(complex(w1[k]), complex(w2[k])))
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


class TestTypes:
    def test_boundary_point_wraps(self):
        bp = BoundaryPoint(2.0 * math.pi + 1.0)
        assert bp.angle == pytest.approx(1.0)
        assert abs(bp.value) == pytest.approx(1.0, abs=1e-16)
