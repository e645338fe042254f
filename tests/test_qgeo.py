import math

import numpy as np
import pytest

from disciter.errors import InvalidPointError
from disciter.maps import (hyperbolic_automorphism, iterate, koebe_shift,
                           parabolic_automorphism, quadratic_parabolic)
from disciter.qgeo import (A_GRID_DEFAULT, B_MAX_DEFAULT, SLACK, PairPolicy, _search_box,
                           curve_qg_check, discrete_qg_fit)
from disciter.semiflow import make_trajectory


def _orbit(f, m_max=10 ** 4, z=0.0):
    return iterate(f, z, m_max + 1)


class TestDiscrete:
    def test_koebe_exact_geodesic(self):
        cert = discrete_qg_fit(_orbit(koebe_shift()))
        assert cert.verdict == "certified"
        assert (cert.a, cert.b) == (1.0, 0.0)

    def test_two_point_orbit(self):
        cert = discrete_qg_fit(_orbit(koebe_shift(), m_max=1),
                               PairPolicy(m_max=1))
        assert cert.verdict == "certified"
        assert (cert.a, cert.b) == (1.0, 0.0)

    def test_hyperbolic_certified(self):
        cert = discrete_qg_fit(_orbit(hyperbolic_automorphism(2.0)))
        assert cert.verdict == "certified"
        assert cert.a <= 1.1

    def test_hyperbolic_off_axis_certified(self):
        z0 = 0.2 + 0.3j
        cert = discrete_qg_fit(_orbit(hyperbolic_automorphism(2.0), z=z0))
        assert cert.verdict == "certified"

    def test_quad_certified(self):
        cert = discrete_qg_fit(_orbit(quadratic_parabolic()))
        assert cert.verdict == "certified"

    def test_parab_refuted_with_witness(self):
        cert = discrete_qg_fit(_orbit(parabolic_automorphism()))
        assert cert.verdict == "refuted"
        assert cert.witness is not None
        n, m, s, d, ratio = cert.pair_lookup(1, 10 ** 4)
        # sum of steps grows linearly while the distance is logarithmic
        assert s > 4000.0 and d < 15.0
        assert ratio > 20.0

    def test_refutation_names_the_box(self):
        cert = discrete_qg_fit(_orbit(parabolic_automorphism()))
        assert cert.a_box == 10.0 and cert.b_box == 1000.0

    def test_tangentiality_equivalence(self):
        from disciter.slope import slope_report
        from disciter.util import geometric_grid
        grid = geometric_grid(10 ** 4)
        for f in (koebe_shift(), hyperbolic_automorphism(2.0),
                  parabolic_automorphism(), quadratic_parabolic()):
            orbit = _orbit(f)
            cert = discrete_qg_fit(orbit)
            verdict = slope_report(orbit, grid).verdict
            assert (cert.verdict == "certified") == (verdict == "non-tangential"), f.name

    def test_audit_certified(self):
        # soundness resample: the certified inequality on fresh random pairs
        m_max = 10 ** 4
        orbit = _orbit(koebe_shift(), m_max)
        cert = discrete_qg_fit(orbit)
        rng = np.random.default_rng(1)
        ns = rng.integers(0, m_max, size=1000)
        ms = np.minimum(ns + 1 + rng.integers(0, m_max, size=1000), m_max)
        prefix = orbit.steps_prefix(m_max)
        worst = np.max(prefix[ms] - prefix[ns] - cert.a * orbit.pair_dist(ns, ms) - cert.b)
        assert worst <= 1e-6, worst

    def test_triangle_inequality_per_pair(self):
        cert = discrete_qg_fit(_orbit(koebe_shift()))
        for n, m, s, d, _ in cert.pairs:
            assert d <= s + 1e-9

    def test_orbit_too_short_rejected(self):
        with pytest.raises(InvalidPointError):
            discrete_qg_fit(_orbit(koebe_shift(), m_max=10), PairPolicy(m_max=100))


class TestSearchBox:
    @staticmethod
    def _loop(sums, dists, a_grid, b_max, slack):
        # the scan before the needs were computed as one array, kept as the oracle
        for a in a_grid:
            need = float(np.max(sums - a * dists))
            if need <= slack:
                return float(a), 0.0
            b = math.ceil(need - slack)
            if b <= b_max:
                return float(a), float(b)
        return None

    def test_matches_loop(self):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(200):
            dists = rng.exponential(5.0, rng.integers(1, 300))
            a0 = rng.uniform(0.5, 12.0)
            cases.append((a0 * dists + rng.uniform(-3.0, 1500.0) * rng.random(dists.size),
                          dists))
        # need == slack exactly: zero distances make need = max(sums)
        cases.append((np.array([SLACK, 0.0, -1.0]), np.zeros(3)))
        cases.append((np.array([SLACK, 0.5]), np.array([0.0, 0.5])))
        cases.append((np.array([B_MAX_DEFAULT + SLACK, 2.0]), np.array([0.0, 2.0])))
        results = set()
        for sums, dists in cases:
            got = _search_box(sums, dists, A_GRID_DEFAULT, B_MAX_DEFAULT, SLACK)
            want = self._loop(sums, dists, A_GRID_DEFAULT, B_MAX_DEFAULT, SLACK)
            assert got == want
            results.add("refuted" if got is None else "b=0" if got[1] == 0.0 else "b>0")
        assert results == {"refuted", "b=0", "b>0"}


class TestCurve:
    def test_disc_radius_geodesic(self):
        # arc-length parametrization of a radius: certified near (1, 0)
        ts = np.linspace(0.0, math.atanh(0.95), 4000)
        pts = np.tanh(ts)
        cert = curve_qg_check(ts, pts)
        assert cert.verdict == "certified"
        assert cert.a == 1.0 and cert.b <= 1.0

    def test_koebe_trajectory_certified(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        ts = np.arange(0.0, 10 ** 4 + 1.0)
        cert = curve_qg_check(ts, traj.point(ts))
        assert cert.verdict == "certified"
        assert cert.a <= 1.2

    def test_hyp_trajectory_certified(self):
        traj = make_trajectory(hyperbolic_automorphism(2.0), 0.0)
        ts = np.arange(0.0, 50.0, 0.01)
        cert = curve_qg_check(ts, traj.point(ts))
        assert cert.verdict == "certified"

    def test_parab_trajectory_refuted(self):
        traj = make_trajectory(parabolic_automorphism(), 0.0)
        ts = np.arange(0.0, 10 ** 4 + 1.0)
        cert = curve_qg_check(ts, traj.point(ts))
        assert cert.verdict == "refuted"

    def test_non_monotone_parameters_rejected(self):
        with pytest.raises(InvalidPointError):
            curve_qg_check([0.0, 2.0, 1.0], [0.0, 0.1, 0.2])

    def test_single_sample_rejected(self):
        with pytest.raises(InvalidPointError):
            curve_qg_check([0.0], [0.1])
