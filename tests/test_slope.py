import cmath
import math

import numpy as np
import pytest

from disciter import slope
from disciter.errors import InvalidPointError
from disciter.maps import (hyperbolic_automorphism, iterate, koebe_shift,
                           parabolic_automorphism, quadratic_parabolic)
from disciter.slope import cluster_estimate, slope_report, tangentiality_verdict
from disciter.util import geometric_grid


def _hyp_start(theta):
    w0 = cmath.exp(1j * theta)
    return (w0 - 1.0) / (w0 + 1.0)


class TestSeries:
    def test_real_orbit_zero_angles(self):
        # real starts stay on the real axis, charted or composed
        ns = np.arange(10 ** 4 + 1)
        for f in (koebe_shift(), hyperbolic_automorphism(2.0), quadratic_parabolic()):
            thetas = iterate(f, 0.3, int(ns[-1])).slope_angle(ns)
            assert np.all(thetas == 0.0), f.name

    def test_parab_closed_form(self):
        # orbit n/(n+2i): theta_n = pi/2 - arctan(2/n)
        ns = np.arange(1, 200)
        thetas = iterate(parabolic_automorphism(), 0.0, int(ns[-1])).slope_angle(ns)
        expected = math.pi / 2.0 - np.arctan(2.0 / ns)
        assert np.max(np.abs(thetas - expected)) < 1e-13

    def test_hyperbolic_limit_depends_on_start(self):
        grid = geometric_grid(10 ** 4)
        f = hyperbolic_automorphism(2.0)
        for theta in (-1.0, -0.3, 0.4, 1.2):
            orbit = iterate(f, _hyp_start(theta), int(grid[-1]))
            thetas = orbit.slope_angle(grid)
            assert thetas[-1] == pytest.approx(-theta, abs=1e-9)


class TestCluster:
    def test_constant_series(self):
        c = cluster_estimate(np.full(100, 0.25))
        assert c.singleton and c.stable
        assert c.midpoint == 0.25

    def test_parab_singleton_at_half_pi(self):
        orbit = iterate(parabolic_automorphism(), 0.0, 10 ** 5)
        grid = geometric_grid(10 ** 5)
        c = cluster_estimate(orbit.slope_angle(grid))
        assert c.singleton and c.stable
        assert abs(c.midpoint - math.pi / 2.0) < 1e-3

    def test_koebe_singleton_zero(self):
        orbit = iterate(koebe_shift(), 0.0, 10 ** 5)
        c = cluster_estimate(orbit.slope_angle(geometric_grid(10 ** 5)))
        assert c.singleton and c.midpoint == 0.0

    def test_unstable_series_detected(self):
        # slowly expanding oscillation: nested tails disagree
        n = np.arange(1, 4000)
        series = np.sin(np.log(n)) * (0.5 + 0.4 * np.tanh(n / 500.0))
        c = cluster_estimate(series)
        assert not c.stable
        assert tangentiality_verdict(c) == "inconclusive"

    def test_empty_rejected(self):
        with pytest.raises(InvalidPointError):
            cluster_estimate([])


class TestVerdicts:
    def test_koebe_non_tangential(self):
        orbit = iterate(koebe_shift(), 0.0, 10 ** 5)
        rep = slope_report(orbit, geometric_grid(10 ** 5))
        assert rep.verdict == "non-tangential"

    def test_parab_tangential(self):
        orbit = iterate(parabolic_automorphism(), 0.0, 10 ** 5)
        rep = slope_report(orbit, geometric_grid(10 ** 5))
        assert rep.verdict == "tangential"

    def test_hyp_non_tangential_any_start(self):
        f = hyperbolic_automorphism(2.0)
        for theta in (-1.2, 0.0, 0.9):
            orbit = iterate(f, _hyp_start(theta), 10 ** 4)
            rep = slope_report(orbit, geometric_grid(10 ** 4))
            assert rep.verdict == "non-tangential"


class TestZooInvariants:
    def test_hyperbolic_slopes_fill_interval(self):
        # starts sweeping a vertical line in the chart give pairwise distinct
        # singleton slopes filling (-pi/2, pi/2) with gaps below 0.2
        f = hyperbolic_automorphism(2.0)
        grid = geometric_grid(10 ** 3)
        args = np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 64)
        mids = []
        for a in args:
            w0 = complex(1.0, math.tan(a))  # vertical line Re w = 1
            z0 = (w0 - 1.0) / (w0 + 1.0)
            orbit = iterate(f, z0, int(grid[-1]))
            c = cluster_estimate(orbit.slope_angle(grid))
            assert c.singleton
            mids.append(c.midpoint)
        mids = np.sort(np.asarray(mids))
        assert np.unique(mids).size == 64
        gaps = np.diff(np.concatenate([[-math.pi / 2], mids, [math.pi / 2]]))
        assert float(np.max(gaps)) < 0.2

    def test_zero_parabolic_base_point_independence(self):
        rng = np.random.default_rng(9)
        grid = geometric_grid(10 ** 6)
        for f in (koebe_shift(), quadratic_parabolic()):
            n_max = min(10 ** 6, f.n_cap)
            g = grid[grid <= n_max]
            mids = []
            for _ in range(10):
                z0 = 0.3 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                orbit = iterate(f, z0, int(g[-1]))
                mids.append(cluster_estimate(orbit.slope_angle(g)).midpoint)
            assert max(mids) - min(mids) < 1e-3, f.name
