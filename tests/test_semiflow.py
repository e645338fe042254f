import cmath
import dataclasses
import math

import numpy as np
import pytest

from disciter import maps, semiflow
from disciter.domains import slit_riemann_inv
from disciter.errors import InvalidPointError, UnsupportedModelError
from disciter.hypgeo import BoundaryPoint, dist_disk
from disciter.maps import (ModelMap, eval_map, hyperbolic_automorphism, iterate,
                           koebe_shift, parabolic_automorphism,
                           quadratic_parabolic)
from disciter.opnorm import asymptotic_verdicts
from disciter.semiflow import (embed_check, invariance_check, landing_rate,
                               lipschitz_euclidean_check,
                               lipschitz_hyperbolic_check, make_trajectory,
                               semigroup_law_check)

MODELS = [(koebe_shift(), 0.0, 100.0),
          (hyperbolic_automorphism(2.0), 0.12 + 0.07j, 40.0),
          (parabolic_automorphism(), 0.0, 100.0)]


class TestTrajectoryEval:
    def test_time_zero_is_identity(self):
        for f, z0, _ in MODELS:
            traj = make_trajectory(f, z0)
            assert abs(traj.point(0.0) - z0) < 1e-14, f.name

    def test_koebe_time_one_matches_map(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        assert abs(traj.point(1.0) - complex(eval_map(koebe_shift(), 0.0))) < 1e-14

    def test_koebe_time_three(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        assert traj.point(3.0) == pytest.approx(complex(slit_riemann_inv(3.0)), abs=1e-14)
        assert traj.point(3.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_quad_rejected(self):
        with pytest.raises(UnsupportedModelError):
            make_trajectory(quadratic_parabolic(), 0.0)

    def test_negative_time_rejected(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        with pytest.raises(UnsupportedModelError):
            traj.point(-1.0)

    def test_lands_at_tau(self):
        for f, z0, _ in MODELS:
            traj = make_trajectory(f, z0)
            gaps = traj.boundary_gap(np.array([1.0, 10.0, 100.0, 1e4, 1e6]))
            # non-strict at the far end: the scaling-chart gap underflows to 0
            assert np.all(np.diff(gaps) <= 0.0), f.name
            assert gaps[1] < gaps[0]
            assert gaps[-1] < 1e-2


class TestChecks:
    def test_embed_all_models(self):
        for f, z0, _ in MODELS:
            res = embed_check(make_trajectory(f, z0), n_max=10 ** 4)
            assert res.passed, (f.name, res.max_error)

    def test_invariance_all_models(self):
        for f, z0, t_hi in MODELS:
            ts = np.arange(0.0, t_hi + 0.25, 0.25)
            res = invariance_check(make_trajectory(f, z0), ts)
            assert res.passed, (f.name, res.max_error)

    def test_semigroup_law(self):
        rng = np.random.default_rng(12)
        for f, z0, t_hi in MODELS:
            pairs = [(rng.uniform(0, t_hi / 2), rng.uniform(0, t_hi / 2))
                     for _ in range(25)]
            res = semigroup_law_check(make_trajectory(f, z0), pairs)
            assert res.passed, (f.name, res.max_error)

    def test_lipschitz_hyperbolic_koebe_origin(self):
        # delta_K(0) = 1, so the bound constant is exactly 1
        traj = make_trajectory(koebe_shift(), 0.0)
        pairs = [(0.0, 1.0), (0.0, 50.0), (2.0, 2.0), (3.0, 97.0)]
        res = lipschitz_hyperbolic_check(traj, pairs)
        assert res.passed
        assert res.details["bound_constant"] == pytest.approx(1.0)
        # along the real geodesic d = (1/4) log((1+t2)/(1+t1)) <= t2 - t1
        assert res.details["fitted_constant"] <= 1.0

    def test_lipschitz_hyperbolic_parab_unit_constant(self):
        # start 0 maps to i in the chart; delta(i) = 1 in the upper half-plane
        traj = make_trajectory(parabolic_automorphism(), 0.0)
        rng = np.random.default_rng(3)
        pairs = list(zip(rng.uniform(0, 100, 50), rng.uniform(0, 100, 50)))
        res = lipschitz_hyperbolic_check(traj, pairs)
        assert res.passed
        assert res.details["bound_constant"] == pytest.approx(1.0)

    def test_lipschitz_all_models(self):
        rng = np.random.default_rng(4)
        for f, z0, t_hi in MODELS:
            traj = make_trajectory(f, z0)
            pairs = list(zip(rng.uniform(0, t_hi, 60), rng.uniform(0, t_hi, 60)))
            assert lipschitz_hyperbolic_check(traj, pairs).passed, f.name
            assert lipschitz_euclidean_check(traj, pairs).passed, f.name

    def test_euclidean_constant_is_16x(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        res = lipschitz_euclidean_check(traj, [(0.0, 1.0)])
        assert res.details["bound_constant"] == pytest.approx(16.0)


class TestLanding:
    def test_koebe_sqrt_rate(self):
        traj = make_trajectory(koebe_shift(), 0.0)
        c = landing_rate(traj, np.geomspace(1.0, 1e6, 300))
        assert c <= 2.0 + 1e-9  # |phi_t - 1| = 2/(sqrt(1+t)+1) <= 2/sqrt(t)

    def test_all_models_bounded(self):
        for f, z0, _ in MODELS:
            traj = make_trajectory(f, z0)
            c = landing_rate(traj, np.geomspace(1.0, 1e6, 200))
            assert math.isfinite(c) and c < 10.0, f.name


class TestSlopeAgreement:
    def test_trajectory_slope_equals_orbit_slope(self):
        # orbits and trajectories share one chart kernel, so the slope angle
        # and the boundary gap agree bit for bit at t = n
        from disciter.slope import cluster_estimate
        from disciter.util import geometric_grid
        grid = geometric_grid(10 ** 6)
        starts = [(koebe_shift(), 0.1 + 0.2j),
                  (hyperbolic_automorphism(2.0),
                   complex((cmath.exp(0.9j) - 1) / (cmath.exp(0.9j) + 1))),
                  (parabolic_automorphism(), 0.05j)]
        starts += [(f, z0) for f in (koebe_shift(), hyperbolic_automorphism(2.0),
                                     parabolic_automorphism())
                   for z0 in (0.0, 0.3 + 0.2j)]
        for f, z0 in starts:
            orbit = iterate(f, z0, int(grid[-1]))
            traj = make_trajectory(f, z0)
            ts = grid.astype(float)
            assert np.array_equal(traj.slope_angle(ts), orbit.slope_angle(grid)), (f.name, z0)
            assert np.array_equal(traj.boundary_gap(ts), orbit.dist_to_tau(grid)), (f.name, z0)
            mid_orbit = cluster_estimate(orbit.slope_angle(grid)).midpoint
            mid_traj = cluster_estimate(traj.slope_angle(ts)).midpoint
            assert abs(mid_orbit - mid_traj) < 1e-3, f.name


def _written_map(model_type):
    """The parabolic automorphism with a kernel written here from plain disc
    formulas: no chart object, and nothing of the zoo's kernels."""

    def kernel(z0):
        w0 = complex(1j * (1.0 + z0) / (1.0 - z0))

        def point(t):
            w = w0 + np.asarray(t, dtype=float)
            return (w - 1j) / (w + 1j)

        def disc_point(t):
            z = point(t)
            return z, maps.is_boundary_saturated(z)

        return maps._Kernel(
            koenigs=lambda t: w0 + np.asarray(t, dtype=float),
            log_gap=lambda t: np.log(np.abs(point(t) - 1.0)),
            log_one_minus_mod_sq=lambda t: np.log(1.0 - np.abs(point(t)) ** 2),
            slope_angle=lambda t: np.angle(1.0 - point(t)),
            pair_dist=lambda t, s: dist_disk(point(t), point(s)),
            disc_point=disc_point, point=point, horizon=100.0, w0=w0,
            boundary_distance=w0.imag)

    return ModelMap(name="written", variant="written", func=parabolic_automorphism().func,
                    tau=BoundaryPoint(0.0), f_prime_tau=1.0, kernel=kernel,
                    model_type=model_type)


class TestWrittenKernel:
    """Trajectories, checks and verdicts need only a kernel and a declared
    model type, no chart object."""

    def test_trajectory_and_checks(self):
        f = _written_map(maps.POSITIVE_PARABOLIC)
        traj = make_trajectory(f, 0.0)
        assert traj.w0 == 1j
        assert abs(traj.point(1.0) - complex(eval_map(f, 0.0))) < 1e-15
        assert embed_check(traj, n_max=10 ** 3).passed
        rng = np.random.default_rng(5)
        pairs = list(zip(rng.uniform(0, 50, 20), rng.uniform(0, 50, 20)))
        assert semigroup_law_check(traj, pairs).passed
        hyp = lipschitz_hyperbolic_check(traj, pairs)
        assert hyp.passed and hyp.details["bound_constant"] == 1.0
        euc = lipschitz_euclidean_check(traj, pairs)
        assert euc.passed and euc.details["bound_constant"] == 16.0

    def test_verdicts_on_a_written_kernel(self):
        zoo = asymptotic_verdicts(parabolic_automorphism(), 2.0, 0.0)
        written = asymptotic_verdicts(_written_map(maps.POSITIVE_PARABOLIC), 2.0, 0.0)
        assert written.floors_ok and not written.squeeze_ok
        # 1 - |f^n(0)|^2 = 4/(n^2+4): exponent 2/p, as for the zoo's kernel
        assert written.hardy_exponent_fit.slope == pytest.approx(1.0, abs=0.01)
        assert written.hardy_exponent_fit.slope == pytest.approx(
            zoo.hardy_exponent_fit.slope, rel=1e-6)
        # The squeeze is tried only when the map declares HYPERBOLIC.  Here
        # it targets -log f'(tau)/p = 0, and the per-n bounds, about
        # log(n^2/4)/(p n), are within 1e-3 of it at n = 1e4.
        as_hyperbolic = asymptotic_verdicts(_written_map(maps.HYPERBOLIC), 2.0, 0.0)
        assert as_hyperbolic.squeeze_ok and as_hyperbolic.floors_ok

    def test_start_rounded_out_of_the_chart_image_is_refused(self):
        f = _written_map(maps.POSITIVE_PARABOLIC)
        off = dataclasses.replace(
            f, kernel=lambda z0: dataclasses.replace(f.kernel(z0), boundary_distance=0.0))
        with pytest.raises(InvalidPointError, match="outside the chart image"):
            make_trajectory(off, 0.0)
        with pytest.raises(InvalidPointError, match="outside the chart image"):
            iterate(off, 0.0, 10)
