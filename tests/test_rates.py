import math

import numpy as np
import pytest

from disciter import maps, rates
from disciter.errors import InvalidPointError
from disciter.maps import (hyperbolic_automorphism, iterate, koebe_shift,
                           parabolic_automorphism, quadratic_parabolic)
from disciter.util import geometric_grid

GRID = geometric_grid(10 ** 5)


class TestDivergence:
    def test_koebe_exact_series(self):
        res = rates.divergence_series(iterate(koebe_shift(), 0.0, GRID[-1]), GRID)
        expected = 0.25 * np.log(GRID + 1.0)
        assert np.max(np.abs(res.d - expected)) < 1e-12
        assert res.floor_holds and math.isfinite(res.fitted_c)

    def test_koebe_limit_quarter(self):
        res = rates.divergence_series(iterate(koebe_shift(), 0.0, 10 ** 6),
                                      geometric_grid(10 ** 6))
        assert res.fit_d_vs_logn.slope == pytest.approx(0.25, abs=5e-3)

    def test_koebe_pointwise_ratio_sharp(self):
        # |d(n)/log n - 1/4| < 0.005 across the whole window [1e3, 1e6]
        ns = np.unique(np.geomspace(10 ** 3, 10 ** 6, 200).astype(np.int64))
        orbit = iterate(koebe_shift(), 0.0, int(ns[-1]))
        ratio = orbit.dist_from_start(ns) / np.log(ns)
        assert float(np.max(np.abs(ratio - 0.25))) < 0.005

    def test_floor_holds_for_every_model(self):
        # the log floor with a finite fitted constant, every grid point n >= 10
        grid = geometric_grid(10 ** 5)
        grid = grid[grid >= 10]
        for f in (koebe_shift(), hyperbolic_automorphism(2.0),
                  parabolic_automorphism(), quadratic_parabolic()):
            res = rates.divergence_series(iterate(f, 0.1, grid[-1]), grid, epsilon=1e-6)
            assert res.floor_holds and math.isfinite(res.fitted_c), f.name

    def test_hyp_linear_series(self):
        res = rates.divergence_series(iterate(hyperbolic_automorphism(2.0), 0.0, GRID[-1]),
                                      GRID)
        expected = GRID * math.log(2.0) / 2.0
        assert np.max(np.abs(res.d - expected)) < 1e-9

    def test_zero_at_origin_index(self):
        grid = np.array([0, 1, 2, 4, 8, 16, 1000])
        res = rates.divergence_series(iterate(koebe_shift(), 0.0, 1000), grid)
        assert res.d[0] == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidPointError):
            rates.divergence_series(iterate(koebe_shift(), 0.0, 10), [])

    def test_non_monotone_grid_rejected(self):
        with pytest.raises(InvalidPointError):
            rates.divergence_series(iterate(koebe_shift(), 0.0, 10), [5, 3])


class TestEuclidean:
    def test_koebe_closed_forms(self):
        res = rates.euclidean_series(iterate(koebe_shift(), 0.0, GRID[-1]), GRID,
                                     non_tangential=True)
        expect_omm = 2.0 / (np.sqrt(GRID + 1.0) + 1.0)
        assert np.max(np.abs(res.one_minus_mod - expect_omm)) < 1e-14
        # sqrt(n) |f^n(0) - 1| -> 2
        scaled = res.dist_to_tau * np.sqrt(GRID.astype(float))
        assert scaled[-1] == pytest.approx(2.0, rel=0.01)
        assert res.exponent_ok  # fitted exponent <= -1/2 + tol

    def test_parab_rate(self):
        res = rates.euclidean_series(iterate(parabolic_automorphism(), 0.0, GRID[-1]), GRID)
        # f^n(0) = n/(n + 2i): |f^n(0) - 1| = 2/sqrt(n^2 + 4)
        n = GRID[-1]
        assert res.dist_to_tau[-1] == pytest.approx(2.0 / math.hypot(n, 2.0), rel=1e-12)
        assert res.exponent_ok

    def test_hyp_geometric_rate(self):
        res = rates.euclidean_series(iterate(hyperbolic_automorphism(2.0), 0.0, 50),
                                     geometric_grid(50), non_tangential=True)
        n = 50
        assert res.dist_to_tau[-1] == pytest.approx(2.0 / (2.0 ** n + 1.0), rel=1e-12)


class TestArosioBracci:
    def test_hyp(self):
        res = rates.arosio_bracci_limit(iterate(hyperbolic_automorphism(2.0), 0.0, 10 ** 4))
        assert res.target == pytest.approx(math.log(2.0) / 2.0)
        assert res.verdict and res.estimate == pytest.approx(res.target, rel=1e-12)

    def test_koebe_and_parab_tend_to_zero(self):
        for f in (koebe_shift(), parabolic_automorphism()):
            res = rates.arosio_bracci_limit(iterate(f, 0.0, 10 ** 6), n_max=10 ** 6)
            assert res.target == 0.0
            assert res.verdict, f.name


class TestLowerBound:
    def test_hyp_envelope(self):
        res = rates.lower_bound_check(iterate(hyperbolic_automorphism(2.0), 0.0, 10 ** 4), 0.9)
        assert res.verdict and res.c0 > 0.0
        assert res.tail_bounded_away

    def test_parabolic_trivial(self):
        res = rates.lower_bound_check(iterate(parabolic_automorphism(), 0.0, 10 ** 4), 0.5)
        assert res.verdict

    def test_n1_sanity(self):
        # c0 is a min over the grid, so c0 <= |f(z) - tau| / (eps f'(tau))
        f = koebe_shift()
        res = rates.lower_bound_check(iterate(f, 0.0, 10 ** 4), 0.5)
        first = abs(complex(maps.eval_map(f, 0.0)) - 1.0) / 0.5
        assert res.c0 <= first + 1e-12

    def test_epsilon_validated(self):
        with pytest.raises(InvalidPointError):
            rates.lower_bound_check(iterate(koebe_shift(), 0.0, 10 ** 4), 1.5)


class TestSteps:
    def test_parab_constant(self):
        res = rates.step_series(iterate(parabolic_automorphism(), 0.0, GRID[-1] + 1), GRID)
        assert np.all(res.steps == res.steps[0])
        assert res.tag == "positive-step"

    def test_koebe_telescoping(self):
        res = rates.step_series(iterate(koebe_shift(), 0.0, GRID[-1] + 1), GRID)
        expected = 0.25 * np.log((GRID + 2.0) / (GRID + 1.0))
        assert np.max(np.abs(res.steps - expected)) < 1e-14
        assert res.tag == "zero-step"
        assert res.non_increasing

    def test_hyp_constant(self):
        res = rates.step_series(iterate(hyperbolic_automorphism(2.0), 0.0, GRID[-1] + 1), GRID)
        assert np.all(res.steps == pytest.approx(math.log(2.0) / 2.0, rel=1e-14))


class TestConsistencyAndReport:
    def test_euclid_bracket(self):
        for f in (koebe_shift(), parabolic_automorphism(), quadratic_parabolic()):
            orbit = iterate(f, 0.25 + 0.1j, int(GRID[-1]))
            assert rates.euclid_consistency(orbit, GRID), f.name

    def test_quad_oracle_agreement(self):
        # independent recurrence for the boundary gap of the quadratic map
        n = 10 ** 5
        e = 1.0
        for _ in range(n):
            e -= e * e / 2.0
        orbit = iterate(quadratic_parabolic(), 0.0, n)
        assert n * float(orbit.one_minus_mod(n)) == pytest.approx(n * e, abs=1e-4)
        assert n * e == pytest.approx(2.0, abs=0.05)

    def test_report_assembles(self):
        rep = rates.rate_report(koebe_shift(), 0.0, geometric_grid(10 ** 4))
        header, cols = rep.csv_columns()
        assert header == ["n", "d", "one_minus_mod", "dist_to_tau", "step"]
        assert len(cols[0]) == len(cols[1])
        d = rep.to_dict()
        assert d["schema"].startswith("disciter/")
        assert d["extras"]["euclid_bracket_consistent"]

    def test_d_series_nondecreasing_after_burn_in(self):
        for f in (koebe_shift(), hyperbolic_automorphism(2.0),
                  parabolic_automorphism(), quadratic_parabolic()):
            res = rates.divergence_series(iterate(f, 0.1, 10 ** 4), geometric_grid(10 ** 4))
            good = res.d[res.available]
            assert np.all(np.diff(good[1:]) >= -1e-12), f.name

    def test_blackbox_saturation_marks_unavailable(self):
        # a geometric-rate Moebius map as a black box: the materialized orbit
        # saturates doubles near n ~ 50 and those grid points drop out
        geom = maps.custom_map(lambda z: (3.0 * z + 1.0) / (3.0 + z),
                               f_prime_tau=0.5, name="geom-bb")
        ns = geometric_grid(10 ** 3)
        orbit = iterate(geom, 0.0, 10 ** 3)
        res = rates.divergence_series(orbit, ns)
        assert not np.all(res.available)
        assert np.all(np.isnan(res.d[~res.available]))
        assert res.available[0]  # early points survive
        assert math.isfinite(res.fitted_c)
        # the orbit decides which points are exact: the unsaturated ones for
        # a black box, every index for a charted orbit
        assert np.array_equal(orbit.available(ns), ~orbit.disc_point(ns)[1])
        assert np.all(iterate(hyperbolic_automorphism(2.0), 0.0, 10 ** 3).available(ns))
