import cmath
import dataclasses
import math

import numpy as np
import pytest

from disciter import acceptance, cli, maps
from disciter.errors import InvalidPointError, UnsupportedModelError
from disciter.hypgeo import boundary_quotient, dist_disk
from disciter.maps import (CHECKPOINT_SPACING, custom_map, eval_map,
                           hyperbolic_automorphism, iterate, koebe_shift,
                           parabolic_automorphism, quadratic_parabolic,
                           resolve_map)
from disciter.rates import step_series
from disciter.slope import slope_report
from disciter.util import geometric_grid


ZOO = [koebe_shift(), hyperbolic_automorphism(2.0), parabolic_automorphism(),
       quadratic_parabolic()]


class TestEval:
    def test_koebe_at_origin(self):
        assert eval_map(koebe_shift(), 0.0) == pytest.approx(3.0 - 2.0 * math.sqrt(2.0),
                                                             abs=1e-14)

    def test_quad_at_origin(self):
        assert eval_map(quadratic_parabolic(), 0.0) == 0.5

    def test_hyp_at_origin(self):
        assert eval_map(hyperbolic_automorphism(2.0), 0.0) == pytest.approx(1.0 / 3.0)

    def test_self_map_property(self):
        rng = np.random.default_rng(0)
        z = 0.999 * np.sqrt(rng.random(10 ** 4)) * np.exp(2j * np.pi * rng.random(10 ** 4))
        for f in ZOO:
            assert np.all(np.abs(f(z)) < 1.0), f.name

    def test_radial_limit_heads_to_tau(self):
        for f in ZOO:
            gaps = [abs(complex(eval_map(f, (1.0 - 10.0 ** -k) * f.tau.value)) - f.tau.value)
                    for k in range(2, 8)]
            assert all(a > b for a, b in zip(gaps, gaps[1:])), f.name

    def test_chart_semiconjugacy(self):
        # h(f(z)) = h(z) + 1 on a 1e4-point grid away from the boundary
        r = np.linspace(0.0, 0.9, 100)
        th = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        z = (r[:, None] * np.exp(1j * th[None, :])).ravel()
        for f in ZOO:
            if not f.charted:
                continue
            h = f.chart.forward
            gap = np.max(np.abs(h(f(z)) - h(z) - 1.0))
            assert gap < 1e-12, f.name

    def test_eval_matches_chart_route(self):
        for f in ZOO:
            if not f.charted:
                continue
            z = 0.3 - 0.2j
            via_chart = complex(f.chart.inverse(f.chart.forward(z) + 1.0))
            assert abs(complex(eval_map(f, z)) - via_chart) < 1e-12

    def test_quad_is_even(self):
        rng = np.random.default_rng(1)
        z = 0.9 * (rng.random(100) - 0.5 + 1j * (rng.random(100) - 0.5))
        f = quadratic_parabolic()
        assert np.all(f(z) == f(-z))

    def test_quad_has_no_interior_fixed_point(self):
        # z^2 - 2z + 1 has only the double root 1
        roots = np.roots([1.0, -2.0, 1.0])
        assert np.allclose(roots, 1.0)

    def test_registry(self):
        assert resolve_map("hyp:3").f_prime_tau == 1.0 / 3.0
        assert resolve_map("koebe").variant == "koebe"
        with pytest.raises(UnsupportedModelError):
            resolve_map("julia")


class TestIterate:
    def test_zero_iterations(self):
        for f in ZOO:
            orbit = iterate(f, 0.1 + 0.2j, 10)
            z0, sat = orbit.disc_point(0)
            assert z0 == 0.1 + 0.2j and not sat

    def test_koebe_real_axis_closed_form(self):
        orbit = iterate(koebe_shift(), 0.0, 10 ** 6)
        for n in (1, 7, 10 ** 3, 10 ** 6):
            expected = (math.sqrt(n + 1.0) - 1.0) / (math.sqrt(n + 1.0) + 1.0)
            z, sat = orbit.disc_point(n)
            assert not sat
            assert z == pytest.approx(expected, rel=1e-13)

    def test_hyp_closed_form(self):
        orbit = iterate(hyperbolic_automorphism(2.0), 0.0, 100)
        z, _ = orbit.disc_point(10)
        assert z == pytest.approx((2.0 ** 10 - 1.0) / (2.0 ** 10 + 1.0), rel=1e-14)

    def test_direct_composition_cross_check(self):
        # charted orbits against plain repeated evaluation for small n
        for f in ZOO:
            z = 0.1 + 0.05j
            orbit = iterate(f, z, 128)
            w = z
            for n in range(1, 129):
                w = complex(eval_map(f, w))
                if n in (1, 2, 17, 128):
                    z_orb, _ = orbit.disc_point(n)
                    assert abs(z_orb - w) < 1e-10, (f.name, n)

    def test_hyp_saturation_flagged_not_clipped(self):
        orbit = iterate(hyperbolic_automorphism(2.0), 0.0, 10 ** 6)
        _, sat = orbit.disc_point(10 ** 4)
        assert sat
        # exact hyperbolic data still available in log space
        assert orbit.dist_from_start(10 ** 4) == pytest.approx(
            10 ** 4 / 2.0 * math.log(2.0), rel=1e-14)
        assert orbit.log_dist_to_tau(10 ** 4) == pytest.approx(
            math.log(2.0) - 10 ** 4 * math.log(2.0), rel=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(InvalidPointError):
            iterate(quadratic_parabolic(), 0.0, 10 ** 6 + 1)
        with pytest.raises(InvalidPointError):
            iterate(koebe_shift(), 0.0, 10 ** 7 + 1)

    def test_step_monotone_non_increasing(self):
        grid = geometric_grid(10 ** 4)
        for f in ZOO:
            orbit = iterate(f, 0.05, 10 ** 4 + 1)
            steps = orbit.step(grid)
            assert np.all(np.diff(steps) <= 1e-12), f.name

    def test_julia_quotient_along_orbits(self):
        # u(n+1) <= f'(tau) u(n) at every grid step, via the log quotient
        grid = geometric_grid(10 ** 4)
        for f in ZOO:
            orbit = iterate(f, 0.1 + 0.1j, 10 ** 4 + 1)
            lq = orbit.log_julia_quotient(grid)
            assert np.all(lq <= math.log(f.f_prime_tau) + 1e-9), f.name

    def test_blackbox_pair_dist_matches_disk(self):
        orbit = iterate(quadratic_parabolic(), 0.2, 50)
        z3, _ = orbit.disc_point(3)
        z17, _ = orbit.disc_point(17)
        assert orbit.pair_dist(3, 17) == pytest.approx(float(dist_disk(z3, z17)), rel=1e-14)

    def test_boundary_quotient_consistency(self):
        # chart-space u agrees with the direct boundary quotient
        orbit = iterate(koebe_shift(), 0.3j, 100)
        z, _ = orbit.disc_point(5)
        direct = float(boundary_quotient(1.0, z))
        via_logs = math.exp(2.0 * orbit.log_dist_to_tau(5) - orbit.log_one_minus_mod_sq(5))
        assert via_logs == pytest.approx(direct, rel=1e-10)

    def test_steps_prefix_telescopes(self):
        orbit = iterate(koebe_shift(), 0.0, 200)
        prefix = orbit.steps_prefix(100)
        assert prefix[0] == 0.0
        assert prefix[100] == pytest.approx(float(orbit.dist_from_start(100)), abs=1e-12)

    def test_hyp_equal_gaps_evaluated_once(self, monkeypatch):
        # steps on a hyperbolic orbit share one gap: one _ray_dist point, and
        # the same bits as evaluating every gap
        real, points = maps._ray_dist, []

        def counting(L, theta):
            points.append(np.size(L))
            return real(L, theta)

        n = np.arange(10 ** 4)
        for lam, z in ((2.0, 0.0), (1.5, 0.3 + 0.2j), (7.0, 0.9 - 0.1j)):
            orbit = iterate(hyperbolic_automorphism(lam), z, 10 ** 4 + 1)
            theta = cmath.phase((1 + orbit.z0) / (1 - orbit.z0))
            want = real(np.full(n.shape, math.log(lam)), theta)
            monkeypatch.setattr(maps, "_ray_dist", counting)
            points.clear()
            got, prefix = orbit.step(n), orbit.steps_prefix(10 ** 4)
            assert points == [1, 1]
            monkeypatch.setattr(maps, "_ray_dist", real)
            assert got.shape == n.shape and np.array_equal(got, want)
            assert np.array_equal(prefix[1:], np.cumsum(want))
            assert orbit.pair_dist(np.array([0, 3]), np.array([5, 4])).tolist() == [
                real(5 * math.log(lam), theta), real(math.log(lam), theta)]


def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(np.int64)


class TestBlackBoxEngine:
    def test_request_orders_match_plain_loop(self):
        f, n_max, K = quadratic_parabolic(), 10 ** 5, CHECKPOINT_SPACING
        ref = [0j]
        w = 0j
        for _ in range(n_max):
            w = f.func(w)
            ref.append(w)
        ref = np.array(ref)
        rng = np.random.default_rng(3)
        ascending = np.unique(rng.integers(0, n_max + 1, 300))
        orders = {
            "ascending": ascending,
            "descending": ascending[::-1],
            "shuffled": rng.permutation(ascending),
            "repeated": np.array([5, 5, 5000, 5, 5000, 5000]),
            "straddling": np.array([K - 1, K, K + 1, 3 * K - 1, 3 * K, 3 * K + 1]),
            "n_max": np.array([n_max]),
        }
        shared = iterate(f, 0.0, n_max)
        for name, ks in orders.items():
            for orbit in (iterate(f, 0.0, n_max), shared):
                z, _ = orbit.disc_point(ks)
                assert np.array_equal(_bits(z), _bits(ref[ks])), name
                z_last, _ = orbit.disc_point(int(ks[-1]))
                assert np.array_equal(_bits(z_last), _bits(ref[ks[-1]])), name

    def test_criterion_05_pattern_composes_once(self):
        # one_minus_mod(n) and then the grid below n, as criterion 05 asks;
        # a second pass from f^0 would make it 2n
        base, n = quadratic_parabolic(), 10 ** 6
        calls = [0]

        def counted(z):
            calls[0] += 1
            return base.func(z)

        orbit = iterate(dataclasses.replace(base, func=counted), 0.0, n)
        orbit.one_minus_mod(n)
        orbit.disc_point(geometric_grid(n - 1))
        assert calls[0] <= 1.05 * n

    def test_criterion_05_composes_each_index_once(self, monkeypatch):
        # criterion 05 as it runs: its repeated grids are served, not composed again
        base, calls = quadratic_parabolic(), [0]

        def counted(z):
            calls[0] += 1
            return base.func(z)

        monkeypatch.setattr(maps, "quadratic_parabolic",
                            lambda: dataclasses.replace(base, func=counted))
        assert acceptance.criterion_05_quadratic_parabolic().passed
        assert calls[0] <= 1.001 * 10 ** 6

    def test_served_points_bounded(self):
        n = 10 ** 4
        orbit = iterate(quadratic_parabolic(), 0.0, n)
        first, _ = orbit.disc_point(np.arange(n + 1))
        again, _ = orbit.disc_point(np.arange(n + 1)[::-1])
        assert len(orbit._served) == maps.SERVED_MAX < n
        assert np.array_equal(_bits(first[::-1].copy()), _bits(again))

    def test_leaving_the_disc_raises_with_index(self):
        outward = custom_map(lambda z: z + 0.5)
        with pytest.raises(InvalidPointError, match=r"f\^3\(z0\)"):
            iterate(outward, 0.0, 10).disc_point(np.arange(11))
        # the checkpoint at K is checked before the requested index 2K - 1
        with pytest.raises(InvalidPointError, match=rf"f\^{CHECKPOINT_SPACING}\(z0\)"):
            iterate(outward, 0.0, 2 * CHECKPOINT_SPACING).disc_point(2 * CHECKPOINT_SPACING - 1)
        with pytest.raises(InvalidPointError, match=r"f\^1\(z0\)"):
            iterate(custom_map(lambda z: z * math.nan), 0.1, 10).disc_point(1)

    def test_saturating_mobius_flagged_not_raised(self):
        # hyperbolic disc automorphisms fixing +-1 round onto |z| = 1 exactly
        grid = geometric_grid(10 ** 5)
        for a in (0.5, 0.75):
            f = custom_map(lambda z, a=a: (z + a) / (1.0 + a * z))
            for z0 in (0.0, 0.5j, -0.3 + 0.4j):
                z, sat = iterate(f, z0, 10 ** 5).disc_point(grid)
                assert sat[-1] and np.all(np.abs(z) <= 1.0), (a, z0)


def _inferred_type(f, z0, n_max):
    """The type trichotomy read from one orbit: Julia-quotient limit f'(tau),
    then the step tag; also returns the step tag, f'(tau) and slope verdict."""
    orbit = iterate(f, z0, n_max + 1)
    grid = geometric_grid(n_max)
    tag = step_series(orbit, grid).tag
    fprime = float(np.median(np.exp(orbit.log_julia_quotient(grid))[-5:]))
    verdict = slope_report(orbit, grid).verdict
    if fprime < 1.0 - 1e-3:
        kind = maps.HYPERBOLIC
    elif tag == "zero-step":
        kind = maps.ZERO_PARABOLIC
    else:
        kind = maps.POSITIVE_PARABOLIC
    return kind, tag, fprime, verdict


class TestClassify:
    def test_koebe(self):
        kind, tag, fprime, verdict = _inferred_type(koebe_shift(), 0.0, 10 ** 5)
        assert kind == koebe_shift().chart.declared_type == "zero-parabolic"
        assert tag == "zero-step"
        assert abs(fprime - 1.0) < 1e-2
        assert verdict == "non-tangential"

    def test_parab_aut(self):
        kind, _, _, verdict = _inferred_type(parabolic_automorphism(), 0.0, 10 ** 5)
        assert kind == parabolic_automorphism().chart.declared_type == "positive-parabolic"
        assert verdict == "tangential"

    def test_hyp(self):
        f = hyperbolic_automorphism(2.0)
        kind, _, fprime, _ = _inferred_type(f, 0.0, 10 ** 5)
        assert kind == f.chart.declared_type == "hyperbolic"
        assert fprime == pytest.approx(0.5, abs=1e-6)

    def test_quad(self):
        kind, _, _, verdict = _inferred_type(quadratic_parabolic(), 0.0, 10 ** 5)
        assert kind == "zero-parabolic"
        assert verdict == "non-tangential"

    def test_base_point_independence(self):
        rng = np.random.default_rng(4)
        for f in ZOO:
            types = set()
            for _ in range(10):
                z0 = 0.5 * (rng.random() - 0.5 + 1j * (rng.random() - 0.5))
                types.add(_inferred_type(f, z0, 10 ** 4)[0])
            assert len(types) == 1, f.name


class TestDenjoyWolff:
    def test_all_models_converge_to_declared_tau(self):
        grid = geometric_grid(10 ** 6)
        for f in ZOO:
            gaps = iterate(f, 0.1 + 0.05j, 10 ** 6).dist_to_tau(grid)
            # non-strict: the scaling-chart gap underflows to 0
            assert np.all(np.diff(gaps[-20:]) <= 0.0), f.name
            assert gaps[-1] < 1e-2, f.name


def _plain_orbit(f, z0, n):
    """f^0(z0), ..., f^n(z0) by n calls of f, the oracle for the black-box engine."""
    out = [complex(z0)]
    w = z0
    for _ in range(n):
        w = f(w)
        out.append(w)
    return np.array(out)


class TestRuns:
    def test_quad_run_matches_per_step_calls(self):
        f, n = quadratic_parabolic(), 10 ** 5
        assert callable(getattr(f.func, "run", None))
        rng = np.random.default_rng(0)  # the blackbox benchmark's starts at seed 0
        starts = [0.0, 0.3 + 0.2j] + [
            complex(0.9 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))
            for _ in range(8)]
        pick = np.random.default_rng(1)
        for z0 in starts:
            ref = _plain_orbit(f.func, z0, n)
            ks = np.unique(np.concatenate([geometric_grid(n), pick.integers(0, n + 1, 200)]))
            z, _ = iterate(f, z0, n).disc_point(ks)
            assert np.array_equal(_bits(z), _bits(ref[ks])), z0
            if z0 == 0.0:
                dense, _ = iterate(f, z0, n).disc_point(np.arange(n + 1))
                assert np.array_equal(_bits(dense), _bits(ref))

    @pytest.mark.parametrize("z0", [0.0, -0.5, complex(0.3, -0.0), 0.1j])
    @pytest.mark.parametrize("count", [0, 1, 2, 10 ** 5])
    def test_quad_run_on_real_starts_matches_the_complex_loop(self, z0, count):
        # real starts run in floats; every bit must be the complex loop's,
        # including the sign of a zero imaginary part
        z = complex(z0)
        for _ in range(count):
            z = (1.0 + z * z) / 2.0
        got = quadratic_parabolic().func.run(z0, count)
        assert type(got) is complex
        assert _bits(np.array([got])).tolist() == _bits(np.array([z])).tolist()

    def test_counting_wrapper_is_called_once_per_step(self):
        base, n, calls = quadratic_parabolic(), 5000, [0]

        def counted(z):
            calls[0] += 1
            return base.func(z)

        z, _ = iterate(dataclasses.replace(base, func=counted), 0.1j, n).disc_point(n)
        assert calls[0] == n
        assert np.array_equal(_bits(z), _bits(iterate(base, 0.1j, n).disc_point(n)[0]))

    def test_run_that_divides_by_zero_names_the_index(self):
        runs = [0]

        def f(z):
            return z + 0.125 * ((0.5 - z) / (0.5 - z))  # z + 1/8 until z = 1/2

        def run(z, count):
            runs[0] += 1
            for _ in range(count):
                z = f(z)
            return z

        f.run = run
        with pytest.raises(InvalidPointError, match=r"f\^5\(z0\) cannot be evaluated"):
            iterate(custom_map(f), 0.0, 10).disc_point(10)
        assert runs[0] == 1

    @pytest.mark.parametrize("sub, grid", [("rate", 10 ** 5), ("slope", 10 ** 5),
                                           ("orbit", 10 ** 5), ("qg", None)])
    def test_cli_composes_each_needed_point_once(self, tmp_path, monkeypatch, sub, grid):
        base, calls = quadratic_parabolic(), [0]

        def counted(z):
            calls[0] += 1
            return base.func(z)

        monkeypatch.setattr(maps, "quadratic_parabolic",
                            lambda: dataclasses.replace(base, func=counted))
        cfg = tmp_path / "quad.ini"
        cfg.write_text("[map]\nname = quad\n"
                       + (f"[grid]\nn_max = {grid}\n" if grid else "[qg]\nm_max = 10000\n"))
        assert cli.main([sub, "--config", str(cfg), "--out", str(tmp_path),
                         "--format", "json"]) == 0
        needed = grid or 10 ** 4  # the highest index the job reads
        assert needed <= calls[0] <= 1.001 * needed
