"""Acceptance suite: one named check per criterion, pass/fail plus details.

Each criterion function is deterministic given its seed and returns a
CriterionResult; run_all evaluates all of them (Monte Carlo items dominate the
runtime).  The CLI `accept` subcommand prints one line per criterion and exits
nonzero on any failure; tests/test_acceptance.py asserts them individually.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import domains, harmonic, hypgeo, maps, opnorm, qgeo, rates, semiflow, slope
from .util import geometric_grid, linear_fit, sample_disk

DEFAULT_SEED = 20250810


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"{status} {self.name}: {keys}"


def _zoo():
    return [maps.koebe_shift(), maps.hyperbolic_automorphism(2.0),
            maps.parabolic_automorphism(), maps.quadratic_parabolic()]


def criterion_01_koebe_sharpness(seed=DEFAULT_SEED):
    f = maps.koebe_shift()
    orbit = maps.iterate(f, 0.0, 10 ** 6)
    checks = []
    for n in (1, 10, 10 ** 3, 10 ** 6):
        d = float(orbit.dist_from_start(n))
        checks.append(abs(d - 0.25 * math.log(n + 1.0)))
    grid = geometric_grid(10 ** 6)
    window = (grid >= 10 ** 3)
    fit = linear_fit(np.log(grid[window]), orbit.dist_from_start(grid[window]))
    ok = max(checks) <= 1e-9 and 0.245 <= fit.slope <= 0.255
    return CriterionResult("criterion-01-koebe-sharpness", bool(ok),
                           {"max_identity_error": max(checks), "fit_slope": fit.slope})


def criterion_02_koebe_euclidean_rates(seed=DEFAULT_SEED):
    orbit = maps.iterate(maps.koebe_shift(), 0.0, 10 ** 6)
    n = 10 ** 6
    scaled_mod = float(orbit.one_minus_mod(n)) * math.sqrt(n)
    scaled_gap = float(orbit.dist_to_tau(n)) * math.sqrt(n)
    ok = abs(scaled_mod - 2.0) <= 0.02 and 1.9 <= scaled_gap <= 2.1
    return CriterionResult("criterion-02-koebe-euclidean-rates", bool(ok),
                           {"one_minus_mod_sqrt_n": scaled_mod,
                            "dist_to_tau_sqrt_n": scaled_gap})


def criterion_03_hyperbolic_laws(seed=DEFAULT_SEED):
    f = maps.hyperbolic_automorphism(2.0)
    orbit = maps.iterate(f, 0.0, 10 ** 7)
    tgt = 0.5 * math.log(2.0)
    dev = max(abs(float(orbit.dist_from_start(n)) / n - tgt)
              for n in (1, 10, 10 ** 4, 10 ** 6, 10 ** 7))
    # |f^n(0) - 1| * 2^n, evaluated in logs so the factor never overflows.
    n = 10 ** 4
    scaled = math.exp(n * math.log(2.0) + float(orbit.log_dist_to_tau(n)))
    squeezes = {}
    for p in (1.0, 2.0):
        rep = opnorm.asymptotic_verdicts(f, p, 0.0, n_max=10 ** 4)
        squeezes[p] = rep.squeeze_ok
    ok = dev <= 1e-12 and abs(scaled - 2.0) <= 1e-6 and all(squeezes.values())
    return CriterionResult("criterion-03-hyperbolic-laws", bool(ok),
                           {"d_over_n_dev": dev, "scaled_gap": scaled,
                            "squeeze_p1": squeezes[1.0], "squeeze_p2": squeezes[2.0]})


def criterion_04_positive_parabolic_laws(seed=DEFAULT_SEED):
    f = maps.parabolic_automorphism()
    n_max = 10 ** 5
    orbit = maps.iterate(f, 0.0, n_max + 1)
    grid = geometric_grid(n_max)
    steps = orbit.step(grid)
    step_const = float(np.max(np.abs(steps - steps[0])))
    scaled_gap = n_max * float(orbit.dist_to_tau(n_max))
    rep = slope.slope_report(orbit, grid)
    singleton_at_half_pi = (rep.cluster.singleton
                            and abs(rep.cluster.midpoint - math.pi / 2.0) <= 1e-3)
    ratio = float(orbit.dist_from_start(n_max)) / math.log(n_max)
    ok = (step_const <= 1e-12 and abs(scaled_gap - 2.0) <= 1e-4
          and singleton_at_half_pi and abs(ratio - 1.0) <= 0.02)
    return CriterionResult("criterion-04-positive-parabolic-laws", bool(ok),
                           {"step_constancy": step_const, "n_gap": scaled_gap,
                            "slope_mid": rep.cluster.midpoint, "d_over_logn": ratio})


def criterion_05_quadratic_parabolic(seed=DEFAULT_SEED):
    f = maps.quadratic_parabolic()
    n_max = 10 ** 6
    orbit = maps.iterate(f, 0.0, n_max)
    grid = geometric_grid(n_max - 1)
    # The grid is asked for before f^n_max, which is then one composition past
    # the grid's last point; the other order composes the grid a second time
    # from the checkpoints below it.
    div = rates.divergence_series(orbit, grid, epsilon=1e-9)
    floor = div.floor_holds and math.isfinite(div.fitted_c)
    rep = slope.slope_report(orbit, grid)
    singleton_zero = rep.cluster.singleton and abs(rep.cluster.midpoint) <= 1e-3
    # Independent oracle: e_{k+1} = e_k - e_k^2/2 from e_0 = 1 tracks 1 - f^k(0).
    e = 1.0
    for _ in range(n_max):
        e -= e * e / 2.0
    scaled = n_max * float(orbit.one_minus_mod(n_max))
    oracle_scaled = n_max * e
    ratio = float(orbit.dist_from_start(n_max)) / math.log(n_max)
    ok = (1.9 <= scaled <= 2.1 and abs(scaled - oracle_scaled) <= 1e-3
          and 0.48 <= ratio <= 0.52 and floor and singleton_zero)
    return CriterionResult("criterion-05-quadratic-parabolic", bool(ok),
                           {"n_one_minus_mod": scaled, "oracle": oracle_scaled,
                            "d_over_logn": ratio, "floor_c": div.fitted_c,
                            "slope_mid": rep.cluster.midpoint})


def criterion_06_quasi_geodesic_equivalence(seed=DEFAULT_SEED):
    m_max = 10 ** 4
    cert_k, cert_h, cert_p = (
        qgeo.discrete_qg_fit(maps.iterate(f, 0.0, m_max + 1), m_max)
        for f in (maps.koebe_shift(), maps.hyperbolic_automorphism(2.0),
                  maps.parabolic_automorphism()))
    witness_ratio = cert_p.pair_lookup(1, m_max)[4] if cert_p.verdict == "refuted" else 0.0
    ok = (cert_k.verdict == "certified" and cert_k.a == 1.0 and cert_k.b == 0.0
          and cert_h.verdict == "certified" and cert_h.a <= 1.1
          and cert_p.verdict == "refuted" and witness_ratio > 20.0)
    return CriterionResult("criterion-06-quasi-geodesic-equivalence", bool(ok),
                           {"koebe": f"({cert_k.a},{cert_k.b})",
                            "hyp_a": cert_h.a, "parab": cert_p.verdict,
                            "witness_ratio": witness_ratio})


def _slit_pairs(rng, count):
    """The first `count` pairs (w1, w2) of distinct points of K drawn uniformly
    from [-4, 6] x [-5, 5], in order.

    Candidates are drawn as rows (Re w1, Im w1, Re w2, Im w2): the same
    doubles, in the same order, as one rng.uniform call per coordinate.
    """
    kdom = domains.SLIT_PLANE_K
    w1, w2 = np.empty(0, dtype=complex), np.empty(0, dtype=complex)
    while w1.size < count:
        rows = rng.uniform([-4, -5, -4, -5], [6, 5, 6, 5], size=(count - w1.size, 4))
        c1, c2 = rows.view(complex).T
        keep = kdom.contains(c1) & kdom.contains(c2) & (c1 != c2)
        w1, w2 = np.concatenate([w1, c1[keep]]), np.concatenate([w2, c2[keep]])
    return w1, w2


def criterion_07_property_suites(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    details = {}
    sp_worst = math.inf
    julia_ok = True
    for f in _zoo():
        # The metric factor amplifies evaluation roundoff near the boundary;
        # rmax = 0.95 keeps equality-case noise an order below the 1e-12 pin.
        z = sample_disk(rng, 10 ** 4, rmax=0.95)
        w = sample_disk(rng, 10 ** 4, rmax=0.95)
        slack = hypgeo.dist_disk(z, w) - hypgeo.dist_disk(f(z), f(w))
        sp_worst = min(sp_worst, float(np.min(slack)))
        julia_ok &= bool(np.all(hypgeo.julia_check(f.tau, f.f_prime_tau, z, f(z))))
    details["schwarz_pick_min_slack"] = sp_worst

    zs = sample_disk(rng, 10 ** 3)
    ws = sample_disk(rng, 10 ** 3)
    a = sample_disk(rng, 10 ** 3, rmax=0.9)
    phase = np.exp(2j * math.pi * rng.random(10 ** 3))
    mz = phase * (zs - a) / (1.0 - np.conj(a) * zs)
    mw = phase * (ws - a) / (1.0 - np.conj(a) * ws)
    moebius_dev = float(np.max(np.abs(hypgeo.dist_disk(mz, mw) - hypgeo.dist_disk(zs, ws))))
    details["moebius_dev"] = moebius_dev

    kdom = domains.SLIT_PLANE_K
    w1, w2 = _slit_pairs(rng, 10 ** 3)
    lo, hi = hypgeo.distance_lemma_bounds(kdom, w1, w2)
    exact = kdom.dist(w1, w2)
    worst_low = float(np.max(lo - exact, initial=0.0))
    worst_high = float(np.max(exact - hi, initial=0.0, where=~np.isnan(hi)))
    bracket_ok = worst_low <= 1e-9 and worst_high <= 1e-9
    details["bracket_low_overshoot"] = worst_low
    details["bracket_high_overshoot"] = worst_high

    ok = sp_worst >= -1e-12 and julia_ok and moebius_dev < 1e-12 and bracket_ok
    details["julia_ok"] = julia_ok
    return CriterionResult("criterion-07-property-suites", bool(ok), details)


def criterion_08_internal_tangency(seed=DEFAULT_SEED):
    ks = np.arange(2, 11)
    gaps = np.array([domains.horodisc_tangency_ratio(1.0, 1.0 - 10.0 ** (-k)) - 1.0
                     for k in ks])
    ok = bool(np.all(gaps <= 10.0 * 10.0 ** (-ks)) and np.all(np.diff(gaps) < 0))
    return CriterionResult("criterion-08-internal-tangency", ok,
                           {"max_gap_ratio": float(np.max(gaps * 10.0 ** ks))})


# Criterion 09's walk-on-spheres inputs: the start of the arc estimates, the
# Solynin slit lengths and the Koebe tail grid.
_ARC_START = 0.3 + 0.2j
_SOLYNIN_ELLS = (0.2, 0.35, 0.5, 0.7, 0.9)
_TAIL_GRID = [10, 100, 1000]


def _start_criterion_09(seed):
    """Criterion 09's random draws, in its order, and its walks, started:
    (the 100 (theta1, spread) pairs of the arc-formula check, the 10 arcs,
    the WosBatch of all 18 walk-on-spheres estimates: the 10 arcs, 5 Solynin
    slits and 3 Koebe tails)."""
    rng = np.random.default_rng(seed)
    formula = [(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1e-3, math.pi))
               for _ in range(100)]
    arcs = []
    for _ in range(10):
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        spread = rng.uniform(0.3, math.pi)
        arcs.append((t1, t1 + spread))
    empty = harmonic.SlitDiskDomain([])
    requests = [harmonic.WosRequest(empty, _ARC_START, target="circle", arc=arc,
                                    n_walks=10 ** 5, seed=seed + 7 * k)
                for k, arc in enumerate(arcs)]
    requests += [harmonic.WosRequest(harmonic.SlitDiskDomain([1.0 - ell, 1.0 - 1e-9]), 0.0,
                                     target="slit", n_walks=10 ** 5, seed=seed + 101 + j)
                 for j, ell in enumerate(_SOLYNIN_ELLS)]
    requests += harmonic.tail_hm_requests(maps.koebe_shift(), 0.0, _TAIL_GRID,
                                          n_walks=10 ** 5, seed=seed + 1000)
    return formula, arcs, harmonic.WosBatch(requests)


def criterion_09_harmonic_measure(seed=DEFAULT_SEED, started=None):
    """`started` is _start_criterion_09(seed) when run_all has begun the
    walks already; otherwise they start here."""
    formula, arcs, batch = started or _start_criterion_09(seed)
    details = {}

    with batch:
        worst = 0.0
        for t1, spread in formula:
            value = harmonic.hm_disk_arc(0.0, t1, t1 + spread).value
            wanted = harmonic.arc_measure_from_diameter(harmonic.arc_diameter(t1, t1 + spread)).value
            worst = max(worst, abs(value - wanted))
        details["arc_formula_dev"] = worst
        estimates = batch.collect()

    wos_ok = True
    worst_sigma = 0.0
    for (t1, t2), mc in zip(arcs, estimates[:10]):
        ref = harmonic.hm_disk_arc(_ARC_START, t1, t2).value
        sigma = abs(mc.value - ref) / mc.se if mc.se > 0 else math.inf
        worst_sigma = max(worst_sigma, sigma)
        wos_ok &= sigma <= 3.0
    details["wos_vs_quadrature_max_sigma"] = worst_sigma

    solynin_ok = True
    for ell, mc in zip(_SOLYNIN_ELLS, estimates[10:15]):
        floor = harmonic.arc_measure_from_diameter(ell - 1e-9).value
        solynin_ok &= mc.value >= floor - 3.0 * mc.se
    details["solynin_ok"] = solynin_ok

    tail = harmonic.tail_hm_result(maps.koebe_shift(), 0.0, _TAIL_GRID, estimates[15:])
    details["tail_floor_holds"] = tail.floor_holds
    details["max_omega_sqrt_n"] = tail.max_omega_sqrt_n

    ok = (worst <= 1e-10 and wos_ok and solynin_ok and tail.floor_holds
          and tail.max_omega_sqrt_n <= 5.0)
    return CriterionResult("criterion-09-harmonic-measure", bool(ok), details)


def criterion_10_semiflow(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    models = [(maps.koebe_shift(), 0.0),
              (maps.hyperbolic_automorphism(2.0),
               complex((cmath.exp(1j * math.pi / 4) - 1) / (cmath.exp(1j * math.pi / 4) + 1))),
              (maps.parabolic_automorphism(), 0.0)]
    all_ok = True
    details = {}
    for f, z0 in models:
        traj = semiflow.make_trajectory(f, z0)
        t_hi = traj.horizon
        t_grid = np.arange(0.0, t_hi + 0.25, 0.25)
        pairs = list(zip(rng.uniform(0, t_hi, 64), rng.uniform(0, t_hi, 64)))
        st_pairs = [(rng.uniform(0, t_hi / 2), rng.uniform(0, t_hi / 2))
                    for _ in range(32)]
        res = {
            "embed": semiflow.embed_check(traj, n_max=10 ** 4),
            "invariance": semiflow.invariance_check(traj, t_grid),
            "semigroup": semiflow.semigroup_law_check(traj, st_pairs),
            "lip_hyp": semiflow.lipschitz_hyperbolic_check(traj, pairs),
            "lip_euc": semiflow.lipschitz_euclidean_check(traj, pairs),
        }
        ok_here = all(r.passed for r in res.values())

        n_grid = geometric_grid(10 ** 6)
        orbit = maps.iterate(f, z0, 10 ** 6)
        orb_cluster = slope.cluster_estimate(orbit.slope_angle(n_grid))
        trj_cluster = slope.cluster_estimate(traj.slope_angle(n_grid.astype(float)))
        slope_match = abs(orb_cluster.midpoint - trj_cluster.midpoint) <= 1e-3
        all_ok &= ok_here and slope_match
        details[f.name] = f"checks={ok_here},slope_match={slope_match}"

    koebe_traj = semiflow.make_trajectory(maps.koebe_shift(), 0.0)
    landing = semiflow.landing_rate(koebe_traj, np.geomspace(1.0, 10 ** 6, 200))
    details["koebe_landing_c"] = landing
    all_ok &= landing <= 5.0
    return CriterionResult("criterion-10-semiflow", bool(all_ok), details)


def criterion_11_operator_corollaries(seed=DEFAULT_SEED):
    rep = opnorm.asymptotic_verdicts(maps.koebe_shift(), 2.0, 0.0, n_max=10 ** 6)
    h = rep.hardy_exponent_fit.slope
    b = rep.bergman_exponent_fit.slope
    ok = 0.2375 <= h <= 0.2625 and 0.475 <= b <= 0.525
    return CriterionResult("criterion-11-operator-corollaries", bool(ok),
                           {"hardy_exponent": h, "bergman_exponent": b})


ALL_CRITERIA = [
    criterion_01_koebe_sharpness,
    criterion_02_koebe_euclidean_rates,
    criterion_03_hyperbolic_laws,
    criterion_04_positive_parabolic_laws,
    criterion_05_quadratic_parabolic,
    criterion_06_quasi_geodesic_equivalence,
    criterion_07_property_suites,
    criterion_08_internal_tangency,
    criterion_09_harmonic_measure,
    criterion_10_semiflow,
    criterion_11_operator_corollaries,
]


def run_all(seed=DEFAULT_SEED):
    """Every criterion's result, in ALL_CRITERIA order.

    Criterion 09's walks start first, so where a WosBatch forks its worker
    they run while the other criteria do; criterion 09 then collects them in
    its turn.  If any criterion raises, the worker is killed and reaped
    before the error propagates.
    """
    started = _start_criterion_09(seed)
    with started[2]:
        return [fn(seed, started) if fn is criterion_09_harmonic_measure else fn(seed)
                for fn in ALL_CRITERIA]
