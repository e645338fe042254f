"""One test per acceptance criterion; each prints its pass/fail line.

Monte Carlo criteria dominate the runtime; the whole module is sized to stay
inside a few minutes on a laptop.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from disciter import acceptance, harmonic
from disciter.domains import SLIT_PLANE_K, dist_domain
from disciter.hypgeo import distance_lemma_bounds

# The report lines of run_all at DEFAULT_SEED, recorded before the batched
# criterion 07 and the composition runs of black-box orbits.  Every float is
# printed to its last bit, so a platform whose libm or numpy SIMD loops round
# differently may need them re-recorded from an unchanged tree.
GOLDEN = Path(__file__).with_name("accept_default_seed.txt")


def _run(fn):
    result = fn(acceptance.DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_koebe_sharpness():
    _run(acceptance.criterion_01_koebe_sharpness)


def test_criterion_02_koebe_euclidean_rates():
    _run(acceptance.criterion_02_koebe_euclidean_rates)


def test_criterion_03_hyperbolic_laws():
    _run(acceptance.criterion_03_hyperbolic_laws)


def test_criterion_04_positive_parabolic_laws():
    _run(acceptance.criterion_04_positive_parabolic_laws)


def test_criterion_05_quadratic_parabolic():
    _run(acceptance.criterion_05_quadratic_parabolic)


def test_criterion_06_quasi_geodesic_equivalence():
    _run(acceptance.criterion_06_quasi_geodesic_equivalence)


def test_criterion_07_property_suites():
    _run(acceptance.criterion_07_property_suites)


def test_criterion_08_internal_tangency():
    _run(acceptance.criterion_08_internal_tangency)


def test_criterion_09_harmonic_measure():
    _run(acceptance.criterion_09_harmonic_measure)


def test_criterion_10_semiflow():
    _run(acceptance.criterion_10_semiflow)


def test_criterion_11_operator_corollaries():
    _run(acceptance.criterion_11_operator_corollaries)


def test_report_lines_match_golden():
    lines = [r.line() for r in acceptance.run_all(acceptance.DEFAULT_SEED)]
    assert lines == GOLDEN.read_text().splitlines()


def _forks(monkeypatch):
    """Make os.fork count its calls in the returned list."""
    calls, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real())
    return calls


def test_run_all_lines_equal_on_one_cpu_and_two(monkeypatch):
    # on one CPU criterion 09 walks in its turn; on two its worker starts
    # before criterion 01
    forks = _forks(monkeypatch)
    seed = 20250814
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = [r.line() for r in acceptance.run_all(seed)]
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    two = [r.line() for r in acceptance.run_all(seed)]
    assert forks == [1]
    assert one == two and len(one) == len(acceptance.ALL_CRITERIA)


def test_criterion_error_kills_the_walking_worker(monkeypatch):
    # the worker sleeps in its first chunk, so only a kill ends it in time
    boom, parent, real = RuntimeError("criterion failed"), os.getpid(), harmonic._walk_chunk

    def asleep_in_worker(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return real(*args)

    def failing(seed):
        raise boom

    threads = threading.active_count()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harmonic, "_walk_chunk", asleep_in_worker)
    criteria = list(acceptance.ALL_CRITERIA)
    criteria[4] = failing
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", criteria)
    forks = _forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(RuntimeError) as info:
        acceptance.run_all(acceptance.DEFAULT_SEED)
    assert time.monotonic() - start < 30
    assert info.value is boom and forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def _scalar_bracket_loop(rng):
    """Criterion 07's bracket check as one scalar call per draw and per pair."""
    kdom = SLIT_PLANE_K
    pairs = []
    worst_low, worst_high = 0.0, 0.0
    while len(pairs) < 10 ** 3:
        w1 = complex(rng.uniform(-4, 6), rng.uniform(-5, 5))
        w2 = complex(rng.uniform(-4, 6), rng.uniform(-5, 5))
        if not (kdom.contains(w1) and kdom.contains(w2)) or w1 == w2:
            continue
        pairs.append((w1, w2))
        lo, hi = distance_lemma_bounds(kdom, w1, w2)
        exact = float(dist_domain(kdom, w1, w2))
        worst_low = max(worst_low, lo - exact)
        if hi is not None:
            worst_high = max(worst_high, exact - hi)
    return pairs, worst_low, worst_high


@pytest.mark.parametrize("seed", [20250810, 20250811, 20250900])
def test_criterion_07_matches_scalar_loop(monkeypatch, seed):
    seen, batched = {}, acceptance._slit_pairs

    def recording(rng, count):
        seen["state"] = rng.bit_generator.state
        seen["pairs"] = batched(rng, count)
        return seen["pairs"]

    monkeypatch.setattr(acceptance, "_slit_pairs", recording)
    details = acceptance.criterion_07_property_suites(seed).details
    rng = np.random.default_rng()
    rng.bit_generator.state = seen["state"]
    pairs, worst_low, worst_high = _scalar_bracket_loop(rng)
    w1, w2 = seen["pairs"]
    assert pairs == list(zip(w1.tolist(), w2.tolist()))
    assert repr(details["bracket_low_overshoot"]) == repr(worst_low)
    assert repr(details["bracket_high_overshoot"]) == repr(worst_high)
