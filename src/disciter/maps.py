"""Model zoo of non-elliptic self-maps of the disc, with exact linearizing charts.

Variants
--------
HyperbolicAut(lam)   w -> lam*w in the right half-plane; attracting boundary
                     point 1, angular derivative 1/lam.  Chart
                     h(z) = log((1+z)/(1-z)) / log(lam), image the horizontal
                     strip |Im w| < pi/(2 log lam).
ParabolicAut         w -> w + 1 on the upper half-plane; h is the upper Cayley
                     map i(1+z)/(1-z) itself, image Im w > 0 (positive
                     hyperbolic step: orbits approach tangentially).
KoebeShift           f = g^{-1}(g + 1) for the slit-plane map g; h = g, image
                     K = C \\ (-inf, -1] (zero hyperbolic step, orbits real
                     from real starts, hence non-tangential).
QuadraticParabolic   f(z) = (1 + z^2)/2, non-univalent (f(z) = f(-z)), no
                     closed-form chart; the designated black-box stress case.
                     Its asymptotics are certified externally by the
                     independent recurrence e_{n+1} = e_n - e_n^2/2.
Custom               user evaluation rule, iterated as a black box.

Each charted zoo member owns one kernel per start z0 (see _Kernel): the
closed forms of its semiflow phi_t(z0) = h^{-1}(h(z0) + t) as functions of
real t (Koenigs coordinate, log boundary gap, log(1 - |z|^2), slope angle,
pair distances, disc point with a saturation flag, the disc point by the
inverse chart), and what needs no t: the chart coordinate h(z0) and the
boundary distance of the chart image there.  A kernel and the map's declared
model type are all that orbits and trajectories read, so a model without a
closed-form chart plugs in by writing a kernel.  An orbit is its kernel at
integer t, and a semiflow.Trajectory is the same kernel at real t, so the two
agree bit for bit at integer times; both refuse a start whose chart
coordinate has rounded out of the chart image.  The scaling kernel keeps
log-scale data so rates stay exact at iteration counts where materialized
doubles would saturate.  Disc materialization flags points indistinguishable
from the boundary instead of silently clipping.  Maps without a kernel (quad,
custom) iterate by direct composition, each point composed at most once into
one store of checkpoints and requested indices (_BlackBoxOrbit).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPointError, UnsupportedModelError
from . import domains
from .hypgeo import BoundaryPoint, dist_disk, require_in_disk
from .util import SATURATION_EPS

N_CAP_CHARTED = 10 ** 7
N_CAP_BLACKBOX = 10 ** 6
# Black-box orbits keep f^(jK)(z0) every K steps (see _BlackBoxOrbit).
CHECKPOINT_SPACING = 1024
# How far outside the closed disc rounding may leave a black-box point.
OUT_OF_DISC_MARGIN = 1e-9

HYPERBOLIC = "hyperbolic"
POSITIVE_PARABOLIC = "positive-parabolic"
ZERO_PARABOLIC = "zero-parabolic"


@dataclass(frozen=True)
class ModelMap:
    name: str
    # hyp-aut | parab-aut | koebe | quad | custom; read only by
    # bench/tracing.py's is_blackbox.
    variant: str
    func: callable
    tau: BoundaryPoint
    f_prime_tau: float
    # z0 -> the model's chart kernel; None for maps iterated by composition.
    # Every model with a kernel is univalent with a chart image starlike at
    # infinity, which is what semiflow.make_trajectory needs.
    kernel: callable = None
    non_tangential: bool = False  # do orbits converge non-tangentially?
    # HYPERBOLIC, POSITIVE_PARABOLIC or ZERO_PARABOLIC where declared.
    model_type: str = None

    @property
    def chart(self):  # read only by bench/tracing.py's is_blackbox
        return self.kernel

    @property
    def n_cap(self):
        return N_CAP_BLACKBOX if self.kernel is None else N_CAP_CHARTED

    def __call__(self, z):
        return self.func(z)


# ---------------------------------------------------------------------------
# Chart-space closed forms (exact where doubles allow)
# ---------------------------------------------------------------------------

def _cayley_right(z):
    return (1.0 + z) / (1.0 - z)


def _cayley_right_inv(w):
    return (w - 1.0) / (w + 1.0)


def _cayley_upper(z):
    return 1j * (1.0 + z) / (1.0 - z)


def _cayley_upper_inv(w):
    return (w - 1j) / (w + 1j)


def _unwrap(x):
    return x if np.ndim(x) else float(x)


def _log_one_minus_mod(q):
    """log(1 - |z|) from q = log(1 - |z|^2), using |z| = sqrt(1 - e^q)."""
    m = np.sqrt(-np.expm1(np.minimum(q, 0.0)))
    return q - np.log1p(m)


def _ray_dist(L, theta):
    """d(w, e^L w) in the right half-plane for w on the ray arg w = theta.

    Stable for all L >= 0: underflow of exp(-L) reproduces the exact limit
    L/2 + log(1/|cos theta|).
    """
    L = np.asarray(L, dtype=float)
    u = np.exp(-L)
    one_minus_u = -np.expm1(-L)
    c2 = 2.0 * math.cos(theta) ** 2  # = 1 + cos(2 theta), no cancellation
    core = np.sqrt(one_minus_u ** 2 + 2.0 * u * c2) + one_minus_u
    return _unwrap(0.5 * L + np.log(core) - 0.5 * np.log(2.0 * c2))


def _upper_offset_dist(b, s):
    """d(w, w + s) in the upper half-plane, Im w = b > 0, real offset s >= 0."""
    s = np.asarray(s, dtype=float)
    rho = np.hypot(s, 2.0 * b)
    return _unwrap(0.5 * np.log1p(s * (rho + s) / (2.0 * b * b)))


def _times(t):
    return np.asarray(t, dtype=float)


@dataclass(frozen=True)
class _Kernel:
    """Closed forms of phi_t(z0) for one start z0, each a function of real t,
    and the chart data at z0.

    koenigs(t)               h(phi_t z0)
    log_gap(t)               log |phi_t z0 - tau|
    log_one_minus_mod_sq(t)  log(1 - |phi_t z0|^2)
    slope_angle(t)           arg(1 - conj(tau) phi_t z0)
    pair_dist(t, s)          d(phi_t z0, phi_s z0)
    disc_point(t)            (phi_t z0, saturated flag)
    point(t)                 phi_t z0 = h^{-1}(w0 + t) by the inverse chart,
                             for a float array t (0-d or not)
    horizon                  default continuous-time horizon: the disc point
                             stays comfortably representable up to it
    w0                       h(z0) by the forward chart
    boundary_distance        Euclidean distance from w0 to the boundary of
                             the chart image h(D); not positive only when
                             w0 has rounded out of the image

    Charts are only canonical up to additive translation; each zoo member
    pins one normalization by its stated closed form (the slit-plane map
    sends 0 to 0, the Cayley charts send 0 to their base point).
    """

    koenigs: callable
    log_gap: callable
    log_one_minus_mod_sq: callable
    slope_angle: callable
    pair_dist: callable
    disc_point: callable
    point: callable
    horizon: float
    w0: complex
    boundary_distance: float


def _scaling_kernel(z0, lam):
    """c_t = lam^t c0 in the right half-plane, stored as log|c_t| and arg c0;
    the chart coordinate is log(c_t)/log(lam), in the strip
    |Im w| < pi/(2 log lam)."""
    c0 = complex(_cayley_right(z0))
    logr0 = math.log(abs(c0))
    theta = math.atan2(c0.imag, c0.real)
    cos_theta = math.cos(theta)
    loglam = math.log(lam)
    w0 = complex(np.log(np.asarray(c0, dtype=complex)) / loglam)

    def log_c(t):
        return logr0 + _times(t) * loglam

    def log_abs_c_plus_1(t):
        L = log_c(t)
        u = np.exp(-L)
        return L + 0.5 * np.log1p(u * (2.0 * cos_theta + u))

    def log_one_minus_mod_sq(t):
        return math.log(4.0 * cos_theta) + log_c(t) - 2.0 * log_abs_c_plus_1(t)

    def slope_angle(t):
        # arg(1 - z_t) = -arg(c_t + 1) = -arg(e^{i theta} + e^{-L})
        u = np.exp(-log_c(t))
        return _unwrap(-np.arctan2(math.sin(theta), cos_theta + u))

    def disc_point(t):
        sat = _log_one_minus_mod(log_one_minus_mod_sq(t)) < math.log(SATURATION_EPS)
        c = np.exp(np.minimum(log_c(t), 700.0)) * cmath.exp(1j * theta)
        return np.where(sat, 1.0, _cayley_right_inv(c)), sat

    def pair_dist(t, s):
        L = np.abs(_times(s) - _times(t)) * loglam
        if L.size > 1 and np.all(L == L.flat[0]):
            # equal gaps, as in steps: one evaluation, broadcast
            return np.full(L.shape, _ray_dist(L.flat[0], theta))
        return _ray_dist(L, theta)

    # 1 - |phi_t(z0)| is about 2 cos(theta) / (|c0| lam^t), so the horizon
    # keeps it above about 1e-12 (t = 40 from 0 for every lam <= 2), but not
    # below 1, the shortest [semiflow] t_max.  A start with cos(theta) <= 0
    # lies outside the strip, and _kernel_at refuses it.
    margin = 28.0 + math.log(cos_theta) - logr0 if cos_theta > 0.0 else 0.0
    horizon = max(1.0, min(40.0, margin / loglam))

    return _Kernel(
        koenigs=lambda t: (logr0 + 1j * theta) / loglam + _times(t),
        log_gap=lambda t: math.log(2.0) - log_abs_c_plus_1(t),
        log_one_minus_mod_sq=log_one_minus_mod_sq,
        slope_angle=slope_angle,
        pair_dist=pair_dist,
        disc_point=disc_point,
        point=lambda t: _cayley_right_inv(np.exp(np.asarray(w0 + t, dtype=complex) * loglam)),
        horizon=horizon,
        w0=w0,
        boundary_distance=math.pi / (2.0 * loglam) - abs(w0.imag))


def _upper_kernel(z0):
    """w_t = w0 + t in the upper half-plane chart."""
    w0 = complex(_cayley_upper(z0))

    def w(t):
        return w0 + _times(t)

    def log_one_minus_mod_sq(t):
        return np.log(4.0 * np.imag(w(t))) - 2.0 * np.log(np.abs(w(t) + 1j))

    def disc_point(t):
        z = _cayley_upper_inv(w(t))
        return z, is_boundary_saturated(z)

    return _Kernel(
        koenigs=w,
        log_gap=lambda t: math.log(2.0) - np.log(np.abs(w(t) + 1j)),
        log_one_minus_mod_sq=log_one_minus_mod_sq,
        slope_angle=lambda t: _unwrap(np.angle(2j / (w(t) + 1j))),  # 1 - z_t = 2i/(w_t + i)
        pair_dist=lambda t, s: _upper_offset_dist(w0.imag, np.abs(_times(s) - _times(t))),
        disc_point=disc_point,
        point=lambda t: _cayley_upper_inv(w(t)),
        horizon=100.0,
        w0=w0,
        boundary_distance=w0.imag)


def _slit_kernel(z0):
    """w_t = w0 + t in K; s = principal sqrt(w + 1) lies in the right
    half-plane and z = (s-1)/(s+1)."""
    w0 = complex(domains.slit_riemann(z0))

    def s(t):
        return np.sqrt(np.asarray(w0 + _times(t), dtype=complex) + 1.0)

    def log_one_minus_mod_sq(t):
        return np.log(4.0 * np.real(s(t))) - 2.0 * np.log(np.abs(s(t) + 1.0))

    def point(t):
        return domains.slit_riemann_inv(w0 + _times(t))

    def pair_dist(t, u):
        if w0.imag == 0.0:
            # Real orbits ride the real geodesic of the slit plane.
            return _unwrap(domains.real_geodesic_dist(w0.real + _times(t), w0.real + _times(u)))
        return dist_disk(point(t), point(u))

    def disc_point(t):
        z = point(t)
        return z, is_boundary_saturated(z)

    return _Kernel(
        koenigs=lambda t: w0 + _times(t),
        log_gap=lambda t: math.log(2.0) - np.log(np.abs(s(t) + 1.0)),
        log_one_minus_mod_sq=log_one_minus_mod_sq,
        slope_angle=lambda t: _unwrap(np.angle(2.0 / (s(t) + 1.0))),  # 1 - z_t = 2/(s_t + 1)
        pair_dist=pair_dist,
        disc_point=disc_point,
        point=point,
        horizon=100.0,
        w0=w0,
        boundary_distance=float(domains.slit_boundary_distance(w0)))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def hyperbolic_automorphism(lam):
    """Disc automorphism conjugate to w -> lam*w on the right half-plane."""
    if not lam > 1.0:
        raise InvalidPointError("hyperbolic automorphism needs lam > 1")
    lam = float(lam)

    def f(z):
        return _cayley_right_inv(lam * _cayley_right(z))

    return ModelMap(name=f"hyp:{lam:g}", variant="hyp-aut", func=f,
                    tau=BoundaryPoint(0.0), f_prime_tau=1.0 / lam,
                    kernel=lambda z0: _scaling_kernel(z0, lam), non_tangential=True,
                    model_type=HYPERBOLIC)


def parabolic_automorphism():
    """Disc automorphism conjugate to w -> w + 1 on the upper half-plane."""

    def f(z):
        return _cayley_upper_inv(_cayley_upper(z) + 1.0)

    return ModelMap(name="parab-aut", variant="parab-aut", func=f,
                    tau=BoundaryPoint(0.0), f_prime_tau=1.0, kernel=_upper_kernel,
                    non_tangential=False, model_type=POSITIVE_PARABOLIC)


def koebe_shift():
    """Unit translation transported through the slit-plane Riemann map."""

    def f(z):
        return domains.slit_riemann_inv(domains.slit_riemann(z) + 1.0)

    return ModelMap(name="koebe", variant="koebe", func=f,
                    tau=BoundaryPoint(0.0), f_prime_tau=1.0, kernel=_slit_kernel,
                    non_tangential=True, model_type=ZERO_PARABOLIC)


def quadratic_parabolic():
    """f(z) = (1 + z^2)/2: non-univalent, boundary fixed point 1, f'(1) = 1."""

    def f(z):
        if isinstance(z, np.ndarray):
            return (1.0 + np.asarray(z, dtype=complex) ** 2) / 2.0
        z = complex(z)
        return (1.0 + z * z) / 2.0  # the same double as complex ** 2, one product fewer

    def run(z, count):
        """f^count(z): the scalar branch of f, count times, in one loop.

        On a complex whose imaginary part is a zero, each step rounds the
        real part as the float step does and leaves the imaginary part the
        zero the first step gives, so real starts loop in floats."""
        z = complex(z)
        if z.imag == 0.0 and count > 0:
            z = (1.0 + z * z) / 2.0
            x = z.real
            for _ in range(count - 1):
                x = (1.0 + x * x) / 2.0
            return complex(x, z.imag)
        for _ in range(count):
            z = (1.0 + z * z) / 2.0
        return z

    f.run = run
    return ModelMap(name="quad", variant="quad", func=f,
                    tau=BoundaryPoint(0.0), f_prime_tau=1.0, non_tangential=True)


def custom_map(func, tau_angle=0.0, f_prime_tau=None, name="custom"):
    """Black-box map from a user evaluation rule, iterated by composition."""
    return ModelMap(name=name, variant="custom", func=func,
                    tau=BoundaryPoint(tau_angle), f_prime_tau=f_prime_tau)


def resolve_map(name):
    """Registry lookup for CLI names: hyp:<lam>, parab-aut, koebe, quad.

    The zoo deliberately contains no candidate with Koenigs image equal to the
    whole plane; all charted members have a proper image domain.
    """
    if name == "koebe":
        return koebe_shift()
    if name == "parab-aut":
        return parabolic_automorphism()
    if name == "quad":
        return quadratic_parabolic()
    if name.startswith("hyp:"):
        try:
            lam = float(name.partition(":")[2])
        except ValueError:
            raise UnsupportedModelError(f"map name {name!r}: lambda is not a number") from None
        return hyperbolic_automorphism(lam)
    raise UnsupportedModelError(f"unknown map name {name!r}")


def eval_map(f: ModelMap, z):
    """Evaluate f at a disc point; result is again a strict disc point.

    Points whose image is indistinguishable from the boundary at working
    precision are the caller's concern: orbit accessors flag them explicitly.
    """
    z = require_in_disk(z, "eval_map")
    return f.func(z)


def is_boundary_saturated(z):
    """True when 1 - |z| is below the working-precision floor."""
    return (1.0 - np.abs(np.asarray(z, dtype=complex))) < SATURATION_EPS


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------

class OrbitRecord:
    """Orbit of one start point, stored in chart coordinates when available.

    Disc points are materialized on demand and carry a saturation flag; the
    analysis accessors (distances, Euclidean gaps, slope angles, Julia
    quotients) come from the model's kernel when it has one, so they remain
    exact at indices where materialized doubles fail.  f^0 is the identity.
    Accessors take an int or an integer array of indices.
    """

    def __init__(self, map_, z0, n_max):
        n_max = int(n_max)
        if n_max < 0:
            raise InvalidPointError("orbit length must be >= 0")
        if n_max > map_.n_cap:
            raise InvalidPointError(
                f"n_max = {n_max} exceeds the {map_.name} cap {map_.n_cap}")
        self.map = map_
        self.z0 = complex(require_in_disk(z0, "orbit start"))
        self.n_max = n_max
        self.tau = map_.tau.value

    # -- interface ----------------------------------------------------------
    def _check(self, n):
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 0) or np.any(n > self.n_max):
            raise InvalidPointError("orbit index out of range")
        return n

    def disc_point(self, n):
        raise NotImplementedError

    def available(self, n):
        """Which indices carry exact data: all of them for a kernel orbit, the
        unsaturated points for an orbit by composition."""
        raise NotImplementedError

    def one_minus_mod(self, n):
        return np.exp(self.log_one_minus_mod(n))

    def log_one_minus_mod(self, n):
        return _log_one_minus_mod(self.log_one_minus_mod_sq(n))

    def dist_to_tau(self, n):
        return np.exp(self.log_dist_to_tau(n))

    def log_julia_quotient(self, n):
        """log of u(n+1)/u(n) for the boundary quotient u = |tau-z|^2/(1-|z|^2)."""
        n = self._check(n)
        logu = lambda k: 2.0 * self.log_dist_to_tau(k) - self.log_one_minus_mod_sq(k)
        return logu(n + 1) - logu(n)

    def step(self, n):
        n = self._check(n)
        return self.pair_dist(n, n + 1)

    def steps_prefix(self, m):
        """Cumulative step sums S[k] = sum_{j<k} step(j), k = 0..m."""
        m = int(m)
        steps = self.step(np.arange(m, dtype=np.int64))
        out = np.zeros(m + 1)
        np.cumsum(steps, out=out[1:])
        return out


def _kernel_at(f: ModelMap, z0):
    """f's kernel at the start z0, refused where the chart coordinate h(z0)
    has rounded out of the chart image (boundary distance not positive)."""
    kernel = f.kernel(z0)
    if not kernel.boundary_distance > 0.0:
        raise InvalidPointError(
            f"{f.name}: chart coordinate {kernel.w0!r} is outside the chart image")
    return kernel


class _ChartedOrbit(OrbitRecord):
    """The model's kernel sampled at integer times."""

    def __init__(self, map_, z0, n_max):
        super().__init__(map_, z0, n_max)
        self._kernel = _kernel_at(map_, self.z0)

    def koenigs(self, n):
        return self._kernel.koenigs(self._check(n))

    def disc_point(self, n):
        n = self._check(n)
        z, sat = self._kernel.disc_point(n)
        z = np.where(n == 0, self.z0, z)  # f^0 is the identity, exactly
        return (z, sat) if np.ndim(n) else (complex(z), bool(sat))

    def available(self, n):
        return np.ones(np.shape(self._check(n)), dtype=bool)

    def log_one_minus_mod_sq(self, n):
        return self._kernel.log_one_minus_mod_sq(self._check(n))

    def log_dist_to_tau(self, n):
        return self._kernel.log_gap(self._check(n))

    def pair_dist(self, n, m):
        return self._kernel.pair_dist(self._check(n), self._check(m))

    def dist_from_start(self, n):
        n = self._check(n)
        return self._kernel.pair_dist(np.zeros_like(n), n)

    def slope_angle(self, n):
        return self._kernel.slope_angle(self._check(n))


class _BlackBoxOrbit(OrbitRecord):
    """Orbit by direct composition, each point composed at most once.

    One store holds ascending indices and the running point f^i(z0) at each:
    z0, the checkpoint f^(jK)(z0) for K = CHECKPOINT_SPACING and every j up
    to the highest index reached, and every index ever requested; never a
    dense orbit unless one is requested.  A request reads the indices the
    store holds and composes each missing one, in ascending order, from the
    nearest stored point or missing index below it; the new points and the
    checkpoints passed join the store once, so a repeated index is read back,
    not composed again.

    The steps between two points are one call of map.func.run(z, count) when
    the rule has that attribute, which returns f^count(z) through the same
    chain of operations as count calls of map.func; any other rule, a
    counting wrapper included, is called once per step, exactly as a plain
    `z = f(z)` loop does.  The store keeps each point as the chain had it: a
    Python complex at every checkpoint, and what the rule returned elsewhere.
    So f^n(z0) is always the same chain of operations from the checkpoint
    below n: its bits do not depend on the order, repetition or grouping of
    requests, for rules that return numpy scalars too.

    The first checkpoint or requested index, in index order, whose point is
    not a number, is non-finite or lies outside the closed disc by more than
    OUT_OF_DISC_MARGIN raises InvalidPointError naming its index.  So does a
    step whose evaluation raises an ArithmeticError (a rule dividing by zero
    on its orbit).  Orbits that saturate land on |z| = 1 exactly and are
    flagged, not raised.
    """

    def __init__(self, map_, z0, n_max):
        super().__init__(map_, z0, n_max)
        self._at = np.zeros(1, dtype=np.int64)  # the stored indices, ascending
        self._zs = np.array([self.z0], dtype=object)  # f^i(z0) at each

    def _stored(self, k, z):
        """z = f^k(z0) as a Python complex, checked to be a number in the closed disc."""
        try:
            if isinstance(z, str):  # complex() would parse "0.5"
                raise TypeError
            z = complex(z)
        except (TypeError, ValueError):
            raise InvalidPointError(
                f"{self.map.name} orbit: f^{k}(z0) = {z!r} is not a number") from None
        if not abs(z) <= 1.0 + OUT_OF_DISC_MARGIN:  # also false for nan and inf
            raise InvalidPointError(
                f"{self.map.name} orbit leaves the closed disc: f^{k}(z0) = {z!r}")
        return z

    def _compose(self, k, z, stop):
        """f^stop(z0) from z = f^k(z0) within one checkpoint interval: one
        call of the rule's run(z, count) when it has one, else one call of
        the rule per step.  A run that raises an ArithmeticError is replayed
        a step at a time from z, so the error names the failing index."""
        f = self.map.func
        run = getattr(f, "run", None)
        if run is not None:
            try:
                return run(z, stop - k)
            except ArithmeticError:
                pass
        try:
            for j in range(k, stop):
                z = f(z)
        except ArithmeticError as exc:
            raise InvalidPointError(
                f"{self.map.name} orbit: f^{j + 1}(z0) cannot be evaluated: {exc}") from None
        return z

    def _points(self, n):
        n = self._check(n)
        ks = np.atleast_1d(n)
        pos = np.searchsorted(self._at, ks)
        stored = self._at[np.minimum(pos, self._at.size - 1)] == ks
        missing = sorted(set(ks[~stored].tolist()))
        if missing:
            self._add(missing)
            pos = np.searchsorted(self._at, ks)
        pts = self._zs[pos].astype(complex)
        return pts if np.ndim(n) else pts[0]

    def _add(self, missing):
        """Compose the ascending indices `missing`, none of them stored, and
        merge them into the store with the checkpoints passed on the way."""
        at, zs = [], []
        k = -1
        for i, below in zip(missing, np.searchsorted(self._at, missing) - 1):
            if self._at[below] > k:
                k, z = int(self._at[below]), self._zs[below]
            while k < i:
                stop = min(i, (k // CHECKPOINT_SPACING + 1) * CHECKPOINT_SPACING)
                z = self._compose(k, z, stop)
                checked = self._stored(stop, z)
                if stop % CHECKPOINT_SPACING == 0:
                    z = checked
                k = stop
                at.append(k)
                zs.append(z)
        at = np.concatenate([self._at, at])
        order = np.argsort(at, kind="stable")
        self._at = at[order]
        self._zs = np.concatenate([self._zs, np.fromiter(zs, dtype=object, count=len(zs))])[order]

    def disc_point(self, n):
        z = self._points(n)
        sat = is_boundary_saturated(z)
        return (z, sat) if np.ndim(n) else (complex(z), bool(sat))

    def available(self, n):
        return ~np.asarray(self.disc_point(n)[1])

    def koenigs(self, n):
        return None

    def log_one_minus_mod_sq(self, n):
        z = np.asarray(self._points(n), dtype=complex)
        a = np.abs(z)
        return np.log((1.0 - a) * (1.0 + a))

    def log_one_minus_mod(self, n):
        z = np.asarray(self._points(n), dtype=complex)
        return np.log(1.0 - np.abs(z))

    def log_dist_to_tau(self, n):
        z = np.asarray(self._points(n), dtype=complex)
        return np.log(np.abs(z - self.tau))

    def pair_dist(self, n, m):
        return dist_disk(self._points(n), self._points(m))

    def dist_from_start(self, n):
        return dist_disk(self.z0, self._points(n))

    def slope_angle(self, n):
        z = np.asarray(self._points(n), dtype=complex)
        u = 1.0 - np.conj(self.tau) * z
        return _unwrap(np.angle(u))


def iterate(f: ModelMap, z, n):
    """Orbit record for f^0(z), ..., f^n(z).

    Maps with a kernel compute in chart coordinates (cap 1e7) and raise
    InvalidPointError at a start whose chart coordinate rounds out of the
    chart image; the others compose directly (cap 1e6), flag boundary
    saturation instead of clipping, and raise InvalidPointError at points
    that leave the disc.
    """
    if f.kernel is None:
        return _BlackBoxOrbit(f, z, n)
    return _ChartedOrbit(f, z, n)
