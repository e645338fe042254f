"""Span tracer wrapped around disciter's public functions, from outside the package.

`Tracer.install()` replaces, for the duration of a traced phase:

- every public function in every ``disciter.*`` module namespace, including
  names one module imported from another (``harmonic.iterate`` is traced as
  ``maps.iterate``) and functions held in public module lists
  (``acceptance.ALL_CRITERIA``);
- every public method of every class defined in disciter, so the objects the
  public functions return (orbits, domains, trajectories, reports) are traced
  too.

Each call records a span ``[name, start_ns, end_ns, parent, job, tag]`` in
memory.  Counters are added at the same boundaries by the hooks below, from
arguments and return values only.  Black-box maps returned by the wrapped
``maps`` constructors get a counting ``func``, which gives the composition
count.  `uninstall()` restores every original object.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, JOB, TAG = range(6)

# A span costs about a microsecond.  This helper runs once per CSV cell, so a
# span around it would time the tracer instead of the writer.
SKIP = {"util.format_value"}

WRITERS = ("util.write_csv", "util.write_json", "util.write_svg_series", "util.json_dumps")

# Orbit accessors whose value at n also needs the point n + 1.
NEEDS_NEXT = {"step", "log_julia_quotient"}

# Segment counts of the slit domains the workloads use; each gets its own
# ns-per-walk-step metric so the cost per segment shows.
WOS_SEGMENTS = (0, 1, 3, 48)


def _layer(obj):
    return obj.__module__.rpartition(".")[2]


def _is_disciter(obj):
    return getattr(obj, "__module__", "").startswith("disciter.")


def _size(x):
    return x.size if isinstance(x, np.ndarray) else 1


def _max_index(values):
    best = -1
    for v in values:
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            best = max(best, int(v))
        elif isinstance(v, np.ndarray) and v.dtype.kind in "iu" and v.size:
            best = max(best, int(v.max()))
    return best


def is_blackbox(model_map):
    """True for maps that iterate by composing their evaluation rule."""
    return model_map.chart is None or model_map.variant == "custom"


def covered(t0, t1, intervals):
    """Length of the union of `intervals`, clipped to [t0, t1]."""
    total, reach = 0, t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [s[END] - s[START] - covered(s[START], s[END], children.get(i, ()))
            for i, s in enumerate(spans)]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = -1
        self._stack = []
        self._undo = []
        self._wrappers = {}
        self._orbits = {}  # id(orbit) -> [orbit, highest index requested]
        self._model_map = None

    # -- installation ---------------------------------------------------------
    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        maps = sys.modules.get("disciter.maps")
        self._model_map = getattr(maps, "ModelMap", None)
        classes = {}
        for modname in sorted(sys.modules):
            mod = sys.modules[modname]
            if not modname.startswith("disciter.") or mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) and _is_disciter(obj):
                    classes[id(obj)] = obj
                elif attr.startswith("_"):
                    continue
                elif isinstance(obj, types.FunctionType) and _is_disciter(obj):
                    wrapper = self._wrapper(obj)
                    if wrapper is not obj:
                        self._undo.append((setattr, mod, attr, obj))
                        setattr(mod, attr, wrapper)
                elif isinstance(obj, list):
                    for i, item in enumerate(obj):
                        if isinstance(item, types.FunctionType) and _is_disciter(item):
                            self._undo.append((list.__setitem__, obj, i, item))
                            obj[i] = self._wrapper(item)
        for cls in classes.values():
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                name = f"{_layer(cls)}.{cls.__qualname__}.{attr}"
                self._undo.append((setattr, cls, attr, obj))
                setattr(cls, attr, self._make(name, obj, orbit_method=_layer(cls) == "maps"))

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)
        self._wrappers.clear()

    def _wrapper(self, fn):
        name = f"{_layer(fn)}.{fn.__qualname__}"
        if name in SKIP:
            return fn
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._make(name, fn)
        return self._wrappers[id(fn)]

    def _make(self, name, fn, orbit_method=False):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self
        hook = HOOKS.get(name)
        if hook is None and name.startswith("acceptance.criterion_"):
            hook = _hook_criterion
        elif hook is None and orbit_method:
            hook = _hook_orbit
        elif hook is None and name.startswith("maps."):
            hook = _hook_maps_function

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                out = hook(tracer, rec, fn, args, kwargs, out)
            return out

        return traced

    # -- counters ---------------------------------------------------------------
    def counting(self, func):
        """Wrap a map's evaluation rule so each point it maps adds one composition."""
        counts = self.counts

        def counted(z):
            counts["maps.compositions"] += z.size if isinstance(z, np.ndarray) else 1
            return func(z)

        counted.bench_counted = True
        return counted

    def end_job(self):
        """Fold the highest index requested from each black-box orbit into the
        count of compositions a single forward pass would have needed."""
        for _, highest in self._orbits.values():
            self.counts["maps.compositions_needed"] += highest
        self._orbits.clear()


# ---------------------------------------------------------------------------
# Hooks: (tracer, span record, original function, args, kwargs, result) ->
# result.  They only read arguments and results.
# ---------------------------------------------------------------------------

def _dur(rec):
    return rec[END] - rec[START]


def _hook_maps_function(tracer, rec, fn, args, kwargs, out):
    mm = tracer._model_map
    if (mm is not None and isinstance(out, mm) and is_blackbox(out)
            and not getattr(out.func, "bench_counted", False)):
        out = dataclasses.replace(out, func=tracer.counting(out.func))
    return out


def _hook_orbit(tracer, rec, fn, args, kwargs, out):
    orbit = args[0]
    mm = tracer._model_map
    model_map = getattr(orbit, "map", None)
    if mm is None or not isinstance(model_map, mm):
        return out
    values = list(args[1:]) + list(kwargs.values())
    if is_blackbox(model_map):
        rec[TAG] = "bb"
        highest = _max_index(values)
        if highest >= 0:
            highest += 1 if fn.__name__ in NEEDS_NEXT else 0
            # The entry holds the orbit, so its id is not reused within the job.
            entry = tracer._orbits.setdefault(id(orbit), [orbit, 0])
            entry[1] = max(entry[1], highest)
    else:
        rec[TAG] = "ch"
        if values:
            tracer.counts["maps.charted_indices"] += _size(np.asarray(values[0]))
    if fn.__name__ == "disc_point" and isinstance(out, tuple) and len(out) == 2:
        tracer.counts["maps.saturated_points"] += int(np.sum(out[1]))
    return out


def _hook_criterion(tracer, rec, fn, args, kwargs, out):
    number = fn.__name__.split("_")[1]
    tracer.counts[f"acceptance.c{number}_s"] += _dur(rec) / 1e9
    return out


def _nseg(domain):
    n = len(getattr(domain, "vertices", ()))
    return 0 if n == 0 else max(n - 1, 1)


def _hook_wos(tracer, rec, fn, args, kwargs, out):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    done = out.n_walks - out.discards
    steps = round(out.mean_steps * done) + out.discards * int(bound.arguments["cap"])
    seg = _nseg(bound.arguments["domain"])
    c = tracer.counts
    c["harmonic.walks"] += out.n_walks
    c["harmonic.discards"] += out.discards
    c["harmonic.walk_steps"] += steps
    c["harmonic.wos_ns"] += _dur(rec)
    c[f"harmonic.walk_steps_{seg}seg"] += steps
    c[f"harmonic.wos_ns_{seg}seg"] += _dur(rec)
    return out


def _hook_distance(tracer, rec, fn, args, kwargs, out):
    seg = _nseg(args[0])
    if seg:
        tracer.counts["harmonic.point_segments"] += _size(np.asarray(args[1])) * seg
        tracer.counts["harmonic.distance_ns"] += _dur(rec)
    return out


def _hook_arc(tracer, rec, fn, args, kwargs, out):
    tracer.counts["harmonic.arc_calls"] += 1
    tracer.counts["harmonic.arc_ns"] += _dur(rec)
    return out


def _hook_qg(tracer, rec, fn, args, kwargs, out):
    c = tracer.counts
    c["qgeo.pairs"] += len(out.pairs)
    c["qgeo.fits"] += 1
    c["qgeo.excluded"] += out.excluded_fraction
    c["qgeo.fit_ns"] += _dur(rec)
    return out


def _hook_dist_disk(tracer, rec, fn, args, kwargs, out):
    tracer.counts["hypgeo.points"] += _size(np.asarray(out))
    tracer.counts["hypgeo.dist_disk_ns"] += _dur(rec)
    return out


def _path(args, kwargs):
    return args[0] if args else kwargs["path"]


def _written(tracer, path):
    size = os.path.getsize(path)
    tracer.counts["util.bytes_written"] += size
    return size


def _hook_csv(tracer, rec, fn, args, kwargs, out):
    columns = args[2] if len(args) > 2 else kwargs["columns"]
    tracer.counts["util.csv_rows"] += len(columns[0]) if len(columns) else 0
    tracer.counts["util.csv_ns"] += _dur(rec)
    _written(tracer, _path(args, kwargs))
    return out


def _hook_json(tracer, rec, fn, args, kwargs, out):
    tracer.counts["util.json_bytes"] += _written(tracer, _path(args, kwargs))
    return out


def _hook_svg(tracer, rec, fn, args, kwargs, out):
    tracer.counts["util.svg_calls"] += 1
    tracer.counts["util.svg_ns"] += _dur(rec)
    _written(tracer, _path(args, kwargs))
    return out


def _hook_semiflow_t(tracer, rec, fn, args, kwargs, out):
    if len(args) > 1:
        tracer.counts["semiflow.t_points"] += _size(np.asarray(args[1]))
    return out


HOOKS = {
    "harmonic.hm_wos": _hook_wos,
    "harmonic.SlitDiskDomain.distance": _hook_distance,
    "harmonic.hm_disk_arc": _hook_arc,
    "qgeo.discrete_qg_fit": _hook_qg,
    "qgeo.curve_qg_check": _hook_qg,
    "hypgeo.dist_disk": _hook_dist_disk,
    "util.write_csv": _hook_csv,
    "util.write_json": _hook_json,
    "util.write_svg_series": _hook_svg,
    "semiflow.Trajectory.point": _hook_semiflow_t,
    "semiflow.Trajectory.koenigs": _hook_semiflow_t,
    "semiflow.Trajectory.boundary_gap": _hook_semiflow_t,
    "semiflow.Trajectory.slope_angle": _hook_semiflow_t,
}


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, selfs, counts):
    """Per-layer metrics from one pass's spans, their self times (ns) and the
    counters it added.  Work a pass did not do reads 0."""
    layer_self = defaultdict(int)
    tag_self = defaultdict(int)
    name_self = defaultdict(int)
    layer_calls = defaultdict(int)
    for s, own in zip(spans, selfs):
        layer = s[NAME].partition(".")[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        name_self[s[NAME]] += own
        if s[TAG]:
            tag_self[s[TAG]] += own
    c = counts
    m = {f"acceptance.c{k:02d}_s": c[f"acceptance.c{k:02d}_s"] for k in range(1, 12)}
    comp, need = c["maps.compositions"], c["maps.compositions_needed"]
    m.update({
        "maps.compositions": comp,
        "maps.compositions_needed": need,
        "maps.compositions_per_needed": _ratio(comp, need),
        "maps.ns_per_composition": _ratio(tag_self["bb"], comp),
        "maps.blackbox_self_s": tag_self["bb"] / 1e9,
        "maps.charted_ns_per_index": _ratio(tag_self["ch"], c["maps.charted_indices"]),
        "maps.charted_self_s": tag_self["ch"] / 1e9,
        "maps.saturated_points": c["maps.saturated_points"],
        "semiflow.self_s": layer_self["semiflow"] / 1e9,
        "semiflow.ns_per_t": _ratio(layer_self["semiflow"], c["semiflow.t_points"]),
        "slope.self_s": layer_self["slope"] / 1e9,
        "rates.self_s": layer_self["rates"] / 1e9,
        "opnorm.self_s": layer_self["opnorm"] / 1e9,
        "qgeo.pairs": c["qgeo.pairs"],
        "qgeo.pairs_per_s": _ratio(c["qgeo.pairs"], c["qgeo.fit_ns"] / 1e9),
        "qgeo.excluded_frac": _ratio(c["qgeo.excluded"], c["qgeo.fits"]),
        "qgeo.self_s": layer_self["qgeo"] / 1e9,
        "harmonic.walks": c["harmonic.walks"],
        "harmonic.walk_steps": c["harmonic.walk_steps"],
        "harmonic.steps_per_walk": _ratio(c["harmonic.walk_steps"], c["harmonic.walks"]),
        "harmonic.discard_frac": _ratio(c["harmonic.discards"], c["harmonic.walks"]),
        "harmonic.ns_per_walk_step": _ratio(c["harmonic.wos_ns"], c["harmonic.walk_steps"]),
    })
    for seg in WOS_SEGMENTS:
        m[f"harmonic.ns_per_walk_step_{seg}seg"] = _ratio(
            c[f"harmonic.wos_ns_{seg}seg"], c[f"harmonic.walk_steps_{seg}seg"])
    m.update({
        "harmonic.wos_self_s": name_self["harmonic.hm_wos"] / 1e9,
        "harmonic.distance_ns_per_point_segment": _ratio(
            c["harmonic.distance_ns"], c["harmonic.point_segments"]),
        "harmonic.arc_calls": c["harmonic.arc_calls"],
        "harmonic.arc_quad_us": _ratio(c["harmonic.arc_ns"] / 1e3, c["harmonic.arc_calls"]),
        "hypgeo.points": c["hypgeo.points"],
        "hypgeo.dist_disk_ns_per_point": _ratio(c["hypgeo.dist_disk_ns"], c["hypgeo.points"]),
        "hypgeo.self_s": layer_self["hypgeo"] / 1e9,
        "domains.calls": layer_calls["domains"],
        "domains.self_s": layer_self["domains"] / 1e9,
        "util.csv_rows": c["util.csv_rows"],
        "util.csv_us_per_row": _ratio(c["util.csv_ns"] / 1e3, c["util.csv_rows"]),
        "util.json_bytes": c["util.json_bytes"],
        "util.svg_us": _ratio(c["util.svg_ns"] / 1e3, c["util.svg_calls"]),
        "util.bytes_written": c["util.bytes_written"],
        "util.write_self_s": sum(name_self[n] for n in WRITERS) / 1e9,
        "cli.self_s": layer_self["cli"] / 1e9,
    })
    return m
