"""Command-line front end.

    disciter SUBCOMMAND --config experiment.ini [--out DIR] [--seed N]
                        [--format csv|json|svg]

Subcommands: orbit, rate, slope, qg, semiflow, hm, opnorm, accept.  The config
file is flat key=value under section headers (INI); unknown sections or keys
are rejected.  Identical config and seed produce byte-identical artifacts.
JSON artifacts carry a versioned "schema" field; plots are self-contained SVG
renderings of the primary CSV series.
"""

from __future__ import annotations

import argparse
import ast
import cmath
import configparser
import math
import os
import sys

import numpy as np

from . import acceptance, harmonic, maps, opnorm, qgeo, rates, semiflow, slope
from .errors import ConfigError, InvalidPointError, UnsupportedModelError
from .util import geometric_grid, write_csv, write_json, write_svg_series

_ALLOWED_KEYS = {
    "map": {"name", "start", "custom_expr", "custom_tau_angle", "custom_fprime_tau"},
    "grid": {"n_max", "include"},
    "rate": {"epsilon", "lower_eps", "non_tangential"},
    "slope": {"tail_fraction"},
    "qg": {"m_max"},
    "semiflow": {"t_max", "n_embed"},
    "wos": {"epsilon", "cap", "walks", "seed"},
    "hm": {"mode", "z", "theta1", "theta2", "target", "slit", "cut"},
    "opnorm": {"p", "alpha"},
    "output": {"basename"},
}
# Largest [semiflow] t_max: the time grid holds 4 t_max points.
_T_MAX_LIMIT = 1e4
# What a custom_expr may call or read besides numbers, z, + - * / **, unary
# +- and abs(): named elementwise functions of cmath and np, and pi and e.
_EXPR_FUNCTIONS = {
    "cmath": {"exp", "log", "log10", "sqrt", "sin", "cos", "tan", "asin", "acos",
              "atan", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh", "phase"},
    "np": {"exp", "log", "log10", "log2", "log1p", "expm1", "sqrt", "sin", "cos",
           "tan", "arcsin", "arccos", "arctan", "sinh", "cosh", "tanh", "arcsinh",
           "arccosh", "arctanh", "abs", "absolute", "conj", "conjugate", "real",
           "imag", "angle", "square"},
}
_EXPR_CONSTANTS = {"pi", "e"}
_EXPR_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)


def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        # configparser reports offending line numbers in its message
        raise ConfigError(f"config parse error: {exc}") from exc
    cfg = {}
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            cfg[section] = dict(parser[section])
        except configparser.Error as exc:  # a bad %-interpolation in a value
            raise ConfigError(f"config value error: {exc}") from exc
    return cfg


# Casts for _get: a malformed value raises ValueError, which _get reports as
# a ConfigError (exit 2).
def _complex(raw):
    return complex(raw.replace(" ", ""))


def _points(raw):
    return [_complex(tok) for tok in raw.split(",") if tok]


def _indices(raw):
    if not raw:
        return None  # `include =` leaves the grid to n_max
    return np.array(sorted({int(tok) for tok in raw.split(",")}), dtype=np.int64)


def _bool(raw):
    """configparser's spellings of a boolean (1/yes/true/on, 0/no/false/off), in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


def _get(cfg, section, key, cast, default):
    try:
        raw = cfg[section][key]
    except KeyError:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _resolve_map(cfg):
    name = _get(cfg, "map", "name", str, "koebe")
    if name.startswith("custom:"):
        sub = load_config(name.partition(":")[2])
        cfg = {**cfg, "map": {**sub.get("map", {}), **cfg.get("map", {})}}
        name = "custom"
    if name == "custom":
        expr = _get(cfg, "map", "custom_expr", str, None)
        if not expr:
            raise ConfigError("custom map needs custom_expr")
        try:
            bad = _forbidden_node(ast.parse(expr, "<custom_expr>", mode="eval"))
            code = None if bad else compile(expr, "<custom_expr>", "eval")
        except (SyntaxError, ValueError, RecursionError) as exc:
            raise ConfigError(f"custom_expr {expr!r} does not compile: {exc}") from None
        if bad is not None:
            raise ConfigError(f"custom_expr {expr!r}: {bad} is not allowed")

        def func(z, _code=code):
            try:
                return eval(_code, {"__builtins__": {}},
                            {"z": z, "cmath": cmath, "np": np, "abs": abs})
            except (NameError, TypeError, AttributeError) as exc:
                raise ConfigError(f"custom_expr {expr!r}: {exc}") from None
            except ValueError as exc:  # a cmath domain error, such as cmath.log(0)
                raise ArithmeticError(exc) from None

        return maps.custom_map(
            func,
            tau_angle=_get(cfg, "map", "custom_tau_angle", float, 0.0),
            f_prime_tau=_get(cfg, "map", "custom_fprime_tau", float, 1.0))
    try:
        return maps.resolve_map(name)
    except UnsupportedModelError as exc:
        raise ConfigError(str(exc)) from exc


def _forbidden_node(tree):
    """Describe the first node of a parsed custom_expr outside its grammar, or None.

    The grammar: int, float and complex numbers, the name z, + - * / ** and
    unary +-, abs(x), and calls of the named cmath and np functions, plus
    their pi and e.  A power of two integer-valued operands is refused too:
    Python evaluates 9**9**9 exactly, which does not end in practice.
    """
    nodes = list(ast.walk(tree))  # breadth first: parents before children
    vetted = set()  # ids of callee and module-name nodes checked with their parent
    for node in nodes:
        if id(node) in vetted:
            continue
        if isinstance(node, ast.Call):
            callee = node.func
            if node.keywords:
                return "a keyword argument"
            if isinstance(callee, ast.Name) and callee.id == "abs":
                vetted.add(id(callee))
            elif _module_member(callee, _EXPR_FUNCTIONS):
                vetted.update((id(callee), id(callee.value)))
            else:
                return f"calling {ast.unparse(callee)}"
        elif isinstance(node, ast.Attribute):
            if not _module_member(node, dict.fromkeys(_EXPR_FUNCTIONS, _EXPR_CONSTANTS)):
                return f"reading {ast.unparse(node)}"
            vetted.add(id(node.value))
        elif isinstance(node, ast.Name):
            if node.id != "z":
                return f"the name {node.id!r}"
        elif isinstance(node, ast.Constant):
            if type(node.value) not in (int, float, complex):
                return f"the constant {node.value!r}"
        elif not isinstance(node, (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Load)
                            + _EXPR_OPERATORS):
            return f"{type(node).__name__} syntax"
    integer = set()  # ids of integer-valued nodes, found children first
    for node in reversed(nodes):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            integer.add(id(node))
        elif isinstance(node, ast.UnaryOp) and id(node.operand) in integer:
            integer.add(id(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and [id(arg) in integer for arg in node.args] == [True]):
            integer.add(id(node))  # abs of an integer
        elif isinstance(node, ast.BinOp) and {id(node.left), id(node.right)} <= integer:
            if isinstance(node.op, ast.Pow):
                return f"the integer power {ast.unparse(node)}"
            if not isinstance(node.op, ast.Div):
                integer.add(id(node))
    return None


def _module_member(node, members):
    """Is node `module.name` with name in members[module]?"""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.attr in members.get(node.value.id, ()))


def _start_point(cfg):
    return _get(cfg, "map", "start", _complex, 0j)


def _grid(cfg, f):
    ns = _get(cfg, "grid", "include", _indices, None)
    if ns is not None:
        return ns
    n_max = _get(cfg, "grid", "n_max", int, min(10 ** 6, f.n_cap - 1))
    if n_max < 1:
        raise ConfigError("empty grid: n_max must be >= 1")
    return geometric_grid(min(n_max, f.n_cap - 1))


def _outpath(args, cfg, ext):
    base = cfg.get("output", {}).get("basename", args.subcommand)
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{base}.{ext}")


def _emit(args, cfg, csv, json, svg):
    """Write the one artifact --format asks for.

    Each builder is a zero-argument callable and only the one for
    args.format runs: `csv` returns (header, columns), `json` the report dict
    and `svg` the plot series (xs, ys, title, xlabel, ylabel).  The output
    directory is made only once the builder has returned.
    """
    data = {"csv": csv, "json": json, "svg": svg}[args.format]()
    path = _outpath(args, cfg, args.format)
    if args.format == "csv":
        write_csv(path, *data)
    elif args.format == "json":
        write_json(path, data)
    else:
        write_svg_series(path, *data)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_orbit(args, cfg):
    f = _resolve_map(cfg)
    z = _start_point(cfg)
    ns = _grid(cfg, f)
    orbit = maps.iterate(f, z, int(ns[-1]))
    zs, sat = orbit.disc_point(ns)
    zs = np.atleast_1d(zs)
    sat = np.atleast_1d(sat)
    _emit(args, cfg,
          csv=lambda: (["n", "re", "im", "saturated"], [ns, zs.real, zs.imag, sat]),
          json=lambda: {"schema": "disciter/orbit/v1", "map": f.name,
                        "points": [{"n": int(n), "re": float(p.real), "im": float(p.imag),
                                    "saturated": bool(s)} for n, p, s in zip(ns, zs, sat)]},
          svg=lambda: (ns, np.abs(zs), f"orbit modulus: {f.name}", "n", "|f^n(z)|"))
    return 0


def _cmd_rate(args, cfg):
    f = _resolve_map(cfg)
    report = rates.rate_report(
        f, _start_point(cfg), _grid(cfg, f),
        epsilon=_get(cfg, "rate", "epsilon", float, 0.5),
        lower_eps=_get(cfg, "rate", "lower_eps", float, 0.9),
        non_tangential=_get(cfg, "rate", "non_tangential", _bool, None))
    _emit(args, cfg, csv=report.csv_columns, json=report.to_dict,
          svg=lambda: (np.log(np.maximum(report.ns, 1)), report.divergence.d,
                       f"divergence rate: {f.name}", "log n", "d(z, f^n z)"))
    return 0


def _cmd_slope(args, cfg):
    f = _resolve_map(cfg)
    ns = _grid(cfg, f)
    orbit = maps.iterate(f, _start_point(cfg), int(ns[-1]))
    report = slope.slope_report(orbit, ns,
                                tail_fraction=_get(cfg, "slope", "tail_fraction",
                                                   float, 0.125))
    _emit(args, cfg, csv=report.csv_columns, json=report.to_dict,
          svg=lambda: (np.log(np.maximum(ns, 1)), report.thetas,
                       f"slope: {f.name}", "log n", "theta_n"))
    return 0


def _cmd_qg(args, cfg):
    f = _resolve_map(cfg)
    m_max = _get(cfg, "qg", "m_max", int, min(10 ** 4, f.n_cap - 1))
    if m_max < 1:
        raise ConfigError(f"[qg] m_max must be >= 1, got {m_max}")
    orbit = maps.iterate(f, _start_point(cfg), m_max + 1)
    cert = qgeo.discrete_qg_fit(orbit, m_max)

    def col(k):
        return [row[k] for row in cert.pairs]

    _emit(args, cfg,
          csv=lambda: (["n", "m", "sum_steps", "dist", "ratio"], [col(k) for k in range(5)]),
          json=cert.to_dict,
          svg=lambda: (np.array(col(3)), np.array(col(2)),
                       f"qg pairs: {f.name}", "d(f^n, f^m)", "sum of steps"))
    return 0


def _cmd_semiflow(args, cfg):
    f = _resolve_map(cfg)
    t_max = _get(cfg, "semiflow", "t_max", float, None)
    if t_max is not None and not 1.0 <= t_max <= _T_MAX_LIMIT:
        raise ConfigError(
            f"[semiflow] t_max must lie in [1, {_T_MAX_LIMIT:g}], got {t_max!r}")
    n_embed = _get(cfg, "semiflow", "n_embed", int, 10 ** 4)
    if not 0 <= n_embed <= f.n_cap:
        raise ConfigError(f"[semiflow] n_embed must lie in [0, {f.n_cap}], got {n_embed}")
    traj = semiflow.make_trajectory(f, _start_point(cfg))
    if t_max is None:
        t_max = traj.horizon
    ts = np.arange(0.0, t_max + 0.25, 0.25)
    pts = np.atleast_1d(traj.point(ts))

    def report():
        pairs = list(zip(ts[:-1:8], ts[1::8]))
        return {"schema": "disciter/semiflow/v1", "map": f.name, "checks": {
            "embed": semiflow.embed_check(traj, n_max=n_embed).to_dict(),
            "invariance": semiflow.invariance_check(traj, ts[:-4]).to_dict(),
            "lipschitz_hyperbolic":
                semiflow.lipschitz_hyperbolic_check(traj, pairs).to_dict(),
            "lipschitz_euclidean":
                semiflow.lipschitz_euclidean_check(traj, pairs).to_dict(),
        }}

    _emit(args, cfg, csv=lambda: (["t", "re", "im"], [ts, pts.real, pts.imag]),
          json=report,
          svg=lambda: (ts, np.abs(pts), f"trajectory modulus: {f.name}", "t", "|phi_t(z)|"))
    return 0


def _cmd_hm(args, cfg):
    mode = _get(cfg, "hm", "mode", str, "arc")
    seed = args.seed if args.seed is not None else _get(cfg, "wos", "seed", int, 0)
    walks = _get(cfg, "wos", "walks", int, 10 ** 5)
    eps = _get(cfg, "wos", "epsilon", float, harmonic.WOS_EPS)
    cap = _get(cfg, "wos", "cap", int, harmonic.WOS_CAP)
    if mode == "arc":
        z = _get(cfg, "hm", "z", _complex, 0j)
        t1 = _get(cfg, "hm", "theta1", float, 0.0)
        t2 = _get(cfg, "hm", "theta2", float, math.pi)
        est = harmonic.hm_disk_arc(z, t1, t2)
        _emit(args, cfg, csv=lambda: (["value", "method"], [[est.value], [est.method]]),
              json=lambda: {"schema": "disciter/hm/v1", **est.to_dict()},
              svg=lambda: (np.array([t1, t2]), np.array([est.value, est.value]),
                           "arc measure", "theta", "omega"))
        return 0
    if mode == "wos":
        z = _get(cfg, "hm", "z", _complex, 0j)
        domain = harmonic.SlitDiskDomain(_get(cfg, "hm", "slit", _points, []))
        est = harmonic.hm_wos(domain, z,
                              target=_get(cfg, "hm", "target", str, "slit"),
                              n_walks=walks, eps=eps, cap=cap, seed=seed)
        _emit(args, cfg,
              csv=lambda: (["value", "se", "discards"], [[est.value], [est.se], [est.discards]]),
              json=lambda: {"schema": "disciter/hm/v1", **est.to_dict()},
              svg=lambda: (np.array([0.0, 1.0]), np.array([est.value, est.value]),
                           "wos estimate", "", "omega"))
        return 0
    if mode == "tail":
        f = _resolve_map(cfg)
        ns = _grid(cfg, f)
        result = harmonic.tail_hm_series(
            f, _start_point(cfg), ns, n_walks=walks, seed=seed,
            cut=_get(cfg, "hm", "cut", float, 1e-6), eps=eps, cap=cap)
        _emit(args, cfg, csv=result.csv_columns, json=result.to_dict,
              svg=lambda: (result.ns, result.omega * np.sqrt(result.ns.astype(float)),
                           "tail harmonic measure", "n", "omega*sqrt(n)"))
        return 0
    raise ConfigError(f"unknown hm mode {mode!r}")


def _cmd_opnorm(args, cfg):
    f = _resolve_map(cfg)
    p = _get(cfg, "opnorm", "p", float, 2.0)
    alpha = _get(cfg, "opnorm", "alpha", float, 0.0)
    n_max = _get(cfg, "grid", "n_max", int, 10 ** 4)
    if not 1 <= n_max <= f.n_cap:
        raise ConfigError(f"[grid] n_max must lie in [1, {f.n_cap}], got {n_max}")
    report = opnorm.asymptotic_verdicts(f, p, alpha, n_max=n_max)
    _emit(args, cfg, csv=report.series.csv_columns, json=report.to_dict,
          svg=lambda: (np.log(np.maximum(report.series.ns, 1)), report.series.log_hardy_low,
                       f"norm bounds: {f.name}", "log n", "log lower bound"))
    return 0


def _cmd_accept(args, cfg):
    seed = args.seed if args.seed is not None else acceptance.DEFAULT_SEED
    results = acceptance.run_all(seed)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_json(os.path.join(args.out, "acceptance.json"),
                   {"schema": "disciter/acceptance/v1", "seed": seed,
                    "results": [{"name": r.name, "passed": r.passed,
                                 "details": r.details} for r in results]})
    return 1 if n_fail else 0


_SUBCOMMANDS = {
    "orbit": _cmd_orbit, "rate": _cmd_rate, "slope": _cmd_slope, "qg": _cmd_qg,
    "semiflow": _cmd_semiflow, "hm": _cmd_hm, "opnorm": _cmd_opnorm,
    "accept": _cmd_accept,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="disciter",
        description="holomorphic iteration experiments on the unit disc")
    parser.add_argument("subcommand", choices=sorted(_SUBCOMMANDS))
    parser.add_argument("--config", default=None, help="INI experiment config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else {}
        return _SUBCOMMANDS[args.subcommand](args, cfg)
    except (ConfigError, InvalidPointError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
