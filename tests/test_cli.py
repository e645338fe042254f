import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import disciter
from disciter import maps, semiflow
from disciter.cli import load_config, main
from disciter.errors import ConfigError, InvalidPointError


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = """
[map]
name = koebe
start = 0

[grid]
n_max = 1000
"""


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(_write(tmp_path, BASIC))
        assert cfg["map"]["name"] == "koebe"

    def test_unknown_key_rejected(self, tmp_path):
        bad = BASIC + "\n[rate]\nbananas = 7\n"
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, BASIC + "\n[nonsense]\nx = 1\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(_write(tmp_path, "[map]\nname koebe\n"))
        assert "line" in str(err.value)


class TestSubcommands:
    def test_orbit_quad_first_points(self, tmp_path):
        cfg = _write(tmp_path, "[map]\nname = quad\nstart = 0\n"
                               "[grid]\ninclude = 0,1,2,3\n")
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "orbit.csv").read_text().strip().splitlines()
        assert rows[0] == "n,re,im,saturated"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert values == [0.0, 0.5, 0.625, 0.6953125]

    def test_rate_csv_koebe_column(self, tmp_path):
        # koebe converges non-tangentially, so its default bound is -1/2;
        # [rate] non_tangential = false asks for the general -1/4
        for extra, bound in (("", -0.5), ("[rate]\nnon_tangential = false\n", -0.25)):
            cfg = _write(tmp_path, BASIC + extra)
            out = tmp_path / f"out{bound}"
            assert main(["rate", "--config", cfg, "--out", str(out)]) == 0
            rows = (out / "rate.csv").read_text().strip().splitlines()
            header = rows[0].split(",")
            assert header == ["n", "d", "one_minus_mod", "dist_to_tau", "step"]
            n, d = rows[-1].split(",")[:2]
            assert float(d) == pytest.approx(0.25 * math.log(float(n) + 1.0), abs=1e-12)
            assert main(["rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
            payload = json.loads((out / "rate.json").read_text())
            assert payload["euclidean"]["exponent_bound"] == bound

    def test_empty_grid_is_usage_error(self, tmp_path):
        cfg = _write(tmp_path, "[map]\nname = koebe\n[grid]\nn_max = 0\n")
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "rate.csv").exists()

    def test_reproducible_bytes(self, tmp_path):
        cfg = _write(tmp_path, "[map]\nname = koebe\nstart = 0\n[grid]\nn_max = 50\n"
                               "[hm]\nmode = tail\n[wos]\nwalks = 2000\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["hm", "--config", cfg, "--out", str(out), "--seed", "5",
                         "--format", "csv"])
            assert code == 0
        assert (out_a / "hm.csv").read_bytes() == (out_b / "hm.csv").read_bytes()

    def test_json_and_svg_outputs(self, tmp_path):
        cfg = _write(tmp_path, BASIC)
        out = tmp_path / "out"
        assert main(["slope", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads((out / "slope.json").read_text())
        assert payload["schema"].startswith("disciter/")
        assert payload["verdict"] == "non-tangential"
        assert main(["slope", "--config", cfg, "--out", str(out),
                     "--format", "svg"]) == 0
        svg = (out / "slope.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_qg_json(self, tmp_path):
        # the box (A <= 10, B <= 1000) only fails past m ~ 2300 for this map,
        # so the default m_max = 1e4 is what exhibits the refutation
        cfg = _write(tmp_path, "[map]\nname = parab-aut\nstart = 0\n"
                               "[qg]\nm_max = 10000\n")
        out = tmp_path / "out"
        assert main(["qg", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "qg.json").read_text())
        assert payload["verdict"] == "refuted"
        assert payload["box"] == {"a_max": 10.0, "b_max": 1000.0}

    def test_semiflow_rejects_quad(self, tmp_path):
        cfg = _write(tmp_path, "[map]\nname = quad\nstart = 0\n")
        assert main(["semiflow", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_opnorm_csv(self, tmp_path):
        cfg = _write(tmp_path, "[map]\nname = hyp:2\n[grid]\nn_max = 100\n"
                               "[opnorm]\np = 2\nalpha = 0\n")
        out = tmp_path / "out"
        assert main(["opnorm", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "opnorm.csv").read_text().splitlines()[0]
        assert header == "n,mod_f0,hardy_lo,hardy_hi,bergman_lo,bergman_hi"

    @pytest.mark.parametrize("section, line", [
        ("opnorm", "p = nan"), ("opnorm", "p = 0"), ("opnorm", "p = -1"),
        ("opnorm", "p = inf"), ("opnorm", "alpha = -5"), ("opnorm", "alpha = nan"),
        ("opnorm", "alpha = inf"), ("grid", "n_max = 0"), ("grid", "n_max = -3"),
        ("grid", "n_max = 10000001")])
    def test_opnorm_bad_value_exits_2(self, tmp_path, capsys, section, line):
        cfg = _write(tmp_path, f"[map]\nname = koebe\n[{section}]\n{line}\n")
        out = tmp_path / "out"
        assert main(["opnorm", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_custom_map(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[map]\nname = custom\ncustom_expr = (1 + z*z)/2\n"
                               "[grid]\ninclude = 0,1,2\n")
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "orbit.csv").read_text().strip().splitlines()
        assert float(rows[2].split(",")[1]) == 0.5
        # a rule that leaves the disc is a usage error, not a traceback or a file
        cfg = _write(tmp_path, "[map]\nname = custom\ncustom_expr = z + 0.5\n", name="leaves.ini")
        for sub in ("rate", "slope", "orbit"):
            capsys.readouterr()
            out = tmp_path / f"leaves-{sub}"
            assert main([sub, "--config", cfg, "--out", str(out)]) == 2, sub
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err, sub
            assert not (out / f"{sub}.csv").exists(), sub
        # so is a rule that divides by zero once its orbit saturates onto z = 1
        cfg = _write(tmp_path, "[map]\nname = custom\nstart = 0.5j\ncustom_expr = "
                               "(2*(1+z)/(1-z) - 1)/(2*(1+z)/(1-z) + 1)\n", name="pole.ini")
        capsys.readouterr()
        out = tmp_path / "pole"
        assert main(["rate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (out / "rate.csv").exists()

    @pytest.mark.parametrize("sub, text", [
        ("hm", "[hm]\nz = abc\n"),
        ("hm", "[hm]\nmode = wos\nslit = 0.5,xyz\n"),
        ("orbit", "[map]\nstart = abc\n"),
        ("orbit", "[grid]\ninclude = 1,x\n"),
        ("orbit", "[grid]\ninclude = ,\n"),
        ("orbit", "[map]\nname = hyp:abc\n"),
    ], ids=["hm-z", "hm-slit", "start", "include", "include-empty", "hyp-lambda"])
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, sub, text):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main([sub, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("sub, text", [
        ("semiflow", "[semiflow]\nt_max = -5\n"),
        ("semiflow", "[semiflow]\nt_max = 0\n"),
        ("semiflow", "[semiflow]\nt_max = 0.5\n"),
        ("semiflow", "[semiflow]\nt_max = nan\n"),
        ("semiflow", "[semiflow]\nt_max = inf\n"),
        ("semiflow", "[semiflow]\nt_max = 1e5\n"),
        ("semiflow", "[semiflow]\nn_embed = -1\n"),
        ("semiflow", "[semiflow]\nn_embed = 100000000\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = z +\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = q * z\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = z(1)\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = z.nothing\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = [z]\n"),
        ("orbit", "[map]\nname = custom\ncustom_expr = 'a'\n"),
        ("rate", "[rate]\nnon_tangential = ture\n"),
        ("qg", "[qg]\nm_max = 0\n"),
        ("hm", "[hm]\nmode = tail\ncut = 0\n"),
        ("hm", "[hm]\nmode = wos\nslit = 0.4,0.8\n[wos]\nwalks = -5\n"),
    ], ids=["t_max-neg", "t_max-0", "t_max-half", "t_max-nan", "t_max-inf",
            "t_max-huge", "n_embed-neg", "n_embed-huge", "expr-syntax", "expr-name",
            "expr-type", "expr-attr", "expr-list", "expr-str", "bool-typo", "qg-m_max-0",
            "tail-cut-0", "wos-walks-neg"])
    def test_bad_value_exits_2_in_every_format(self, tmp_path, capsys, sub, text, fmt):
        cfg = _write(tmp_path, text)
        out = tmp_path / "out"
        assert main([sub, "--config", cfg, "--out", str(out), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("raw, bound", [
        ("OFF", -0.25), ("no", -0.25), ("0", -0.25), ("False", -0.25),
        ("Yes", -0.5), ("on", -0.5), ("1", -0.5), (" TRUE ", -0.5)])
    def test_bool_spellings(self, tmp_path, raw, bound):
        cfg = _write(tmp_path, BASIC + f"[rate]\nnon_tangential = {raw}\n")
        out = tmp_path / "out"
        assert main(["rate", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "rate.json").read_text())
        assert payload["euclidean"]["exponent_bound"] == bound

    def test_semiflow_checks_run_only_for_json(self, tmp_path, monkeypatch):
        cfg = _write(tmp_path, "[map]\nname = hyp:2\n")
        before = tmp_path / "before"
        for fmt in ("csv", "svg"):
            assert main(["semiflow", "--config", cfg, "--out", str(before), "--format", fmt]) == 0

        def refuse(*args, **kwargs):
            raise RuntimeError("a semiflow check ran")

        for name in ("embed_check", "invariance_check", "lipschitz_hyperbolic_check",
                     "lipschitz_euclidean_check"):
            monkeypatch.setattr(semiflow, name, refuse)
        after = tmp_path / "after"
        for fmt in ("csv", "svg"):
            assert main(["semiflow", "--config", cfg, "--out", str(after), "--format", fmt]) == 0
            name = f"semiflow.{fmt}"
            assert (after / name).read_bytes() == (before / name).read_bytes()
        with pytest.raises(RuntimeError):
            main(["semiflow", "--config", cfg, "--out", str(after), "--format", "json"])
        assert not (after / "semiflow.json").exists()


# The benchmark's recorded artifact digests, read only here.
DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
CHARTED = ("koebe", "hyp:2", "parab-aut")


# (digest key, subcommand, config, format) of the benchmark's jobs whose
# artifacts do not depend on its seed: charted-sweep semiflow and opnorm, and
# the black-box jobs with the default start.
DIGEST_JOBS = [
    pytest.param(f"charted-sweep/{sub}-{name.replace(':', '')}-{fmt}", sub,
                 f"[map]\nname = {name}\n", fmt, id=f"{sub}-{name}-{fmt}")
    for sub in ("semiflow", "opnorm") for name in CHARTED
    for fmt in ("csv", "json", "svg") if (sub, name) != ("opnorm", "hyp:2")]
DIGEST_JOBS += [
    pytest.param(f"blackbox/{sub}-quad", sub, "[map]\nname = quad\n", "json",
                 id=f"blackbox-{sub}-quad") for sub in ("rate", "slope", "orbit", "qg")]
DIGEST_JOBS.append(pytest.param(
    "blackbox/rate-custom", "rate", "[map]\nname = custom\ncustom_expr = (1 + z*z)/2\n",
    "json", id="blackbox-rate-custom"))


@pytest.mark.parametrize("job, sub, config, fmt", DIGEST_JOBS)
def test_artifact_bytes_match_the_recorded_digest(tmp_path, job, sub, config, fmt):
    cfg = _write(tmp_path, config, "config.ini")
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "out"), "--format", fmt]) == 0
    got = hashlib.sha256((tmp_path / "out" / f"{sub}.{fmt}").read_bytes()).hexdigest()
    assert got == DIGESTS[job]


@pytest.mark.parametrize("lam", ["1.2", "2", "2.5", "3", "5", "10", "100", "1e6"])
def test_semiflow_passes_on_every_hyperbolic_rate(tmp_path, lam):
    # the default horizon keeps 1 - |phi_t(0)| above double precision for any lam
    cfg = _write(tmp_path, f"[map]\nname = hyp:{lam}\n")
    assert main(["semiflow", "--config", cfg, "--out", str(tmp_path), "--format", "json"]) == 0
    checks = json.loads((tmp_path / "semiflow.json").read_text())["checks"]
    assert sorted(k for k, v in checks.items() if v["passed"]) == [
        "embed", "invariance", "lipschitz_euclidean", "lipschitz_hyperbolic"]


def test_hyperbolic_horizon_is_40_up_to_lam_2():
    for lam in (1.2, 2.0):
        assert semiflow.make_trajectory(maps.hyperbolic_automorphism(lam), 0.0).horizon == 40.0
    for lam in (3.0, 5.0, 1e6):
        assert semiflow.make_trajectory(maps.hyperbolic_automorphism(lam), 0.0).horizon \
            == 28.0 / math.log(lam)
    # from a start within about 1e-13 of the circle no horizon keeps the
    # trajectory off it; the horizon stops at the shortest t_max
    assert semiflow.make_trajectory(maps.hyperbolic_automorphism(2.0),
                                    0.9999999999999j).horizon == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start", ["0.999999j", "-0.999999", "0.9+0.4j"])
@pytest.mark.parametrize("lam", ["1.2", "2", "3"])
def test_semiflow_passes_from_a_start_near_the_circle(tmp_path, lam, start):
    # the default horizon shortens with 1 - |z0|, so phi_t stays off the circle
    cfg = _write(tmp_path, f"[map]\nname = hyp:{lam}\nstart = {start}\n")
    assert main(["semiflow", "--config", cfg, "--out", str(tmp_path), "--format", "json"]) == 0
    checks = json.loads((tmp_path / "semiflow.json").read_text())["checks"]
    assert all(v["passed"] for v in checks.values())


def test_start_off_the_strip_is_refused_with_the_chart_message():
    # z0 = -2 gives c0 = (1 + z0)/(1 - z0) = -1/3, cos(theta) = -1: the horizon
    # is not computed from log(cos(theta)), and the start is refused
    with pytest.raises(InvalidPointError, match="outside the chart image"):
        maps._kernel_at(maps.hyperbolic_automorphism(2.0), -2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sub", ["orbit", "rate", "slope", "qg", "semiflow"])
def test_start_on_the_slit_tip_is_refused(tmp_path, capsys, sub):
    # this start's chart coordinate rounds onto the slit tip w = -1
    cfg = _write(tmp_path, "[map]\nname = koebe\nstart = -0.999999999999999\n")
    assert main([sub, "--config", cfg, "--out", str(tmp_path), "--format", "json"]) == 2
    assert "chart coordinate (-1+0j) is outside the chart image" in capsys.readouterr().err
    assert not (tmp_path / f"{sub}.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", CHARTED)
@pytest.mark.parametrize("n_max", [2, 3])
def test_opnorm_on_a_short_grid_warns_nothing(tmp_path, name, n_max):
    # these grids keep n = 1, where the tail-min ratios' log n vanishes
    cfg = _write(tmp_path, f"[map]\nname = {name}\n[grid]\nn_max = {n_max}\n")
    for fmt in ("csv", "json", "svg"):
        assert main(["opnorm", "--config", cfg, "--out", str(tmp_path), "--format", fmt]) == 0
    ratios = json.loads((tmp_path / "opnorm.json").read_text())["tail_min_ratio"]
    assert all(math.isfinite(v) for v in ratios.values())


class TestHmModes:
    def test_arc_mode(self, tmp_path):
        cfg = _write(tmp_path, "[hm]\nmode = arc\nz = 0\ntheta1 = 0\n"
                               f"theta2 = {math.pi}\n")
        out = tmp_path / "out"
        assert main(["hm", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        payload = json.loads((out / "hm.json").read_text())
        assert payload["value"] == pytest.approx(0.5, abs=1e-10)
        assert payload["method"] == "poisson-quadrature"

    def test_wos_mode(self, tmp_path):
        cfg = _write(tmp_path, "[hm]\nmode = wos\nz = 0\nslit = 0.4, 0.8\n"
                               "target = slit\n[wos]\nwalks = 4000\n")
        out = tmp_path / "out"
        assert main(["hm", "--config", cfg, "--out", str(out), "--seed", "9",
                     "--format", "json"]) == 0
        payload = json.loads((out / "hm.json").read_text())
        assert 0.0 < payload["value"] < 1.0
        assert payload["method"] == "wos-monte-carlo"
        assert payload["se"] > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["parab-aut", "hyp:2"])
    def test_tail_mode_off_the_slit_plane(self, tmp_path, name):
        cfg = _write(tmp_path, f"[map]\nname = {name}\n[grid]\nn_max = 16\n"
                               "[hm]\nmode = tail\n[wos]\nwalks = 2000\n")
        out = tmp_path / "out"
        assert main(["hm", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert math.isfinite(json.loads((out / "hm.json").read_text())["max_omega_sqrt_n"])

    def test_seed_flag_replaces_the_config_seed(self, tmp_path):
        base = "[hm]\nmode = wos\nz = 0\nslit = 0.4, 0.8\n[wos]\nwalks = 2000\n"
        runs = {"flag": (base + "seed = 3\n", ["--seed", "9"]),
                "config": (base + "seed = 9\n", []), "other": (base + "seed = 3\n", [])}
        got = {}
        for name, (text, flag) in runs.items():
            cfg = _write(tmp_path, text, f"{name}.ini")
            assert main(["hm", "--config", cfg, "--out", str(tmp_path / name),
                         "--format", "json", *flag]) == 0
            got[name] = (tmp_path / name / "hm.json").read_bytes()
        assert got["flag"] == got["config"] != got["other"]

    def test_unknown_mode_rejected(self, tmp_path):
        cfg = _write(tmp_path, "[hm]\nmode = banana\n")
        assert main(["hm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestCustomFromFile:
    def test_custom_map_config_file(self, tmp_path):
        sub = _write(tmp_path, "[map]\ncustom_expr = (1 + z*z)/2\n"
                               "custom_tau_angle = 0.0\ncustom_fprime_tau = 1.0\n",
                     name="mymap.ini")
        cfg = _write(tmp_path, f"[map]\nname = custom:{sub}\nstart = 0\n"
                               "[grid]\ninclude = 0,1,2,3\n")
        out = tmp_path / "out"
        assert main(["orbit", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "orbit.csv").read_text().strip().splitlines()
        assert float(rows[-1].split(",")[1]) == 0.6953125


class TestAccept:
    def test_accept_runs_green_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "acc"
        assert main(["accept", "--out", str(out)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert len(lines) == 11
        assert all(ln.startswith("PASS criterion-") for ln in lines)
        payload = json.loads((out / "acceptance.json").read_text())
        assert payload["schema"] == "disciter/acceptance/v1"
        assert len(payload["results"]) == 11


class TestImport:
    def test_module_run_has_no_runpy_warning(self):
        src = os.path.dirname(os.path.dirname(disciter.__file__))
        out = subprocess.run([sys.executable, "-m", "disciter.cli", "accept", "--help"],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert "RuntimeWarning" not in out.stderr

    def test_cli_import_leaves_scipy_out(self):
        # nor multiprocessing or concurrent.futures: the walk-on-spheres
        # worker is a bare os.fork, which import time does not pay for
        heavy = ["scipy", "multiprocessing", "concurrent.futures"]
        code = f"import sys, disciter.cli; print([m for m in {heavy!r} if m in sys.modules])"
        src = os.path.dirname(os.path.dirname(disciter.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
def test_custom_expr_cannot_write_files(tmp_path, monkeypatch, capsys, fmt):
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "[map]\nname = custom\n"
                           "custom_expr = np.savetxt('pwned.txt', [1]) or (1+z*z)/2\n")
    assert main(["orbit", "--config", cfg, "--out", "out", "--format", fmt]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not allowed" in err
    assert sorted(os.listdir(tmp_path)) == ["exp.ini"]


@pytest.mark.parametrize("expr", [
    "np.zeros(2) + z", "cmath.polar(z)", "z.real", "np.exp(z, out=None)", "z // 2",
    "(lambda: z)()", "[z][0]", "2**3 * z", "abs(-2)**2 * z", "'z'", "True * z"])
def test_custom_expr_outside_the_grammar_is_refused(tmp_path, capsys, expr):
    cfg = _write(tmp_path, f"[map]\nname = custom\ncustom_expr = {expr}\n")
    assert main(["orbit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "is not allowed" in capsys.readouterr().err


def test_percent_in_a_value_is_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, "[map]\nname = custom\ncustom_expr = z % 2\n")
    assert main(["orbit", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


# custom_expr text: the allowed grammar, mixed with nodes it forbids
_ALLOWED_LEAVES = ["z", "0", "1", "2", "0.5", "3.0", "0.25j", "(1+2j)", "cmath.pi", "np.e"]
_FORBIDDEN_LEAVES = ["'a'", "[z]", "q", "z.real", "True", "None", "...", "np",
                     "__import__('os')", "open('pwned.txt', 'w')",
                     "np.savetxt('pwned.txt', [1])", "np.zeros", "cmath.polar"]
_ALLOWED_UNARY = ["-{}", "+{}", "abs({})", "cmath.exp({})", "cmath.sqrt({})",
                  "cmath.log({})", "cmath.atanh({})", "np.sin({})", "np.sqrt({})",
                  "np.conj({})", "np.real({})", "cmath.phase({})"]
_FORBIDDEN_UNARY = ["not {}", "~{}", "({})[0]", "np.savetxt('pwned.txt', [{}])",
                    "(lambda: {})()", "abs(x={})", "np.exp({}, out=None)"]
_ALLOWED_BINARY = ["+", "-", "*", "/", "**"]
_FORBIDDEN_BINARY = ["%", "//", " or ", " and ", " < ", " if z else "]


def _nodes(allowed, forbidden):
    return st.one_of(*[st.sampled_from(allowed)] * 3, st.sampled_from(forbidden))


def _extend(children):
    unary = st.builds(str.format, _nodes(_ALLOWED_UNARY, _FORBIDDEN_UNARY), children)
    binary = st.builds("({}){}({})".format, children,
                       _nodes(_ALLOWED_BINARY, _FORBIDDEN_BINARY), children)
    return unary | binary


_EXPRESSIONS = st.recursive(_nodes(_ALLOWED_LEAVES, _FORBIDDEN_LEAVES), _extend, max_leaves=6)


def _exits_0_or_2_and_writes_only_out(config, sub, fmt="csv"):
    """Run `sub` on the config text in a fresh directory; it must exit 0 or
    2, write nothing outside out/ and leave no child process."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("exp.ini").write_text(config)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([sub, "--config", "exp.ini", "--out", "out", "--format", fmt])
            assert code in (0, 2), config
            written = {str(p) for p in Path(".").rglob("*")}
            assert written <= {"exp.ini", "out", f"out/{sub}.{fmt}"}, config
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        finally:
            os.chdir(cwd)


@settings(max_examples=50, deadline=None)
@given(expr=_EXPRESSIONS, sub=st.sampled_from(["orbit", "rate", "slope"]),
       n_max=st.integers(1, 100))
def test_custom_expr_exits_0_or_2_and_writes_only_out(expr, sub, n_max):
    _exits_0_or_2_and_writes_only_out(
        f"[map]\nname = custom\ncustom_expr = {expr}\n[grid]\nn_max = {n_max}\n", sub)


def _mostly(valid, odd):
    """Valid values about four times in five, odd (malformed or out of range)
    ones otherwise."""
    return st.sampled_from([valid] * 4 + [odd]).flatmap(lambda strategy: strategy)


def _text(strategy):
    return strategy.map(str)


_ODD_NUMBERS = st.one_of(st.floats(-2.0, 2.0).map(repr),
                         st.sampled_from(["nan", "inf", "-inf", "0", "1e300", "x", ""]))
_ODD_POINTS = st.one_of(st.complex_numbers(min_magnitude=0.9, max_magnitude=1.5).map(repr),
                        st.sampled_from(["nan", "inf", "1+", "x", ""]))
_POINTS = _mostly(st.complex_numbers(max_magnitude=0.9).map(repr), _ODD_POINTS)
_MAPS = _mostly(st.sampled_from(["koebe", "hyp:2", "parab-aut", "quad"]),
                st.sampled_from(["hyp:0.5", "banana", ""]))
_FORMATS = st.sampled_from(["csv", "json", "svg"])
# a step cap always: the default 10**5 steps of every walk is slow when eps <= 0
_CAPS = _text(_mostly(st.integers(20, 300), st.integers(-2, 5)))


def _section(title, **values):
    """An INI section of the given (key, value) pairs; None leaves a key out."""
    lines = [f"{k} = {v}" for k, v in values.items() if v is not None]
    return f"[{title}]\n" + "".join(line + "\n" for line in lines)


@settings(max_examples=30, deadline=None)
@given(name=_MAPS, start=st.none() | _POINTS, fmt=_FORMATS,
       m_max=st.none() | _mostly(_text(st.integers(1, 300)),
                                 _text(st.integers(-2, 0)) | st.sampled_from(["x", "1.5"])))
def test_qg_exits_0_or_2_and_writes_only_out(name, start, fmt, m_max):
    _exits_0_or_2_and_writes_only_out(
        _section("map", name=name, start=start) + _section("qg", m_max=m_max), "qg", fmt)


@settings(max_examples=40, deadline=None)
@given(z=st.none() | _POINTS, slit=_mostly(st.lists(_POINTS, min_size=1, max_size=4),
                                            st.just([])).map(",".join),
       target=_mostly(st.sampled_from(["slit", "circle"]), st.sampled_from(["arc", ""])),
       walks=_mostly(_text(st.integers(1, 2000)),
                     _text(st.integers(-3, 0)) | st.sampled_from(["x", "1e3"])),
       cap=_CAPS, eps=st.none() | _mostly(st.floats(1e-5, 0.1).map(repr), _ODD_NUMBERS),
       seed=st.none() | _text(st.integers(0, 10 ** 6)), fmt=_FORMATS)
def test_hm_wos_exits_0_or_2_and_writes_only_out(z, slit, target, walks, cap, eps, seed, fmt):
    _exits_0_or_2_and_writes_only_out(
        _section("hm", mode="wos", z=z, slit=slit, target=target)
        + _section("wos", walks=walks, cap=cap, epsilon=eps, seed=seed), "hm", fmt)


_TAIL_GRIDS = _mostly(
    st.one_of(st.integers(1, 4).map(lambda n: {"n_max": str(n)}),
              st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=3).map(
                  lambda ns: {"include": ",".join(map(str, ns))})),
    st.sampled_from([{"n_max": "0"}, {"n_max": "-1"}, {"include": "-2"}, {"include": "0,x"}]))


@settings(max_examples=25, deadline=None)
@given(name=_mostly(st.just("koebe"), _MAPS), start=st.none() | _POINTS, grid=_TAIL_GRIDS,
       cut=st.none() | _mostly(st.floats(1e-8, 1e-3).map(repr), _ODD_NUMBERS),
       walks=_mostly(_text(st.integers(1, 300)), _text(st.integers(-1, 0))), cap=_CAPS,
       fmt=_FORMATS)
def test_hm_tail_exits_0_or_2_and_writes_only_out(name, start, grid, cut, walks, cap, fmt):
    _exits_0_or_2_and_writes_only_out(
        _section("map", name=name, start=start) + _section("grid", **grid)
        + _section("hm", mode="tail", cut=cut) + _section("wos", walks=walks, cap=cap),
        "hm", fmt)


_OPNORM_N_MAX = _mostly(_text(st.integers(1, 300)),
                        _text(st.integers(-2, 0)) | st.sampled_from(["x", "1.5", "10000001"]))


@settings(max_examples=30, deadline=None)
@given(name=_MAPS, fmt=_FORMATS,
       p=st.none() | _mostly(st.floats(1.0, 8.0).map(repr), _ODD_NUMBERS),
       alpha=st.none() | _mostly(st.floats(-0.99, 4.0).map(repr), _ODD_NUMBERS),
       n_max=st.none() | _OPNORM_N_MAX)
def test_opnorm_exits_0_or_2_and_writes_only_out(name, fmt, p, alpha, n_max):
    # the default n_max, 10**4, when the draw leaves it out.  hyp:2 writes
    # inf bounds: a known defect this check does not look at
    _exits_0_or_2_and_writes_only_out(
        _section("map", name=name) + _section("grid", n_max=n_max)
        + _section("opnorm", p=p, alpha=alpha), "opnorm", fmt)


@settings(max_examples=30, deadline=None)
@given(name=_MAPS, start=st.none() | _POINTS, fmt=_FORMATS,
       t_max=st.none() | _mostly(st.floats(1.0, 40.0).map(repr), _ODD_NUMBERS),
       n_embed=st.none() | _mostly(_text(st.integers(0, 300)),
                                   _text(st.integers(-3, -1))
                                   | st.sampled_from(["x", "1.5", "99999999999"])))
def test_semiflow_exits_0_or_2_and_writes_only_out(name, start, fmt, t_max, n_embed):
    _exits_0_or_2_and_writes_only_out(
        _section("map", name=name, start=start)
        + _section("semiflow", t_max=t_max, n_embed=n_embed), "semiflow", fmt)
