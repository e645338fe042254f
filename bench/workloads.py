"""The benchmark's workloads: job lists made from a seed, and the output checks.

Every job either calls ``acceptance.run_all`` in-process (workload
``accept``) or calls ``cli.main`` on a config file written here, so the
program receives only generated configs.  A job fails when it raises or
exits nonzero, when an acceptance criterion fails, when a JSON verdict
differs from the known one, when the radial-slit estimate is more than four
standard errors from its exact value, or when an artifact's sha256 differs
from the digest recorded in ``digests.json``.  Artifacts whose config does
not depend on the seed are compared at every seed, the others at
DEFAULT_SEED only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from disciter import acceptance, cli

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 0

CHARTED_MAPS = ("koebe", "hyp:2", "parab-aut")
SWEEP_COMMANDS = ("orbit", "rate", "slope", "qg", "semiflow", "opnorm")
FORMATS = ("csv", "json", "svg")
# opnorm on hyp:2 overflows: RuntimeWarnings, and inf in the CSV.  It is a
# known defect (see facts.json), so the sweep leaves it out.
LEFT_OUT = {("opnorm", "hyp:2")}
QG_VERDICTS = {"koebe": "certified", "hyp:2": "certified", "parab-aut": "refuted"}

WOS_WALKS = 10 ** 5
RADIAL_TIP = 0.5
ORACLE_SIGMAS = 4.0

_HOROCYCLE = tuple(2.0 / 3.0 + np.exp(1j * phi) / 3.0
                   for phi in np.linspace(0.5 * math.pi, 1.5 * math.pi, 49))
# (name, polyline, base of the seeded start points)
SLITS = (
    ("radial", (RADIAL_TIP, 1.0 - 1e-9), -0.3 + 0.3j),
    ("zigzag", (-0.7, -0.5 + 0.2j, -0.3, -0.1 + 0.2j), -0.4 - 0.3j),
    ("horocycle", _HOROCYCLE, 0.0),
)


def radial_exact(tip):
    """omega(0, [tip, 1), D minus [tip, 1)) by the Koebe map: (2/pi) asin((1-r)/(1+r))."""
    return 2.0 / math.pi * math.asin((1.0 - tip) / (1.0 + tip))


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Job:
    """One call into the program and the checks on what it returned or wrote."""

    def __init__(self, job_id, seed, argv=None, artifact=None, seeded=False, expect=None):
        self.id = job_id
        self.seed = seed
        self.argv = argv
        self.artifact = artifact
        self.seeded = seeded
        self.expect = expect or {}

    def prepare(self):
        """Remove the previous artifact, so a job that writes nothing fails."""
        if self.artifact is not None and self.artifact.exists():
            self.artifact.unlink()

    def run(self):
        if self.argv is None:
            return acceptance.run_all(acceptance.DEFAULT_SEED + self.seed)
        return cli.main(self.argv)

    def check(self, value, digests):
        """Failure messages for one run's result; empty when it is correct.
        `digests` is None while digests are being recorded."""
        if self.argv is None:
            return [r.line() for r in value if not r.passed]
        if value != 0:
            return [f"exit code {value}"]
        if not self.artifact.exists():
            return [f"no artifact {self.artifact.name}"]
        failures = self._verdicts()
        if digests is not None and (not self.seeded or self.seed == DEFAULT_SEED):
            want = digests.get(self.id)
            if want is None:
                failures.append("no recorded digest")
            elif sha256(self.artifact) != want:
                failures.append("artifact sha256 differs from the recorded digest")
        return failures

    def _verdicts(self):
        if not self.expect:
            return []
        data = json.loads(self.artifact.read_text())
        failures = []
        if self.expect.get("floor") and data["divergence"]["floor_holds"] is not True:
            failures.append("rate floor_holds is not true")
        if "qg" in self.expect and data["verdict"] != self.expect["qg"]:
            failures.append(f"qg verdict {data['verdict']}, expected {self.expect['qg']}")
        if self.expect.get("semiflow"):
            bad = sorted(k for k, v in data["checks"].items() if not v["passed"])
            if bad:
                failures.append(f"semiflow checks failed: {bad}")
        if "oracle" in self.expect:
            exact = self.expect["oracle"]
            if not abs(data["value"] - exact) <= ORACLE_SIGMAS * data["se"]:
                failures.append(f"radial slit {data['value']} +- {data['se']} vs exact {exact}")
        return failures


def _near(rng, base, radius):
    return complex(base + radius * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))


def _points(verts):
    return ",".join(repr(complex(v)) for v in verts)


def _blackbox(rng, seed):
    floor = {"floor": True}
    specs = [(f"{sub}-quad", sub, "[map]\nname = quad\n", False,
              floor if sub == "rate" else {}) for sub in ("rate", "slope", "orbit", "qg")]
    specs.append(("rate-custom", "rate",
                  "[map]\nname = custom\ncustom_expr = (1 + z*z)/2\n", False, floor))
    for k in range(8):
        z = _near(rng, 0.0, 0.9)
        specs.append((f"rate-quad-start{k}", "rate",
                      f"[map]\nname = quad\nstart = {z!r}\n[grid]\nn_max = 100000\n",
                      True, floor))
    return [(name, sub, "json", cfg, seeded, expect)
            for name, sub, cfg, seeded, expect in specs]


def _wos(rng, seed):
    specs = []
    for name, verts, base in SLITS:
        for target in ("slit", "circle"):
            oracle = name == "radial" and target == "slit"
            z = 0j if oracle else _near(rng, base, 0.05)
            cfg = (f"[hm]\nmode = wos\nz = {z!r}\ntarget = {target}\nslit = {_points(verts)}\n"
                   f"[wos]\nwalks = {WOS_WALKS}\nseed = {16 * seed + len(specs)}\n")
            expect = {"oracle": radial_exact(RADIAL_TIP)} if oracle else {}
            specs.append((f"{name}-{target}", "hm", "json", cfg, True, expect))
    return specs


def _charted_sweep(rng, seed):
    specs = []
    for m in CHARTED_MAPS:
        for sub in SWEEP_COMMANDS:
            if (sub, m) in LEFT_OUT:
                continue
            for fmt in FORMATS:
                expect = {}
                if fmt == "json":
                    expect = {"rate": {"floor": True}, "qg": {"qg": QG_VERDICTS[m]},
                              "semiflow": {"semiflow": True}}.get(sub, {})
                specs.append((f"{sub}-{m.replace(':', '')}-{fmt}", sub, fmt,
                              f"[map]\nname = {m}\n", False, expect))
    for fmt in FORMATS:
        specs.append((f"hm-arc-{fmt}", "hm", fmt, "[hm]\nmode = arc\n", False, {}))
    return specs


_BUILDERS = {"blackbox": _blackbox, "wos": _wos, "charted-sweep": _charted_sweep}


def build(workload, seed):
    """The workload's fixed job list for `seed`; writes its config files."""
    if workload == "accept":
        return [Job("accept/run_all", seed, seeded=True)]
    specs = _BUILDERS[workload](np.random.default_rng(seed), seed)
    jobs = []
    for name, sub, fmt, cfg, seeded, expect in specs:
        job_dir = WORK / workload / name
        os.makedirs(job_dir, exist_ok=True)
        cfg_path = job_dir / "config.ini"
        cfg_path.write_text(cfg)
        argv = [sub, "--config", str(cfg_path), "--out", str(job_dir / "out"),
                "--format", fmt]
        jobs.append(Job(f"{workload}/{name}", seed, argv, job_dir / "out" / f"{sub}.{fmt}",
                        seeded, expect))
    return jobs
