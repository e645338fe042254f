"""disciter benchmark: set-up, pass time, memory and output checks per workload.

    python3 bench/run.py --workload accept|blackbox|wos|charted-sweep|all \
        --seed N --seconds S --trace 0|1

One process runs the workload's fixed job list (see workloads.py) with BLAS
threads set to 1: a warm-up pass, then timed passes for S seconds.  --trace 0
reports the end-to-end metrics setup_s (median over fresh interpreters),
pass_s (median pass), pass_s_tail and peak_rss_mb.  Pass times are
calibrated: on a shared 2-vCPU KVM guest the same pass reads up to 1.6 times
slower, for seconds to minutes, while other tenants load the host, so a fixed
reference is timed between passes and each pass is scaled to the reference's
quiet-host time (REF_QUIET_S).  Over ten seeds of 20-second runs the
uncalibrated pass time moved 18-35% between runs and the calibrated median
7-18%.  The raw median is printed beside it.  --trace 1 measures untraced passes for S/2 seconds and traced
passes (tracing.py) for S/2 seconds or 20 passes, reports the per-layer
metrics (medians over the traced passes) and writes every span to
.bench_work/trace-<workload>-seed<N>.json.  Every job's output is checked in
both modes.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

BENCHMARK.json gates accept and charted-sweep in 50-second runs; between them
they reach every layer.  blackbox and wos run the same way but are not gated:
four gated workloads leave 20 s per run, and over ten 20-second runs the
calibrated blackbox median still moved up to 18%.  --workload all runs the
four one after another, each in its own process, and prints a summary.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("accept", "blackbox", "wos", "charted-sweep")
SETUP_PROBES = 5
# A traced charted-sweep pass records about 6,000 spans; twenty passes give
# stable medians without holding millions of spans in memory.
TRACED_PASSES_MAX = 20
# The host's speed drifts by up to 1.6 times, for seconds to minutes, as other
# tenants load it.  A fixed reference is timed before the first pass, after
# each pass that ends REF_EVERY_S or more after the last reference, and after
# the last pass.  Each pass time is scaled by REF_QUIET_S, the reference's time
# on a quiet host, over the mean of the two reference times around it.
REF_EVERY_S = 2.0
REF_QUIET_S = 0.125
# As many points as a walk-on-spheres chunk: the reference's arrays then
# outgrow L2 like the 48-segment walks do, which made it track their speed
# (a 2048-point reference tracked it half as well).
_REF_POINTS = np.linspace(-0.5, 0.5, 1 << 14) + 0.3j
_REF_POLYLINE = np.exp(1j * np.linspace(0.0, 3.0, 49))
# Set-up as a user pays it: a fresh interpreter imports the CLI and the
# benchmark builds its job list.
PROBE = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
         "import disciter.cli, workloads; workloads.build(sys.argv[3], int(sys.argv[4])); "
         "print('ready', flush=True)")


class ProgramMissing(Exception):
    pass


def load_program():
    """Import disciter from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "disciter").is_dir():
        raise ProgramMissing(f"no disciter package under {src}")
    sys.path.insert(0, str(src))
    try:
        import disciter
    except ImportError as exc:
        raise ProgramMissing(f"cannot import disciter: {exc}") from exc
    if not Path(disciter.__file__).resolve().is_relative_to(src):
        raise ProgramMissing(f"disciter was imported from {disciter.__file__}, not {src}")
    import tracing
    import workloads
    return workloads, tracing


def machine_facts():
    """What this run can tell about its machine; cache sizes are in facts.json."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": getattr(sys.modules.get("scipy"), "__version__", "not imported"),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_seconds(workload, seed):
    """Median over fresh interpreters of the time until the job list is built."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(ROOT / "src"), str(BENCH),
                               workload, str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise ProgramMissing(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


class Tally:
    """Attempted and failed jobs over the whole run."""

    def __init__(self, digests):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, job, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.append(f"{job.id}: {'; '.join(failures)}")


def run_job(job, tally, tracer=None):
    """Run and check one job; returns (seconds, failed, RuntimeWarnings)."""
    job.prepare()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            value, error = job.run(), None
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            value, error = None, exc
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_job()
    if error is not None:
        failures = [f"raised {error!r}"]
    else:
        try:
            failures = job.check(value, tally.digests)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            failures = [f"output check raised {exc!r}"]
    tally.record(job, failures)
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return elapsed, bool(failures), n_warn


def run_pass(jobs, tally, tracer=None):
    """One pass over the job list; returns (pass seconds, per-job records)."""
    records = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
            before = dict(tracer.counts)
        elapsed, failed, n_warn = run_job(job, tally, tracer)
        counts = {}
        if tracer is not None:
            counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                      if v != before.get(k, 0)}
        records.append({"job": job.id, "seconds": elapsed, "failed": failed,
                        "runtime_warnings": n_warn, "counts": counts})
    return sum(r["seconds"] for r in records), records


def reference_seconds():
    """Time of a fixed mix of the program's two kinds of work: a scalar Python
    loop like black-box composition, and a vectorised point-to-polyline
    distance like walk-on-spheres."""
    t0 = time.perf_counter()
    z = 0j
    for _ in range(50000):
        z = (1.0 + z * z) / 2.0
    a, ab = _REF_POLYLINE[:-1], np.diff(_REF_POLYLINE)
    pc = _REF_POINTS[:, None]
    for _ in range(6):
        t = np.clip(((pc - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
        np.abs(pc - (a + t * ab)).min(axis=-1)
    return time.perf_counter() - t0


def measure(jobs, tally, seconds, tracer=None, max_passes=None):
    """Passes until `seconds` are spent; a pass starts only if it should end in
    time.  Returns the raw and the calibrated pass times and, per pass, its
    span range and job records."""
    times, after_ref, passes = [], [], []
    refs = [reference_seconds()]
    last_ref = time.perf_counter()
    deadline = last_ref + seconds
    while len(times) != max_passes:
        first_span = len(tracer.spans) if tracer is not None else 0
        elapsed, records = run_pass(jobs, tally, tracer)
        times.append(elapsed)
        after_ref.append(len(refs) - 1)
        passes.append((first_span, len(tracer.spans) if tracer is not None else 0, records))
        if deadline - time.perf_counter() < statistics.median(times):
            break
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(reference_seconds())
            last_ref = time.perf_counter()
    if after_ref[-1] == len(refs) - 1:
        refs.append(reference_seconds())
    calibrated = [t * REF_QUIET_S * 2.0 / (refs[k] + refs[k + 1])
                  for t, k in zip(times, after_ref)]
    return times, calibrated, passes


def tail(times):
    """The highest percentile of pass time with ten passes beyond it, as
    (value, percentile).  A tail is never below the median, so with fewer than
    21 passes, where that percentile would be, the median stands in."""
    ordered = sorted(times)
    i = len(ordered) - 11
    if 2 * (i + 1) <= len(ordered):
        return statistics.median(ordered), 50.0
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def traced_metrics(tracing, tracer, passes, plain_times, traced_times):
    selfs = tracing.self_times(tracer.spans)
    per_pass = []
    for first, last, records in passes:
        counts = {}
        for r in records:
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0) + v
        m = tracing.layer_metrics(tracer.spans[first:last], selfs[first:last],
                                  defaultdict(int, counts))
        m["cli.jobs"] = len(records)
        m["cli.failed"] = sum(r["failed"] for r in records)
        m["cli.runtime_warnings"] = sum(r["runtime_warnings"] for r in records)
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced_times)
                                      / statistics.median(plain_times) - 1.0)
    return metrics


def write_trace(path, header, tracer):
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    doc = dict(header, span_fields=["name", "start_ns", "end_ns", "parent", "job", "tag"],
               names=names, spans=[[index[s[0]], *s[1:]] for s in tracer.spans])
    os.makedirs(path.parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def job_lines(records):
    """One line per job of a traced pass, with the counters that explain it."""
    lines = []
    for r in records:
        c = r["counts"]
        parts = [f"{r['job']:<34} {r['seconds']:9.4f} s"]
        if c.get("maps.compositions"):
            need = c.get("maps.compositions_needed", 0)
            parts.append(f"compositions {c['maps.compositions']} needed {need}"
                         f" ratio {c['maps.compositions'] / need if need else 0:.4f}")
        if c.get("harmonic.walk_steps"):
            parts.append(f"walk-steps {c['harmonic.walk_steps']} ns/step "
                         f"{c['harmonic.wos_ns'] / c['harmonic.walk_steps']:.1f}")
        if c.get("qgeo.pairs"):
            parts.append(f"qg pairs {c['qgeo.pairs']}")
        lines.append("  " + "  ".join(parts))
    return lines


def run_workload(args):
    try:
        workloads, tracing = load_program()
        setup_s = setup_seconds(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    jobs = workloads.build(args.workload, args.seed)
    tally = Tally(workloads.load_digests())
    run_pass(jobs, tally)  # warm-up: first-call costs and page faults stay out of the timings
    # The timed passes repeat the warm-up's jobs; reading the peak before the
    # reference first runs keeps its ~35 MB of arrays out of peak_rss_mb.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("machine: " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if not args.trace:
        raw, times, _ = measure(jobs, tally, args.seconds)
        tail_s, pct = tail(times)
        metrics = {"setup_s": (setup_s, "s"), "pass_s": (statistics.median(times), "s"),
                   "pass_s_tail": (tail_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
              f"{len(times)} timed passes")
        notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
                 "pass_s": f"calibrated median of {len(times)} passes; raw median "
                           f"{statistics.median(raw):.6g} s",
                 "pass_s_tail": f"p{pct:.0f} of {len(times)} passes"}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:12.6g} {unit:<3} {notes.get(name, '')}")
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        _, plain, _ = measure(jobs, tally, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced, passes = measure(jobs, tally, args.seconds / 2, tracer,
                                        TRACED_PASSES_MAX)
        finally:
            tracer.uninstall()
        values = traced_metrics(tracing, tracer, passes, plain, traced)
        units = load_units()
        print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
              f"{len(traced)} traced passes, {len(tracer.spans)} spans")
        print("jobs of the last traced pass:")
        print("\n".join(job_lines(passes[-1][2])))
        for name, value in values.items():
            print(f"  {name:<42} {value:14.6g} {units[name]}")
        path = workloads.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(path, {"workload": args.workload, "seed": args.seed, "machine": facts,
                           "layers": values, "passes": [p[2] for p in passes]}, tracer)
        print(f"trace written to {path.relative_to(ROOT)}")

    fail_frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':<12} {fail_frac:12.6g}     {tally.failed} of {tally.attempted} "
          "jobs failed")
    for message in tally.messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in values}}))
    return 0


def load_units():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def run_every_workload(args):
    """Each workload in its own process (its own peak RSS), then a summary."""
    results, ok = {}, True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
        ok &= results[workload]["correct"]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_every_workload(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
