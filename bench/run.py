"""Benchmark for flowpoly: one workload per run, one job at a time.

    python3 bench/run.py --workload geometry-check --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; flowpoly is imported from ``src/``.
The run builds the workload's inputs from ``--seed``, then runs all of its
jobs in passes (a closed loop, one job at a time, no threads) until
``--seconds`` would be exceeded, at least once, checking each job's result
against an independently known value.  The reference kernel of speed.py is
timed between jobs and periodically while each job runs, and each job's
time is scaled by those readings to seconds on a machine of fixed speed.
A job's time is its median over the passes.

``--trace 0`` reports the end-to-end metrics (timings untraced); ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the spans recorded around each call into flowpoly.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment.  Exits 1 if any job failed and 2 if
the workload cannot be set up (for example, when ``src/flowpoly`` is absent).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from speed import Meter, reading, scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

PROBES_PER_PASS = 3  # fresh processes timed for setup_s before each pass
SETUP_PROBES = 15  # and at least this many in a run
PROBE_PERIOD_S = 0.01  # seconds between readings in a probe, which lasts 0.05-0.2 s
TAIL_SAMPLES = 10  # job_tail_s is the highest percentile with this many samples beyond it

END_TO_END = {
    "total_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def tail_percentile(jobs_per_pass):
    """Percentile reported as job_tail_s; 100 (the slowest job) for short job lists."""
    if jobs_per_pass < 2 * TAIL_SAMPLES:
        return 100
    return int(100 * (1 - TAIL_SAMPLES / jobs_per_pass))


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def layer_metric_units():
    """Per-layer metric name -> unit, in the order they are reported."""
    from spans import COUNTER_NAMES, INSTRUMENTED

    units = {}
    for module, names in INSTRUMENTED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.s"] = "s"
    units.update({name: "count" for name in COUNTER_NAMES})
    for module in (*INSTRUMENTED, "bench"):
        units[f"share.{module}"] = "%"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# running jobs


def build_jobs(workload, seed, recorder=None):
    from spans import bind
    from workloads import make_jobs

    return make_jobs(workload, seed, bind(recorder))


class Pass(NamedTuple):
    wall_s: float  # the whole pass, reference readings included
    latencies: list  # each job's wall seconds
    scaled: list  # each job's seconds on the nominal machine of speed.py
    readings: list  # reference readings, one before each job and one after the last
    reading_s: float  # time the readings taken during jobs took
    failed: int


def run_pass(jobs):
    """Run every job once, reading the machine's speed between and during jobs."""
    gc.collect()
    latencies, scaled, readings = [], [], [reading()]
    reading_s = 0.0
    failed = 0
    start = time.perf_counter()
    with Meter() as meter:
        for job in jobs:
            meter.reset()
            job_start = time.perf_counter()
            try:
                ok, output = job.run()
            except Exception as exc:  # a raising job is a failed job; keep measuring
                ok, output = False, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - job_start - meter.spent)
            reading_s += meter.spent
            during = meter.readings
            readings.append(reading())
            scaled.append(scale(latencies[-1], [readings[-2], *during, readings[-1]]))
            if not ok:
                failed += 1
                print(f"FAIL {job.name}: {output}", file=sys.stderr)
    return Pass(time.perf_counter() - start, latencies, scaled, readings, reading_s, failed)


def probe_setup(workload, seed):
    """Seconds, scaled to the nominal machine, a fresh process takes to
    import flowpoly and build the inputs."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def job_medians(passes, field="scaled"):
    """Each job's median time over the passes."""
    from statistics import median

    return [median(times) for times in zip(*(getattr(p, field) for p in passes))]


def end_to_end(args):
    import resource
    # imported here, as statistics imports fractions: the setup probes time
    # that import as part of flowpoly's
    from statistics import median

    jobs = build_jobs(args.workload, args.seed)
    setup, passes = [], []
    start = time.perf_counter()
    while True:
        # probes between passes sample the machine across the run
        setup.extend(probe_setup(args.workload, args.seed) for _ in range(PROBES_PER_PASS))
        passes.append(run_pass(jobs))
        if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args.workload, args.seed))

    times = job_medians(passes)
    q = tail_percentile(len(jobs))
    values = {
        "total_s": sum(times),
        "job_p50_s": median(times),
        "job_tail_s": percentile(times, q),
        "setup_s": median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    failed = sum(p.failed for p in passes)
    attempted = len(jobs) * len(passes)
    for name, m in metrics.items():
        print(f"{name:14} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':14} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    env = {"jobs_per_pass": len(jobs), "job_tail_percentile": q, "passes": len(passes),
           "pass_s": [p.wall_s for p in passes], "setup_probes": len(setup),
           "wall_total_s": sum(job_medians(passes, "latencies")),
           "reference_s": median(r for p in passes for r in p.readings)}
    return attempted, failed, metrics, env


def per_layer(args):
    from statistics import median

    from spans import INSTRUMENTED, Recorder
    from speed import REFERENCE_S

    plain = build_jobs(args.workload, args.seed)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(plain))
        recorder = Recorder()
        jobs = build_jobs(args.workload, args.seed, recorder)
        setup_self_s = dict(recorder.self_s)
        traced.append((run_pass(jobs), recorder, setup_self_s))
        if time.perf_counter() - start + untraced[-1].wall_s + traced[-1][0].wall_s > args.seconds:
            break

    per_pass = []  # metric name -> value, one dict per traced pass
    for p, rec, setup_self_s in traced:
        to_nominal = REFERENCE_S / median(p.readings)
        values = {}
        for module, names in INSTRUMENTED.items():
            job_s = 0.0
            for name in names:
                span = f"{module}.{name}"
                values[f"{span}.calls"] = rec.calls[span]
                values[f"{span}.s"] = rec.self_s[span] * to_nominal
                job_s += rec.self_s[span] - setup_self_s.get(span, 0.0)
            # spans include the readings taken inside them, so the base does too
            values[f"share.{module}"] = 100 * job_s / (sum(p.latencies) + p.reading_s)
        values.update(rec.counts)
        values["trace.spans"] = sum(rec.calls.values())
        per_pass.append(values)
    units = layer_metric_units()
    values = {name: median([v.get(name, 0) for v in per_pass]) for name in units}
    values["share.bench"] = 100 - sum(values[f"share.{m}"] for m in INSTRUMENTED)
    values["trace.overhead_s"] = (
        sum(job_medians([p for p, _, _ in traced])) - sum(job_medians(untraced))
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for module in (*INSTRUMENTED, "bench"):
        print(f"{'share.' + module:22} {values['share.' + module]:6.2f} %")
    print(f"{'trace.overhead_s':22} {values['trace.overhead_s']:.6g} s")
    passes = untraced + [p for p, _, _ in traced]
    failed = sum(p.failed for p in passes)
    attempted = len(plain) * len(passes)
    env = {"jobs_per_pass": len(plain), "passes_untraced": len(untraced),
           "passes_traced": len(traced), "pass_s": [p.wall_s for p in passes]}
    return attempted, failed, metrics, env


# ---------------------------------------------------------------------------
# entry point


def git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        before = reading()
        with Meter(PROBE_PERIOD_S) as meter:
            start = time.perf_counter()  # before workloads and flowpoly are imported
            build_jobs(args.workload, args.seed)
            seconds = time.perf_counter() - start - meter.spent
        print(scale(seconds, [before, *meter.readings, reading()]))
        return 0
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        attempted, failed, metrics, env = (per_layer if args.trace else end_to_end)(args)
    except (ImportError, SetupError, RuntimeError) as exc:
        print(f"cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    env.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        commit=git_commit(), python=sys.version.split()[0], nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
