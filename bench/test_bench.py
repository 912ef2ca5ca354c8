"""Tests of the benchmark itself.

    python3 -m pytest bench

The tier-1 suite does not collect this file (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path)
import speed  # noqa: E402
from spans import Recorder, bind  # noqa: E402
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# jobs quick enough to run here, by name prefix; each prefix names jobs
# whose outputs do not depend on the framing
CHEAP = {
    "geometry-check": "dkk-geometry-K5",
    "enumerate-biject": "flow-roundtrip",
    "count-ehrhart": "triple-oracle",
}


def cheap_outputs(jobs, workload, limit=4):
    chosen = sorted((j for j in jobs if j.name.startswith(CHEAP[workload])), key=lambda j: j.name)
    results = [job.run() for job in chosen[:limit]]
    assert results and all(ok for ok, _ in results)
    return [output for _, output in results]


def framings(jobs):
    """Framing arguments of the jobs that take one, by job kind."""
    found = {}
    for job in jobs:
        for arg in job.run.args:
            if hasattr(arg, "in_orders"):
                found.setdefault(job.name.split("-f")[0], []).append((arg.in_orders, arg.out_orders))
    return found


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs_and_outputs(workload):
    a = make_jobs(workload, 11, bind())
    b = make_jobs(workload, 11, bind())
    assert [j.name for j in a] == [j.name for j in b]
    assert framings(a) == framings(b)
    assert cheap_outputs(a, workload) == cheap_outputs(b, workload)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_other_seed_changes_framings_not_counts(workload):
    a = make_jobs(workload, 1, bind())
    b = make_jobs(workload, 2, bind())
    assert [j.name for j in a] != [j.name for j in b]  # the job order is shuffled
    if workload != "count-ehrhart":  # which has no framings
        fa, fb = framings(a), framings(b)
        assert fa.keys() == fb.keys()
        assert any(fa[kind] != fb[kind] for kind in fa)
    assert cheap_outputs(a, workload) == cheap_outputs(b, workload)


def test_job_counts_fix_the_tail_percentile():
    sizes = {w: len(make_jobs(w, 1, bind())) for w in WORKLOADS}
    assert sizes == {"geometry-check": 11, "enumerate-biject": 148, "count-ehrhart": 153}
    assert run.tail_percentile(11) == 100
    assert run.tail_percentile(148) == run.tail_percentile(153) == 93
    latencies = list(range(153))
    tail = run.percentile(latencies, 93)
    assert sum(x > tail for x in latencies) == 10


def test_failed_and_raising_jobs_count_as_failures():
    def boom():
        raise ValueError("broken")

    jobs = [Job("ok", lambda: (True, 1)), Job("wrong", lambda: (False, 2)), Job("raises", boom)]
    result = run.run_pass(jobs)
    assert result.failed == 2 and len(result.latencies) == len(result.scaled) == 3
    assert len(result.readings) == 4 and result.wall_s >= sum(result.latencies)


def test_times_scale_to_the_nominal_machine():
    ref = speed.REFERENCE_S
    assert speed.scale(2.0, [ref, ref]) == pytest.approx(2.0)
    assert speed.scale(2.0, [2 * ref, 2 * ref, 2 * ref]) == pytest.approx(1.0)  # half speed
    # half the time at full speed, half at half speed
    assert speed.scale(2.0, [ref, 2 * ref]) == pytest.approx(1.5)
    assert speed.kernel() == speed.kernel()
    assert speed.reading() > 0


def test_meter_reads_while_a_job_runs():
    with speed.Meter() as meter:
        deadline = time.perf_counter() + 4 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(meter.readings) >= 2 and 0 < meter.spent < 4 * speed.PERIOD_S


def test_spans_record_calls_self_time_and_counters():
    rec = Recorder()
    lib = bind(rec)
    g = lib.complete_graph(5)
    assert len(lib.enumerate_routes(g)) == 8
    assert rec.calls == {"graphs.complete_graph": 1, "graphs.enumerate_routes": 1}
    assert rec.counts == {"graphs.routes": 8}
    assert all(s >= 0 for s in rec.self_s.values())
    assert bind().enumerate_routes.__module__ == "flowpoly.graphs"  # untraced: the plain function


def test_metric_names_match_benchmark_json():
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert run.layer_metric_units() == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    cmd = [*SPEC["command"], "--workload", "count-ehrhart", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 153
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    env = json.loads(lines[-2])["env"]
    assert {"commit", "python", "nproc", "seed", "seconds"} <= set(env)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "count-ehrhart", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
