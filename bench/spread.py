"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 bench/spread.py --workload count-ehrhart --seeds 1-10 [--out summary.json]

For each metric this prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is steady enough to
compare two commits.  Runs are sequential, so they do not compete for cores.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(args.seeds), "workloads": {}}
    steady = True
    for workload in args.workload:
        values = {name: [] for name in bounds}
        env = None
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            env = json.loads(lines[-2])["env"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={v[-1]:.4g}" for name, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            steady = steady and spread < bounds[name] / 3
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": vals}
            print(f"  {name:14} median {statistics.median(vals):.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {spread:.3f}  bound {bounds[name]}")
        env = {k: env[k] for k in ("commit", "python", "nproc", "seconds", "jobs_per_pass")}
        summary["workloads"][workload] = {"env": env, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is at least a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
