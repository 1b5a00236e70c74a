"""Run every workload of the benchmark over several seeds.

    python3 perfbench/suite.py --seeds 1,2,3 [--workloads triage,baseline]
                               [--trace] [--record results/NAME.json]

Each (workload, seed) run is a fresh ``run.py`` process, one after
another, so no two runs share a machine's cores.  For every end-to-end
metric the suite prints the median over seeds, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to a third of the metric's bound from BENCHMARK.json.
With ``--trace`` each seed also gets a traced run; the tracing overhead
is the traced ``op_p50_s`` minus the untraced one of the same seed.
``--record`` writes every run's result line and report to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    """One run in a fresh process: its result line and its report
    (provenance, defect shares and their base, tail percentile)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    report = json.loads((HERE / "out" / f"report-{workload}-s{seed}-t{trace}.json").read_text())
    del report["ops"]  # kept in perfbench/out; too bulky for a record
    return json.loads(proc.stdout.strip().splitlines()[-1]), report


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true", help="add a traced run per seed")
    p.add_argument("--record", default=None, help="write all results and reports here")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    record = {"seconds": args.seconds, "runs": []}
    for wl in args.workloads.split(","):
        results = {}
        for seed in seeds:
            results[seed], report = run_one(wl, seed, args.seconds, 0)
            record["runs"].append({"workload": wl, "seed": seed, "trace": 0,
                                   "result": results[seed], "report": report})
            r = results[seed]
            print(f"{wl} seed {seed}: correct={r['correct']} "
                  f"{r['failed']}/{r['attempted']} failed", flush=True)
        print(f"== {wl}: {len(seeds)} seeds")
        for name, bound in bounds.items():
            values = [results[s]["metrics"][name]["value"] for s in seeds]
            unit = results[seeds[0]]["metrics"][name]["unit"]
            if len(values) >= 2:
                med, q1, q3, rel = spread(values)
                flag = "" if rel < bound / 3 or name == "setup_s" else "  <-- above bound/3"
                print(f"  {name:18s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {rel:.3f} (bound/3 {bound / 3:.3f}){flag}")
            else:
                print(f"  {name:18s} {values[0]:.6g} {unit}")
        if args.trace:
            for seed in seeds:
                traced, report = run_one(wl, seed, args.seconds, 1)
                record["runs"].append({"workload": wl, "seed": seed, "trace": 1,
                                       "result": traced, "report": report})
                t50 = traced["metrics"]["trace.op_p50_s"]["value"]
                u50 = results[seed]["metrics"]["op_p50_s"]["value"]
                cov = traced["metrics"]["trace.coverage_min"]["value"]
                print(f"  traced seed {seed}: op_p50 {t50:.6g} s, overhead "
                      f"{t50 - u50:+.4g} s, min span coverage {cov:.4f}")
        sys.stdout.flush()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
