"""rigidpde benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up three times (input generation plus a warm-up
op; ``setup_s`` is the import time plus the median of the three), then
sends ops one after another for about S seconds, in whole groups that
cover the workload's mix once, starting no group that the running median
op time says would end after S.  The inputs repeat with the workload's
period, and the first period is always sent in full.  Each op's answer is
checked against a known truth after its clock stops.

With ``--trace 0`` nothing is instrumented and the end-to-end metrics are
printed.  With ``--trace 1`` the benchmark records spans around its
calls into each rigidpde module, takes tracemalloc peaks, calls
``bench.run_benchmark`` once with the default config, and prints the
per-layer metrics.  Layer times and counts are per-op means over the ops
that call the layer; a layer that a workload never calls reads 0.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts the
distinct ops of the run (its period; repeats are checked too) and
``failed`` those that raised or disagreed with their truth in any
execution, including ops hit by the two seed defects named in
``workloads``; so both depend on the seed alone, not on the machine's
speed.  ``correct`` is false when any op failed for another reason, or
when one op's executions did not all give the same verdict.  A fuller
report with provenance, the tail percentile, defect shares and their base
is printed before that line and written to ``perfbench/out/``, next to
the span dump of a traced run.
"""

from __future__ import annotations

import os
import sys

# Load hygiene: one thread of numeric work, set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

# Metrics that are counts the benchmark computes (grid nodes, file and
# array bytes, FFTs) rather than measures.
COMPUTED = {"fields.values.nodes", "fields.from_csv.bytes",
            "transport.write_csv.bytes", "transport.read_csv.bytes",
            "transport.solve.out_mb", "beltrami.ffts"}


def provenance(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import rigidpde
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rigidpde": rigidpde.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def tail(times):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples); the maximum when there are fewer than
    eleven samples."""
    s = sorted(times)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(wl, records, setup_s):
    times = [r["s"] for r in records]
    low = [r["s"] for r in records if r["delta"] < wl.split]
    high = [r["s"] for r in records if r["delta"] >= wl.split]
    halves = [statistics.median(h) for h in (low, high) if h]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail(times)[0], "s"),
        "nodes_per_s": (sum(r["nodes"] for r in records) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "delta_cost_ratio": (max(halves) / min(halves), "ratio"),
    }


def per_layer(tracer, wl, records):
    from tracing import aggregate, op_coverage

    agg = aggregate(tracer.spans)
    n_ops = len(records)
    facts = wl.facts

    def mean(name, key="dur"):
        a = agg.get(name)
        return a[key] / len(a["ops"]) if a else 0.0

    def rate(name, key, scale=1.0):
        a = agg.get(name)
        return a[key] / a["dur"] / scale if a and a["dur"] > 0 else 0.0

    def ratio(num, den):
        return facts.get(num, 0) / facts[den] if facts.get(den) else 0.0

    def peak_mb(name):
        return agg[name]["peak"] / 1e6 if name in agg else 0.0

    cli_ops = len(agg["cli.solve"]["ops"]) if "cli.solve" in agg else 0
    cli_self = sum(agg[n]["self"] for n in ("cli.solve", "cli.verify") if n in agg)
    neumann = agg.get("beltrami.neumann")
    iterations = facts.get("iterations", 0)
    bench_s = sum(s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == "bench.run_benchmark")
    m = {
        "fields.values.calls": (mean("fields.values", "calls"), "count"),
        "fields.values.nodes": (mean("fields.values", "nodes"), "count"),
        "fields.values.self_s": (mean("fields.values", "self"), "s"),
        "fields.sample.self_s": (mean("fields.sample", "self"), "s"),
        "fields.spectral.self_s": (mean("fields.spectral", "self"), "s"),
        "fields.from_csv.s": (mean("fields.from_csv"), "s"),
        "fields.from_csv.bytes": (mean("fields.from_csv", "bytes"), "B"),
        "fields.from_csv.mb_per_s": (rate("fields.from_csv", "bytes", 1e6), "MB/s"),
        "analysis.scan_region.s": (mean("analysis.scan_region"), "s"),
        "analysis.scan_region.self_s": (mean("analysis.scan_region", "self"), "s"),
        "analysis.scan_region.nodes_per_s": (rate("analysis.scan_region", "nodes"), "1/s"),
        "analysis.scan_region.peak_mb": (peak_mb("analysis.scan_region"), "MB"),
        "analysis.fd_verdict_agreement": (ratio("fd_agree", "fd_scans"), "ratio"),
        "transport.solve.s": (mean("transport.solve"), "s"),
        "transport.solve.nodes_per_s": (rate("transport.solve", "nodes"), "1/s"),
        "transport.solve.peak_mb": (peak_mb("transport.solve"), "MB"),
        "transport.solve.out_mb": (mean("transport.solve", "bytes") / 1e6, "MB"),
        "transport.to_real_pair.s": (mean("transport.to_real_pair"), "s"),
        "transport.from_real_pair.s": (mean("transport.from_real_pair"), "s"),
        "transport.system_residual_analytic.s":
            (mean("transport.system_residual_analytic"), "s"),
        "transport.roundtrip_rel_err": (facts.get("roundtrip_rel_err", 0.0), "ratio"),
        "transport.write_csv.s": (mean("transport.write_csv"), "s"),
        "transport.write_csv.bytes": (mean("transport.write_csv", "bytes"), "B"),
        "transport.write_csv.mb_per_s": (rate("transport.write_csv", "bytes", 1e6), "MB/s"),
        "transport.read_csv.s": (mean("transport.read_csv"), "s"),
        "transport.read_csv.bytes": (mean("transport.read_csv", "bytes"), "B"),
        "transport.read_csv.mb_per_s": (rate("transport.read_csv", "bytes", 1e6), "MB/s"),
        "transport.write_header.s": (mean("transport.write_header"), "s"),
        "transport.system_residual_fd.s": (mean("transport.system_residual_fd"), "s"),
        "transport.transport_residual.s": (mean("transport.transport_residual"), "s"),
        "cli.solve.s": (mean("cli.solve"), "s"),
        "cli.verify.s": (mean("cli.verify"), "s"),
        "cli.overhead_s": (cli_self / cli_ops if cli_ops else 0.0, "s"),
        "cli.verify_false_fail_ratio": (ratio("verify_rejects", "verify_calls"), "ratio"),
        "beltrami.family_mu.s": (mean("beltrami.family_mu"), "s"),
        "beltrami.neumann.s": (mean("beltrami.neumann"), "s"),
        "beltrami.iterations": (iterations / n_ops if neumann else 0.0, "count"),
        "beltrami.sweep_s": (neumann["dur"] / iterations if neumann and iterations else 0.0, "s"),
        "beltrami.ffts": ((2 * iterations + 2 * n_ops) / n_ops if neumann else 0.0, "count"),
        "beltrami.converged_ratio": (facts.get("converged", 0) / n_ops if neumann else 0.0, "ratio"),
        "beltrami.sweeps_wasted_ratio": (ratio("wasted_sweeps", "iterations"), "ratio"),
        "bench.run_benchmark.s": (bench_s, "s"),
        "trace.op_p50_s": (statistics.median(r["s"] for r in records), "s"),
        "trace.coverage_min": (min(op_coverage(tracer.spans).values()), "ratio"),
    }
    return m


def measure(wl, seconds, tracer):
    """The closed loop: returns one record per op execution.  Ops run in
    whole groups of ``wl.group`` (one pass over the workload's strata); the
    first ``wl.period`` ops always run, and a later group starts only if
    the running median op time says it ends in time."""
    from workloads import Wrong

    records = []
    t_start = time.perf_counter()
    i = 0
    while True:
        if i >= wl.period and i % wl.group == 0:
            expected = wl.group * statistics.median(r["s"] for r in records)
            if time.perf_counter() - t_start + expected > seconds:
                break
        key = i % wl.period
        op = wl.params(key)
        result = None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op(i):
                    result = wl.run(op)
            else:
                result = wl.run(op)
        except Exception:  # a raising op is a failed op; the loop goes on
            status = Wrong(traceback.format_exc(limit=3).strip().splitlines()[-1])
        dt = time.perf_counter() - t0
        if result is not None:
            try:
                status = wl.check(op, result, first=(i == 0))
            except Exception:
                status = Wrong("check raised: " + traceback.format_exc(limit=3)
                               .strip().splitlines()[-1])
            nodes = wl.nodes(op, result)
        else:
            nodes = 0
        records.append({"i": i, "key": key, "op": op._asdict(),
                        "delta": op.delta, "s": dt,
                        "nodes": nodes, "status": str(status),
                        "wrong": isinstance(status, Wrong)})
        del result
        i += 1
    return records


def distinct_ops(records):
    """One record per distinct op (key), in key order: failed if any of
    its executions failed, and wrong if they failed for another reason
    than a named defect or did not all give the same verdict."""
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r)
    ops = []
    for key in sorted(by_key):
        runs = by_key[key]
        statuses = {r["status"] for r in runs}
        if len(statuses) > 1:
            status = f"executions disagree: {sorted(statuses)}"
            wrong = True
        else:
            status = runs[0]["status"]
            wrong = any(r["wrong"] for r in runs)
        ops.append({"i": runs[0]["i"], "op": runs[0]["op"], "status": status,
                    "wrong": wrong})
    return ops


def declared(mode):
    """The metric names and units BENCHMARK.json declares for a mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rigidpde" / "__init__.py").is_file():
        print(f"error: no rigidpde sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import rigidpde  # noqa: F401
    from workloads import DEFECT_FD_VERDICT, DEFECT_VERIFY_THRESHOLD, OK, WORKLOADS, Layers
    import_s = time.perf_counter() - t0
    if Path(rigidpde.__file__).resolve().parent != (src / "rigidpde").resolve():
        print(f"error: rigidpde imported from {rigidpde.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wanted = declared("per_layer" if args.trace else "end_to_end")

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-{args.seed}-", dir=OUT)
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        layers = Layers(tracer)
        wl = WORKLOADS[args.workload](args.seed, tmp, Layers(None))
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            wl.warm_up()
            setups.append(time.perf_counter() - t)
        wl.layers = layers
        records = measure(wl, args.seconds, tracer)
        run_checks = []
        if tracer is not None:
            from rigidpde.bench import BenchConfig
            bench_report = layers.run_benchmark(BenchConfig())
            errors = [r.error for r in bench_report.rows if r.error]
            if errors:
                run_checks.append(f"bench.run_benchmark rows failed: {errors}")
            tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.json")
            metrics = per_layer(tracer, wl, records)
        else:
            metrics = end_to_end(wl, records, import_s + statistics.median(setups))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [n for n in wanted if n not in metrics or metrics[n][1] != wanted[n]]
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not produced "
              f"with matching units: {missing}", file=sys.stderr)
        return 3

    ops = distinct_ops(records)
    n = len(ops)
    failed = sum(r["status"] != OK for r in ops)
    wrong = [r for r in ops if r["wrong"]]
    defects = {d: sum(r["status"] == d for r in ops)
               for d in (DEFECT_FD_VERDICT, DEFECT_VERIFY_THRESHOLD)}
    t_val, t_pct, t_n = tail([r["s"] for r in records])
    report = {
        "workload": args.workload,
        "why": wl.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup": {"import_s": import_s, "repeats_s": setups},
        "attempted": n,
        "executions": len(records),
        "failed": failed,
        "error_rate": {"value": failed / n, "failed": failed, "base": n},
        "defects": {d: {"ops": k, "share": k / n, "base": n}
                    for d, k in defects.items()},
        "wrong": [(r["i"], r["op"], r["status"]) for r in wrong[:10]],
        "run_checks": run_checks,
        "op_tail": {"percentile": t_pct, "samples": t_n},
        "facts": wl.facts,
        "ops": [(r["i"], r["delta"], r["s"], r["status"]) for r in records],
        "metrics": {k: {"value": v, "unit": u,
                        "kind": "computed" if k in COMPUTED else "measured"}
                    for k, (v, u) in metrics.items()},
    }
    with open(OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{n} distinct ops in {len(records)} executions, {failed} failed "
          f"(error_rate {failed}/{n})")
    for d, k in defects.items():
        if k:
            print(f"#   {d}: {k}/{n} ops")
    for r in wrong[:10]:
        print(f"#   wrong op {r['i']} {r['op']}: {r['status']}")
    for c in run_checks:
        print(f"#   {c}")
    if args.trace:
        print(f"# counts behind the ratios: {json.dumps(wl.facts)}")
    else:
        print(f"# op_tail_s is p{t_pct:.1f} of {t_n} ops")
    for k in wanted:
        v, u = metrics[k]
        print(f"#   {k} = {v:.6g} {u}")
    print(json.dumps({
        "correct": not wrong and not run_checks,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
