#!/usr/bin/env python3
"""The punchline benchmark: flat characteristic cost vs exploding kappa.

Runs the sweep harness on a 512 x 512 grid for deltas spanning ten
orders of magnitude.  The characteristic columns (wall time, residual)
are flat; the condition-number column, which governs what any elliptic
discretization must invert, explodes.  The optional baseline columns
record the Neumann iteration's verdicts on a delta subset.
"""

from rigidpde import BenchConfig, GridSpec, run_benchmark

print("sweep 1: characteristic solver only, deltas down to 1e-10")
cfg = BenchConfig(deltas=(1.0, 1e-2, 1e-4, 1e-10), grid=GridSpec(512, 512),
                  f0="exp:1,0", repetitions=5)
report = run_benchmark(cfg)
print(report.to_csv())

times = [r.char_time_s for r in report.rows]
kappas = [r.kappa for r in report.rows]
print(f"wall-time spread  max/min = {max(times)/min(times):.2f}")
print(f"kappa spread      max/min = {max(kappas)/min(kappas):.3g}")
print()

print("sweep 2: with the Neumann baseline columns (coarser deltas)")
cfg2 = BenchConfig(deltas=(1.0, 0.1, 0.01), grid=GridSpec(256, 256),
                   f0="lpow:2", repetitions=5, include_beltrami=True)
print(run_benchmark(cfg2).to_csv())

print("The baseline's iteration column grows until the budget is exhausted;")
print("the characteristic columns do not move.  Checking the transport")
print("obstruction first (demo 01) is what tells you this regime exists.")
