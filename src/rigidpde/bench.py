"""Head-to-head cost harness.

For each delta in a sweep: time the characteristic solve on a fixed
grid, measure its finite-difference system residual, compute the
condition number from a region scan, and (optionally) run the Neumann
baseline.  The point of the report is the contrast between the flat
characteristic columns and the exploding condition number.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field as dc_field, fields

from . import beltrami as bl
from .analysis import scan_region
from .fields import (
    REFERENCE_WINDOW,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    aligned_gridspec,
    report_row,
)
from .transport import InitialData, parse_f0, solve_characteristic, system_residual, to_real_pair

CSV_HEADER = "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"
SCAN_NOMINAL = 401  # kappa scan resolution per axis (then axis-aligned)


@dataclass
class BenchConfig:
    deltas: tuple = (1.0, 1e-2, 1e-4)
    region: Region = REFERENCE_WINDOW
    grid: GridSpec = GridSpec(512, 512)
    f0: str = "exp:1,0"
    repetitions: int = 5
    include_beltrami: bool = False

    def __post_init__(self):
        if len(self.deltas) == 0:
            raise ValueError("deltas must be nonempty")
        for d in self.deltas:
            DeltaFamily(d)  # names a delta that is not finite and > 0
        if self.repetitions < 3:
            raise ValueError("need repetitions >= 3 for a stable median")

    def to_dict(self) -> dict:
        """Every field as plain JSON values: the report's ``config``."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(deltas=list(self.deltas), region=list(self.region.as_tuple()),
                 grid=[self.grid.nx, self.grid.ny])
        return d


@dataclass
class BenchRow:
    delta: float
    kappa: float | None = None
    char_time_s: float | None = None
    char_residual: float | None = None
    beltrami_iters: int | None = None
    beltrami_verdict: str | None = None
    error: str | None = None


@dataclass
class BenchReport:
    config: dict
    rows: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {"config": self.config, "rows": [asdict(r) for r in self.rows]}

    def to_csv(self) -> str:
        """The rows in a fixed column order; a missing cell is the literal NA."""
        lines = [CSV_HEADER]
        lines += [report_row(*(getattr(r, name) for name in CSV_HEADER.split(",")))
                  for r in self.rows]
        return "\n".join(lines) + "\n"


def _timed_solves(cfg: BenchConfig, f0: InitialData, deltas):
    """Per delta, the median wall time of the characteristic solve and its
    last result, or the exception its first solve raised.

    Repetition sweeps are interleaved across the deltas that solve (after
    one discarded warm-up each) so scheduler drift hits every delta alike;
    medians are still taken per delta.
    """
    fams = {d: DeltaFamily(d) for d in deltas}
    times, last = {}, {}
    for d in deltas:  # the warm-up; a delta whose solve fails is not timed
        try:
            last[d] = solve_characteristic(fams[d], f0, cfg.region, cfg.grid)
            times[d] = []
        except Exception as exc:
            last[d] = exc
    for _ in range(cfg.repetitions):
        for d in times:
            t0 = time.perf_counter()
            last[d] = solve_characteristic(fams[d], f0, cfg.region, cfg.grid)
            times[d].append(time.perf_counter() - t0)
    return {d: (statistics.median(times[d]), last[d]) if d in times else last[d]
            for d in deltas}


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run the sweep; failures are recorded per row and the run continues."""
    f0 = parse_f0(cfg.f0)
    scan_grid = aligned_gridspec(cfg.region, SCAN_NOMINAL, SCAN_NOMINAL)
    report = BenchReport(config=cfg.to_dict())
    timed = _timed_solves(cfg, f0, cfg.deltas)
    for delta in cfg.deltas:
        row = BenchRow(delta=float(delta))
        try:
            if isinstance(timed[delta], Exception):
                raise timed[delta]
            fam = DeltaFamily(delta)
            field = DeltaField(fam)
            row.char_time_s, w = timed[delta]
            uv = to_real_pair(fam, w)
            row.char_residual = system_residual(field, uv, mode="fd").max_residual
            row.kappa = scan_region(field, cfg.region, scan_grid).kappa
            if cfg.include_beltrami:
                trace = bl.delta_sweep((delta,))[delta]
                row.beltrami_iters = trace.iterations
                row.beltrami_verdict = trace.verdict
        except Exception as exc:  # per-row failure is data
            row.error = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)
    return report
