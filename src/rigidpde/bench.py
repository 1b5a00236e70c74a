"""Head-to-head cost harness.

For each delta in a sweep: time the characteristic solve on a fixed
grid, measure its finite-difference system residual, compute the
condition number from a region scan, and (optionally) run the Neumann
baseline.  The point of the report is the contrast between the flat
characteristic columns and the exploding condition number.
"""

from __future__ import annotations

import json
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

# The JSON type of each config key: what it must be, the Python type of its
# entries, and how many (0: a list of any length, None: a single value).
_CONFIG_TYPES = {
    "deltas": ("a list of numbers", (int, float), 0),
    "region": ("4 numbers", (int, float), 4),
    "grid": ("2 integers", int, 2),
    "f0": ("a string", str, None),
    "repetitions": ("an integer", int, None),
    "include_beltrami": ("a boolean", bool, None),
}


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
        """Every field, so that from_dict(to_dict()) gives this config back."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(deltas=list(self.deltas), region=list(self.region.as_tuple()),
                 grid=[self.grid.nx, self.grid.ny])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        """The fields given in ``d`` over the defaults; other keys, and
        values of the wrong JSON type, raise ValueError naming the key."""
        if not isinstance(d, dict):
            raise ValueError(f"bench config must be a JSON object, not {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown bench config keys: {', '.join(unknown)}")
        for key, value in d.items():
            what, kind, n = _CONFIG_TYPES[key]
            entries = [value] if n is None else value
            # JSON true and false are booleans only, not numbers
            if not (isinstance(entries, list) and n in (None, 0, len(entries))
                    and all(isinstance(e, kind) and isinstance(e, bool) == (kind is bool)
                            for e in entries)):
                raise ValueError(f"bench config {key} must be {what}, got {value!r}")
        kwargs = dict(d)
        if "deltas" in kwargs:
            kwargs["deltas"] = tuple(float(v) for v in kwargs["deltas"])
        if "region" in kwargs:
            kwargs["region"] = Region(*[float(v) for v in kwargs["region"]])
        if "grid" in kwargs:
            kwargs["grid"] = GridSpec(*kwargs["grid"])
        return cls(**kwargs)


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _timed_solves(cfg: BenchConfig, f0: InitialData, deltas):
    """Median wall time of the characteristic solve per delta.

    Repetition sweeps are interleaved across deltas (after one discarded
    warm-up each) so scheduler drift hits every delta alike; medians are
    still taken per delta.
    """
    fams = {d: DeltaFamily(d) for d in deltas}
    times = {d: [] for d in deltas}
    last = {}
    for d in deltas:
        last[d] = solve_characteristic(fams[d], f0, cfg.region, cfg.grid)
    for _ in range(cfg.repetitions):
        for d in deltas:
            t0 = time.perf_counter()
            last[d] = solve_characteristic(fams[d], f0, cfg.region, cfg.grid)
            times[d].append(time.perf_counter() - t0)
    return {d: (statistics.median(times[d]), last[d]) for d in deltas}


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run the sweep; failures are recorded per row and the run continues."""
    f0 = parse_f0(cfg.f0)
    scan_grid = aligned_gridspec(cfg.region, SCAN_NOMINAL, SCAN_NOMINAL)
    report = BenchReport(config=cfg.to_dict())
    try:
        timed = _timed_solves(cfg, f0, cfg.deltas)
    except Exception as exc:
        timed = {}
        solve_error = f"{type(exc).__name__}: {exc}"
    else:
        solve_error = None
    for delta in cfg.deltas:
        row = BenchRow(delta=float(delta))
        if solve_error is not None:
            row.error = solve_error
            report.rows.append(row)
            continue
        try:
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


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report: CSV with the fixed column order (missing optional
    cells are the literal NA) or full-precision JSON."""
    if fmt == "json":
        return report.to_json()
    if fmt != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    lines = [CSV_HEADER]
    lines += [report_row(*(getattr(r, name) for name in CSV_HEADER.split(",")))
              for r in report.rows]
    return "\n".join(lines) + "\n"
