"""Head-to-head cost harness.

For each delta in a sweep: time the characteristic solve on a fixed
grid, measure its finite-difference system residual, compute the
condition number from a region scan, and (optionally) run the Neumann
baseline.  The point of the report is the contrast between the flat
characteristic columns and the exploding condition number.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field, fields

from . import beltrami as bl
from .analysis import scan_region
from .fields import (
    REFERENCE_WINDOW,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    aligned_gridspec,
)
from .transport import InitialData, parse_f0, solve_characteristic, system_residual, to_real_pair

CSV_HEADER = "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"


@dataclass
class BenchConfig:
    deltas: tuple = (1.0, 1e-2, 1e-4)
    region: Region = REFERENCE_WINDOW
    grid: GridSpec = GridSpec(512, 512)
    f0: str = "exp:1,0"
    repetitions: int = 5
    include_beltrami: bool = False
    scan_nominal: int = 401          # kappa scan resolution (axis-aligned)
    beltrami_n: int = 256
    beltrami_L: float = 4.0
    beltrami_tol: float = bl.DEFAULT_TOL
    beltrami_max_iter: int = bl.DEFAULT_MAX_ITER

    def __post_init__(self):
        if len(self.deltas) == 0 or any(d <= 0 for d in self.deltas):
            raise ValueError("deltas must be nonempty and all > 0")
        if self.repetitions < 3:
            raise ValueError("need repetitions >= 3 for a stable median")

    def initial_data(self) -> InitialData:
        return parse_f0(self.f0)

    def to_dict(self) -> dict:
        """Every field, so that from_dict(to_dict()) gives this config back."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(deltas=list(self.deltas), region=list(self.region.as_tuple()),
                 grid=[self.grid.nx, self.grid.ny])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BenchConfig":
        """The config with the fields given in ``d``, defaults elsewhere."""
        kwargs = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        if "deltas" in kwargs:
            kwargs["deltas"] = tuple(float(v) for v in kwargs["deltas"])
        if "region" in kwargs:
            kwargs["region"] = Region(*[float(v) for v in kwargs["region"]])
        if "grid" in kwargs:
            nx, ny = kwargs["grid"]
            kwargs["grid"] = GridSpec(int(nx), int(ny))
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

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "kappa": self.kappa,
            "char_time_s": self.char_time_s,
            "char_residual": self.char_residual,
            "beltrami_iters": self.beltrami_iters,
            "beltrami_verdict": self.beltrami_verdict,
            "error": self.error,
        }


@dataclass
class BenchReport:
    config: dict
    rows: list = dc_field(default_factory=list)

    def to_dict(self) -> dict:
        return {"config": self.config, "rows": [r.to_dict() for r in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        d = json.loads(text)
        return cls(config=d["config"], rows=[BenchRow(**r) for r in d["rows"]])


def _median(values) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


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
    return {d: (_median(times[d]), last[d]) for d in deltas}


def run_benchmark(cfg: BenchConfig) -> BenchReport:
    """Run the sweep; failures are recorded per row and the run continues."""
    f0 = cfg.initial_data()
    scan_grid = aligned_gridspec(cfg.region, cfg.scan_nominal, cfg.scan_nominal)
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
                grid = bl.TorusGrid(cfg.beltrami_n, cfg.beltrami_L)
                mu = bl.family_mu_on_torus(fam, grid)
                _, trace = bl.solve_beltrami_neumann(bl.BeltramiProblem(
                    mu, grid, tol=cfg.beltrami_tol,
                    max_iter=cfg.beltrami_max_iter,
                ))
                row.beltrami_iters = trace.iterations
                row.beltrami_verdict = trace.verdict
        except Exception as exc:  # per-row failure is data
            row.error = f"{type(exc).__name__}: {exc}"
        report.rows.append(row)
    return report


def _cell(value, digits=6):
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report: CSV with the fixed column order (missing optional
    cells are the literal NA) or full-precision JSON."""
    if fmt == "json":
        return report.to_json()
    if fmt != "csv":
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    lines = [CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([
            _cell(r.delta), _cell(r.kappa), _cell(r.char_time_s),
            _cell(r.char_residual), _cell(r.beltrami_iters),
            _cell(r.beltrami_verdict),
        ]))
    return "\n".join(lines) + "\n"
