"""The four benchmark workloads.

Each workload is a closed loop with one client: op ``i + 1`` is sent only
after op ``i`` returns.  The inputs of op ``i`` are a function of the seed
and ``i % period`` alone: a run sends the workload's ``period`` distinct
ops once each and then repeats them, so what it checks does not depend on
how fast the machine is.  Where an input property changes the cost of an
op (the kind of field, the f0 family, the delta half), ops walk a fixed cycle of
strata, and continuous parameters follow a seeded golden-ratio sequence
(see ``DeltaSweep``); so every run, whatever its seed and length, covers
nearly the same mix, and run-to-run spread comes from the machine rather
than from the draw.

``run`` is the timed op.  ``check`` compares its answer with a known
truth after the clock has stopped and returns ``OK``, one of the two seed
defects below (the op still counts as failed), or a ``Wrong`` reason.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from collections import namedtuple
from contextlib import contextmanager

import numpy as np

from rigidpde import analysis, bench, cli, transport
from rigidpde import beltrami as bl
from rigidpde.analysis import TABLE_DELTAS
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    PerturbedDeltaField,
    Region,
    aligned_gridspec,
    grid_axes,
    write_field_csv,
)

from tracing import TracedField

OK = "ok"
# The two seed defects the checks are known to hit.  Ops hit by them count
# as failed; they are named so that any other wrong answer stands out.
DEFECT_FD_VERDICT = "defect:fd-scan-rejects-rigid-family"
DEFECT_VERIFY_THRESHOLD = "defect:verify-absolute-threshold"


class Wrong(str):
    """A wrong answer not explained by a known defect."""


# Known truths.  Golden 6-digit rows (inf_mu, sup_mu, kappa) of the
# degeneration table; the same rows hold for the closed-form scan at 2001²
# and the finite-difference callable scan at 1001², because the extrema
# sit on aligned nodes and do not involve the partials.
GOLDEN_ROWS = {
    1.0: "0,0.620174,18.195",
    0.1: "0.666667,0.923548,633.038",
    0.01: "0.960784,0.992032,62508",
    1e-3: "0.996008,0.9992,6.25001e+06",
    1e-4: "0.9996,0.99992,6.25e+08",
}
# Analytic residual of an exact solve, relative to max(|u|, |v|).
RESIDUAL_ULPS = 64
# Identification round trip w -> (u, v) -> w, relative to max|w| and
# multiplied by min(1, delta) to remove its 1/delta conditioning.
ROUNDTRIP_TOL = 1e-12
# A bilinear 201² table of the family reproduces its inf/sup |mu| on the
# 401² scan to within this absolute interpolation error for delta >= 0.1.
TABLE_MU_TOL = 2e-3

PHI = (math.sqrt(5.0) - 1.0) / 2.0
WINDOW = REFERENCE_WINDOW


def golden(u0: float, k: int) -> float:
    """k-th point in [0, 1) of the golden-ratio sequence started at u0."""
    return (u0 + k * PHI) % 1.0


def log_uniform(lo: float, hi: float, u: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def format_complex(z: complex) -> str:
    """A complex number in the CLI's a+bi grammar."""
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def unit_disk(rng) -> complex:
    r, t = math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


F0_KINDS = ("lpow", "exp", "poly")


def draw_f0(rng, kind: str) -> str:
    """An f0 descriptor of the CLI grammar: lpow:k with k in 1..3,
    exp:c with |c| <= 1, or a quadratic poly with complex coefficients.

    Solve cost grows with the poly degree; a fixed degree keeps the three
    families at three cost levels with poly in the middle, so the median
    op stays inside one family whatever the seed."""
    if kind == "lpow":
        return f"lpow:{int(rng.integers(1, 4))}"
    if kind == "exp":
        return "exp:" + format_complex(unit_disk(rng))
    return "poly:" + ",".join(format_complex(unit_disk(rng)) for _ in range(3))


def abs_mu_family(delta: float, grid: GridSpec):
    """min and max of |mu| of the family on a grid over the window,
    from the closed form lambda = (y + i*delta)/(1+x)."""
    xs, ys = grid_axes(WINDOW, grid)
    lam = (ys[:, None] + 1j * delta) / (1.0 + xs[None, :])
    mu = np.abs((lam - 1j) / (lam + 1j))
    return float(mu.min()), float(mu.max())


class Layers:
    """The library entry points the ops call: span-recording wrappers when
    a Tracer is given, the functions themselves otherwise."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        w = tracer.wrap if tracer else (lambda name, fn, **kw: fn)

        def file_arg(k):
            return lambda args, kwargs, result: os.path.getsize(args[k])

        def field_bytes(args, kwargs, result):
            return sum(a.nbytes for a in (result.values, result.wx, result.wy)
                       if a is not None)

        self.scan_region = w("analysis.scan_region", analysis.scan_region,
                             nodes=lambda f, r, g, *a, **k: g.count, peak=True)
        self.from_csv = w("fields.from_csv", GridTableField.from_csv,
                          size=file_arg(0))
        self.solve = w("transport.solve", transport.solve_characteristic,
                       nodes=lambda fam, f0, r, g: g.count, size=field_bytes,
                       peak=True)
        self.to_real_pair = w("transport.to_real_pair", transport.to_real_pair)
        self.from_real_pair = w("transport.from_real_pair",
                                transport.from_real_pair)
        self.residual_analytic = w("transport.system_residual_analytic",
                                   transport.system_residual)
        self.residual_fd = w("transport.system_residual_fd",
                             transport.system_residual)
        self.transport_residual = w("transport.transport_residual",
                                    transport.transport_residual)
        self.write_complex_csv = w("transport.write_csv",
                                   transport.write_complex_csv, size=file_arg(1))
        self.write_real_pair_csv = w("transport.write_csv",
                                     transport.write_real_pair_csv,
                                     size=file_arg(1))
        self.read_complex_csv = w("transport.read_csv",
                                  transport.read_complex_csv, size=file_arg(0))
        self.read_real_pair_csv = w("transport.read_csv",
                                    transport.read_real_pair_csv,
                                    size=file_arg(0))
        self.write_field_header = w("transport.write_header",
                                    transport.write_field_header)
        self.family_mu = w("beltrami.family_mu", bl.family_mu_on_torus,
                           nodes=lambda fam, grid, *a, **k: grid.n * grid.n)
        self.neumann = w("beltrami.neumann", bl.solve_beltrami_neumann)
        self.cli_solve = w("cli.solve", cli.main)
        self.cli_verify = w("cli.verify", cli.main)
        self.run_benchmark = w("bench.run_benchmark", bench.run_benchmark)

    def field(self, f):
        return TracedField(f, self.tracer) if self.tracer else f

    @contextmanager
    def cli_traced(self):
        """Route the cli module's own calls into transport through the
        traced wrappers, so spans inside a cli call are recorded."""
        if self.tracer is None:
            yield
            return
        routes = {
            "solve_characteristic": self.solve,
            "to_real_pair": self.to_real_pair,
            "write_complex_csv": self.write_complex_csv,
            "write_real_pair_csv": self.write_real_pair_csv,
            "write_field_header": self.write_field_header,
            "read_complex_csv": self.read_complex_csv,
            "read_real_pair_csv": self.read_real_pair_csv,
            "system_residual": self.residual_fd,
            "transport_residual": self.transport_residual,
        }
        saved = {name: getattr(cli, name) for name in routes if hasattr(cli, name)}
        for name in saved:
            setattr(cli, name, routes[name])
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)


class Workload:
    """One workload: seeded inputs, the timed op and its truth check."""

    name = ""
    why = ""
    # Ops with delta below ``split`` form the low half of delta_cost_ratio.
    split: float
    # Ops per pass over the workload's strata; runs measure whole passes.
    group = 4
    # Distinct ops per run, a multiple of ``group``: op i repeats the inputs
    # of op i % period, and every run sends each of them at least once.
    period = 12

    def __init__(self, seed: int, tmp: str, layers: Layers):
        self.seed = seed
        self.tmp = tmp
        self.layers = layers
        self.facts: dict[str, float] = {}

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def count(self, key: str, n: float = 1):
        self.facts[key] = self.facts.get(key, 0) + n

    def setup(self):
        """Input generation that a run pays once (repeated to time it)."""

    def warm_up(self):
        for op in self.warm_up_ops():
            self.run(op)

    def warm_up_ops(self):
        """Representative ops whose cost does not depend on the seed."""
        raise NotImplementedError

    def params(self, i: int):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def nodes(self, op, result) -> int:
        raise NotImplementedError

    def check(self, op, result, first: bool) -> str:
        raise NotImplementedError


class DeltaSweep:
    """Delta for op i, log-uniform over [lo, hi], split at the log-midpoint.

    Ops come in fours that share one golden-ratio point v: positions v/2
    and (1-v)/2 of the log range in its low half, 1/2 + v/2 and 1 - v/2 in
    its high half.  The four mirror each other about the middle of the
    range and of each half (antithetic sampling), so over whole fours the
    median op and the median of each half sit at the same delta whatever
    the seed, even where op cost climbs steeply with 1/delta.  f0 families cycle with
    period three, so each (family, position) pair recurs every twelve ops.
    """

    def __init__(self, rng, lo, hi):
        self.lo, self.hi = lo, hi
        self.split = log_uniform(lo, hi, 0.5)
        self.start = rng.random()
        self.order = [int(k) for k in rng.permutation(4)]
        self.first_kind = int(rng.integers(3))

    def delta(self, i: int) -> float:
        v = golden(self.start, i // 4)
        u = (v / 2, (1 - v) / 2, 0.5 + v / 2, 1 - v / 2)[self.order[i % 4]]
        return log_uniform(self.lo, self.hi, u)

    def f0_kind(self, i: int) -> str:
        return F0_KINDS[(i + self.first_kind) % 3]


# ---------------------------------------------------------------------------

TriageOp = namedtuple("TriageOp", "kind delta eps")


class Triage(Workload):
    name = "triage"
    why = ("rigidity scans over the window: closed-form, perturbed, "
           "finite-difference callable and CSV-table fields; fields and "
           "analysis do the work")
    # Fixed mix per cycle of eight ops; a seeded permutation sets the order.
    MIX = ("delta",) * 3 + ("perturbed",) * 2 + ("callable",) * 2 + ("table",)
    split = 1e-2  # the middle of TABLE_DELTAS
    group = len(MIX)
    # Five passes meet every TABLE_DELTAS entry equally often in each kind,
    # so the share of ops hit by the fd defect is the same for every seed.
    period = len(TABLE_DELTAS) * len(MIX)
    TABLE_REGION = Region(WINDOW.x_min - 0.01, WINDOW.x_max + 0.01,
                          WINDOW.y_min - 0.01, WINDOW.y_max + 0.01)

    def __init__(self, seed, tmp, layers):
        super().__init__(seed, tmp, layers)
        rng = self.rng(1)
        self.cycle = [self.MIX[k] for k in rng.permutation(len(self.MIX))]
        self.delta_start = {k: int(rng.integers(len(TABLE_DELTAS)))
                            for k in ("delta", "perturbed", "callable")}
        self.eps_start = rng.random()
        self.table_delta = log_uniform(0.1, 1.0, rng.random())
        self.table_path = os.path.join(tmp, "table.csv")
        self.grids = {
            "delta": aligned_gridspec(WINDOW, 2001, 2001),
            "perturbed": aligned_gridspec(WINDOW, 2001, 2001),
            "callable": aligned_gridspec(WINDOW, 1001, 1001),
            "table": aligned_gridspec(WINDOW, 401, 401),
        }

    def setup(self):
        write_field_csv(DeltaField(DeltaFamily(self.table_delta)),
                        self.TABLE_REGION, GridSpec(201, 201), self.table_path)
        self.table_truth = abs_mu_family(self.table_delta, self.grids["table"])

    def warm_up_ops(self):
        return [TriageOp("delta", 1e-2, 0.0), TriageOp("perturbed", 1e-2, 1e-2),
                TriageOp("callable", 1e-2, 0.0), TriageOp("table", self.table_delta, 0.0)]

    def params(self, i):
        slot = i % len(self.cycle)
        kind = self.cycle[slot]
        if kind == "table":
            return TriageOp(kind, self.table_delta, 0.0)
        # number of earlier ops of this kind
        k = (i // len(self.cycle)) * self.MIX.count(kind) \
            + self.cycle[:slot].count(kind)
        delta = TABLE_DELTAS[(k + self.delta_start[kind]) % len(TABLE_DELTAS)]
        eps = log_uniform(1e-3, 1e-1, golden(self.eps_start, k)) \
            if kind == "perturbed" else 0.0
        return TriageOp(kind, delta, eps)

    def run(self, op):
        L = self.layers
        fam = DeltaFamily(op.delta)
        if op.kind == "table":
            field = L.from_csv(self.table_path)
        elif op.kind == "delta":
            field = DeltaField(fam)
        elif op.kind == "perturbed":
            field = PerturbedDeltaField(fam, op.eps)
        else:
            d2 = op.delta * op.delta
            field = CallableField(lambda x, y: (y * y + d2) / ((1.0 + x) * (1.0 + x)),
                                  lambda x, y: -2.0 * y / (1.0 + x))
        return L.scan_region(L.field(field), WINDOW, self.grids[op.kind])

    def nodes(self, op, report):
        return self.grids[op.kind].count

    def check(self, op, report, first):
        if op.kind == "perturbed":
            return OK if not report.rigid else Wrong("perturbed fixture scanned as rigid")
        if op.kind == "table":
            inf_mu, sup_mu = self.table_truth
            if (abs(report.inf_mu - inf_mu) <= TABLE_MU_TOL
                    and abs(report.sup_mu - sup_mu) <= TABLE_MU_TOL):
                return OK
            return Wrong(f"table |mu| range {report.inf_mu:.6g}..{report.sup_mu:.6g}"
                         f" != family {inf_mu:.6g}..{sup_mu:.6g}")
        if op.kind == "callable":
            self.count("fd_scans")
            self.count("fd_agree", report.rigid)
        row = report.to_csv_row().split(",", 1)[1]
        if row != GOLDEN_ROWS[op.delta]:
            return Wrong(f"{op.kind} delta={op.delta:g}: row {row} != golden "
                         f"{GOLDEN_ROWS[op.delta]}")
        if report.rigid:
            return OK
        if op.kind == "callable" and op.delta <= 1e-3:
            return DEFECT_FD_VERDICT
        return Wrong(f"{op.kind} delta={op.delta:g}: rigid family scanned as not rigid")


# ---------------------------------------------------------------------------

SolveOp = namedtuple("SolveOp", "delta f0")


class SolveLarge(Workload):
    name = "solve_large"
    why = ("2049² characteristic solve, identification both ways and "
           "analytic residual for delta in [1e-10, 1]; transport compute, no I/O")
    grid = GridSpec(2049, 2049)

    def __init__(self, seed, tmp, layers):
        super().__init__(seed, tmp, layers)
        self.sweep = DeltaSweep(self.rng(2), 1e-10, 1.0)
        self.split = self.sweep.split

    def warm_up_ops(self):
        return [SolveOp(self.split, "exp:0.5+0.5i")]

    def params(self, i):
        h = self.sweep
        return SolveOp(h.delta(i), draw_f0(self.rng(2, i), h.f0_kind(i)))

    def run(self, op):
        L = self.layers
        fam = DeltaFamily(op.delta)
        w = L.solve(fam, transport.parse_f0(op.f0), WINDOW, self.grid)
        uv = L.to_real_pair(fam, w)
        w2 = L.from_real_pair(fam, uv)
        res = L.residual_analytic(L.field(DeltaField(fam)), uv, mode="analytic")
        return w, uv, w2, res

    def nodes(self, op, result):
        return self.grid.count

    def check(self, op, result, first):
        w, uv, w2, res = result
        scale = max(float(np.abs(uv.u).max()), float(np.abs(uv.v).max()))
        rel = res.max_residual / scale
        rt = float(np.abs(w2.values - w.values).max()) \
            / float(np.abs(w.values).max()) * min(1.0, op.delta)
        self.facts["roundtrip_rel_err"] = max(self.facts.get("roundtrip_rel_err", 0.0), rt)
        if rel > RESIDUAL_ULPS * np.finfo(float).eps:
            return Wrong(f"analytic residual {rel:.3g} x max(|u|,|v|) "
                         f"at delta={op.delta:.3g}, f0={op.f0}")
        if rt > ROUNDTRIP_TOL:
            return Wrong(f"identification round trip error {rt:.3g} "
                         f"at delta={op.delta:.3g}, f0={op.f0}")
        return OK


# ---------------------------------------------------------------------------

_RESIDUAL_LINE = re.compile(r"^max \|.*\| = (\S+)$", re.M)


def _captured(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(argv)
    return code, buf.getvalue()


class RoundtripIO(Workload):
    name = "roundtrip_io"
    why = ("cli solve on 257² then verify --uv-csv and --w-csv in-process; "
           "CSV write and read dominate, so I/O changes show here")
    grid = GridSpec(257, 257)  # the cli's default solve grid

    def __init__(self, seed, tmp, layers):
        super().__init__(seed, tmp, layers)
        self.sweep = DeltaSweep(self.rng(3), 1e-4, 1.0)
        self.split = self.sweep.split
        self.base = os.path.join(tmp, "sol")

    def warm_up_ops(self):
        return [SolveOp(self.split, "exp:0.5+0.5i")]

    def params(self, i):
        h = self.sweep
        return SolveOp(h.delta(i), draw_f0(self.rng(3, i), h.f0_kind(i)))

    def run(self, op):
        L = self.layers
        d = repr(op.delta)
        with L.cli_traced():
            return (
                _captured(L.cli_solve, ["solve", "--delta", d, "--f0", op.f0,
                                        "--out", self.base]),
                _captured(L.cli_verify, ["verify", "--delta", d, "--uv-csv",
                                         self.base + "_uv.csv"]),
                _captured(L.cli_verify, ["verify", "--delta", d, "--w-csv",
                                         self.base + "_w.csv"]),
            )

    def nodes(self, op, result):
        return self.grid.count

    def check(self, op, result, first):
        (c_solve, out_solve), (c_uv, out_uv), (c_w, out_w) = result
        self.count("verify_calls", 2)
        self.count("verify_rejects", (c_uv != 0) + (c_w != 0))
        if c_solve != 0:
            return Wrong(f"solve exited {c_solve}: {out_solve.strip()}")
        fam = DeltaFamily(op.delta)
        w = transport.solve_characteristic(fam, transport.parse_f0(op.f0),
                                           WINDOW, self.grid)
        uv = transport.to_real_pair(fam, w)
        if first:
            uv_r = transport.read_real_pair_csv(self.base + "_uv.csv")
            w_r = transport.read_complex_csv(self.base + "_w.csv")
            if not all(np.array_equal(a, b) for a, b in (
                    (uv_r.xs, uv.xs), (uv_r.ys, uv.ys), (uv_r.u, uv.u),
                    (uv_r.v, uv.v), (w_r.values, w.values))):
                return Wrong("CSV round trip is not bit-exact")
        if c_uv == 0 and c_w == 0:
            return OK
        # verify rejected an exact solution.  The seed's verify compares an
        # absolute threshold with a residual that scales with the solution
        # (v grows like 1/delta); a rejection is that defect when the
        # residual is below the threshold relative to the solution's size.
        scale_uv = max(float(np.abs(uv.u).max()), float(np.abs(uv.v).max()))
        scale_w = float(np.abs(w.values).max())
        for code, out, scale in ((c_uv, out_uv, scale_uv), (c_w, out_w, scale_w)):
            if code == 0:
                continue
            found = [float(v) for v in _RESIDUAL_LINE.findall(out)]
            if code != 2 or not found:
                return Wrong(f"verify exited {code}: {out.strip()}")
            if max(found) / scale >= cli.DEFAULT_VERIFY_THRESHOLD:
                return Wrong(f"verify residual {max(found):.6g} against "
                             f"solution size {scale:.6g}")
        return DEFECT_VERIFY_THRESHOLD


# ---------------------------------------------------------------------------

BaselineOp = namedtuple("BaselineOp", "delta")


class Baseline(Workload):
    name = "baseline"
    why = ("family mu on the 256² torus then Neumann iteration, delta in "
           "[0.01, 1]; the only workload where beltrami works")
    grid = bl.TorusGrid(256)
    period = 24

    def __init__(self, seed, tmp, layers):
        super().__init__(seed, tmp, layers)
        self.sweep = DeltaSweep(self.rng(4), 0.01, 1.0)
        self.split = self.sweep.split

    def warm_up_ops(self):
        return [BaselineOp(self.split)]

    def params(self, i):
        return BaselineOp(self.sweep.delta(i))

    def run(self, op):
        L = self.layers
        mu = L.family_mu(DeltaFamily(op.delta), self.grid)
        return L.neumann(bl.BeltramiProblem(mu, self.grid))

    def nodes(self, op, result):
        return self.grid.n * self.grid.n * result[1].iterations

    def check(self, op, result, first):
        w, trace = result
        self.count("iterations", trace.iterations)
        self.count("converged", trace.verdict == bl.VERDICT_CONVERGED)
        if trace.verdict == bl.VERDICT_MAX_ITER:
            self.count("wasted_sweeps", trace.iterations)
        if trace.verdict == bl.VERDICT_DIVERGED:
            return Wrong(f"Neumann diverged at delta={op.delta:.3g}")
        if trace.verdict == bl.VERDICT_CONVERGED and not trace.residuals[-1] < bl.DEFAULT_TOL:
            return Wrong(f"converged with residual {trace.residuals[-1]:.3g} >= tol")
        if not np.all(np.isfinite(w)):
            return Wrong("non-finite reconstruction")
        return OK


WORKLOADS = {wl.name: wl for wl in (Triage, SolveLarge, RoundtripIO, Baseline)}
