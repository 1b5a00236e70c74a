"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""

import time

import numpy as np

from rigidpde.analysis import (
    TABLE_DELTAS,
    burgers_residual,
    degeneration_table,
    obstruction,
    scan_region,
)
from rigidpde.beltrami import (
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_MAX_ITER,
    TorusGrid,
    beurling_transform,
    delta_sweep,
)
from rigidpde.bench import BenchConfig, run_benchmark
from rigidpde.cli import main as cli_main
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    PerturbedDeltaField,
    aligned_gridspec,
    grid_axes,
)
from rigidpde.transport import (
    ExpAffine,
    LambdaPower,
    Polynomial,
    RealPairField,
    from_real_pair,
    read_real_pair_csv,
    solve_characteristic,
    system_residual,
    to_real_pair,
    transport_residual,
    write_real_pair_csv,
)

K = REFERENCE_WINDOW

# Reference degeneration rows for the delta family on K = [-1/2,1]x[-1,1]:
# delta -> (inf |mu|, sup |mu|, condition number), three significant digits.
REFERENCE_ROWS = {
    1.0: (0.0, 0.620, 18.0),
    1e-1: (0.667, 0.924, 6.3e2),
    1e-2: (0.961, 0.992, 6.3e4),
    1e-3: (0.996, 0.999, 6.3e6),
    1e-4: (0.9996, 0.9999, 6.3e8),
}


def _criterion(num: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def k_samples(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.0, n), rng.uniform(-1.0, 1.0, n)


def test_criterion_1_degeneration_table_reproduction():
    t0 = time.perf_counter()
    reports = degeneration_table(2001, 2001)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    for rep in reports:
        inf_ref, sup_ref, kappa_ref = REFERENCE_ROWS[rep.delta]
        ok &= abs(rep.inf_mu - inf_ref) <= 0.002
        ok &= abs(rep.sup_mu - sup_ref) <= 0.002
        ok &= abs(rep.kappa / kappa_ref - 1.0) <= 0.05
    _criterion(1, "degeneration table matches the reference rows "
                  f"(+-0.002 on |mu|, +-5% on kappa) in {elapsed:.1f}s <= 60s", ok)


def test_criterion_2_rigidity_of_the_family():
    ok = True
    for delta in (1.0, 1e-3, 1e-6):
        field = DeltaField(DeltaFamily(delta))
        x, y = k_samples(10**6, seed=int(1 / delta) % 2**31)
        a, b = obstruction(field.sample(x, y))
        ok &= float(np.maximum(np.abs(a), np.abs(b)).max()) < 1e-10
        r = burgers_residual(field, (x, y))
        ok &= float(np.abs(r).max()) < 1e-12
    _criterion(2, "obstruction max(|A|,|B|) < 1e-10 and |transport-law "
                  "residual| < 1e-12 over 1e6 samples, delta in {1,1e-3,1e-6}", ok)


def test_criterion_3_non_rigidity_detection():
    fam = DeltaFamily(0.5)
    fixture = PerturbedDeltaField(fam, eps=0.1)
    x, y = k_samples(10**4, seed=3)
    a, b = obstruction(fixture.sample(x, y))
    ab_mag = np.maximum(np.abs(a), np.abs(b))
    bare = CallableField(lambda xx, yy: fixture.values(xx, yy)[0],
                         lambda xx, yy: fixture.values(xx, yy)[1])
    fd_burg = np.abs(burgers_residual(bare, (x, y), h=1e-4))
    frac_ab = float(np.mean(ab_mag > 1e-3))
    frac_burg = float(np.mean(fd_burg > 1e-3))
    ok = frac_ab >= 0.99 and frac_burg >= 0.99
    # trend agreement: pointwise both detectors fire on the fixture and
    # both stay quiet on the unperturbed family (fd tolerances)
    ok &= bool(np.all((ab_mag > 1e-3) == (fd_burg > 1e-3)))
    family = DeltaField(fam)
    bare_family = CallableField(lambda xx, yy: family.values(xx, yy)[0],
                                lambda xx, yy: family.values(xx, yy)[1])
    a0, b0 = obstruction(family.sample(x, y))
    quiet_ab = np.maximum(np.abs(a0), np.abs(b0)) < 1e-10
    quiet_burg = np.abs(burgers_residual(bare_family, (x, y), h=1e-4)) < 1e-4
    ok &= bool(np.all(quiet_ab) and np.all(quiet_burg))
    _criterion(3, "perturbed fixture fires both detectors (> 1e-3) at "
                  f"{100*min(frac_ab, frac_burg):.1f}% >= 99% of points, "
                  "fd transport-law residual tracks (A,B) pointwise", ok)


def test_criterion_4_exact_solutions():
    ok = True
    # explicit pair (-alpha, -beta) with closed-form partials
    fam = DeltaFamily(1.0)
    xs, ys = grid_axes(K, GridSpec(257, 257))
    cs = DeltaField(fam).sample(*np.meshgrid(xs, ys))
    pair = RealPairField(xs, ys, -cs.alpha, -cs.beta,
                         partials=(-cs.alpha_x, -cs.alpha_y,
                                   -cs.beta_x, -cs.beta_y))
    ok &= system_residual(DeltaField(fam), pair, mode="analytic").max_residual < 1e-12
    # exponential of the spectral parameter solves the transport equation
    w_exp = solve_characteristic(fam, ExpAffine(1.0, 1j * fam.delta), K,
                                 GridSpec(257, 257))
    ok &= transport_residual(DeltaField(fam), w_exp, mode="analytic").max_r1 < 1e-12
    # the squared-parameter solve maps onto (-alpha, -beta)
    for delta in (1.0, 0.1, 0.01):
        famd = DeltaFamily(delta)
        uv = to_real_pair(famd, solve_characteristic(famd, LambdaPower(2), K,
                                                     GridSpec(257, 257)))
        alpha, beta = DeltaField(famd).values(*np.meshgrid(uv.xs, uv.ys))
        err = max(float(np.abs(uv.u + alpha).max()),
                  float(np.abs(uv.v + beta).max()))
        ok &= err < 1e-12
    _criterion(4, "explicit solutions verify to < 1e-12 (analytic residuals; "
                  "squared-parameter solve maps onto (-alpha,-beta) for "
                  "delta in {1,0.1,0.01})", ok)


def test_criterion_5_identification_roundtrips():
    rng = np.random.default_rng(5)
    xs, ys = grid_axes(K, GridSpec(65, 49))
    ok = True
    for delta in (1.0, 1e-4, 1e-10):
        fam = DeltaFamily(delta)
        u = rng.standard_normal((ys.size, xs.size))
        v = rng.standard_normal((ys.size, xs.size))
        uv = RealPairField(xs, ys, u, v)
        back = to_real_pair(fam, from_real_pair(fam, uv))
        ok &= float(np.abs(back.u - u).max()) < 1e-12
        ok &= float(np.abs(back.v - v).max()) < 1e-12
        for f0 in (LambdaPower(2), ExpAffine(1.0, 1j * delta),
                   Polynomial((0.25, -1.0, 0.5))):
            w = solve_characteristic(fam, f0, K, GridSpec(65, 49))
            w2 = from_real_pair(fam, to_real_pair(fam, w))
            ok &= float(np.abs(w2.values - w.values).max()) < 1e-12
    _criterion(5, "both identification roundtrips are the identity to 1e-12 "
                  "for delta in {1, 1e-4, 1e-10}", ok)


def _shared_interior_maxima(residual_grids):
    ny0, nx0 = residual_grids[0].shape
    out = []
    for lev, r in enumerate(residual_grids):
        st = 2**lev
        out.append(float(np.abs(r[st - 1::st, st - 1::st][:ny0, :nx0]).max()))
    return out


def test_criterion_6_fd_convergence_order():
    fam = DeltaFamily(1.0)
    field = DeltaField(fam)
    grids = [GridSpec(151, 201), GridSpec(301, 401), GridSpec(601, 801)]
    sys_r, tra_r = [], []
    for g in grids:
        w = solve_characteristic(fam, LambdaPower(3), K, g)
        rep = system_residual(field, to_real_pair(fam, w), mode="fd")
        sys_r.append(np.maximum(np.abs(rep.r1), np.abs(rep.r2)))
        w2 = solve_characteristic(fam, ExpAffine(1.0, 1j), K, g)
        tra_r.append(np.abs(transport_residual(DeltaField(fam), w2, mode="fd").r1))
    hs = np.log([1.0, 0.5, 0.25])
    slope_sys = np.polyfit(hs, np.log(_shared_interior_maxima(sys_r)), 1)[0]
    slope_tra = np.polyfit(hs, np.log(_shared_interior_maxima(tra_r)), 1)[0]
    ok = abs(slope_sys - 2.0) < 0.1 and abs(slope_tra - 2.0) < 0.1
    _criterion(6, f"fd residual slopes over h, h/2, h/4: system {slope_sys:.3f}, "
                  f"transport {slope_tra:.3f}, both within 2.0 +- 0.1", ok)


def test_criterion_7_delta_independent_cost():
    cfg = BenchConfig(deltas=(1.0, 1e-4, 1e-10), grid=GridSpec(512, 512),
                      repetitions=7)
    report = run_benchmark(cfg)
    assert all(r.error is None for r in report.rows)
    times = [r.char_time_s for r in report.rows]
    residuals = [r.char_residual for r in report.rows]
    kappas = [r.kappa for r in report.rows]
    time_ratio = max(times) / min(times)
    res_ratio = max(residuals) / min(residuals)
    ok = time_ratio <= 2.0 and res_ratio < 10.0
    # the contrast the harness exists to show: flat cost while kappa walks
    # from order 1e1 at delta=1 up through order 1e8 at delta=1e-4
    ok &= kappas[0] < 1e2 and kappas[1] >= 1e8 and kappas[2] > kappas[1]
    _criterion(7, f"512x512 characteristic solve: wall-time max/min = "
                  f"{time_ratio:.2f} <= 2, residual spread {res_ratio:.2f} < 10x, "
                  "while kappa spans 8 orders of magnitude", ok)


def test_criterion_8_condition_number_scaling():
    kappas = [scan_region(DeltaField(DeltaFamily(d)), K,
                          aligned_gridspec(K, 201, 201)).kappa
              for d in TABLE_DELTAS]
    slope = np.polyfit(np.log(TABLE_DELTAS), np.log(kappas), 1)[0]
    ok = abs(slope + 2.0) <= 0.1
    _criterion(8, f"log kappa vs log delta slope {slope:.3f} within -2.0 +- 0.1", ok)


def test_criterion_9_baseline_degradation():
    traces = delta_sweep((1.0, 0.3, 0.1, 0.01))
    ks = [traces[d].iterations for d in (1.0, 0.3, 0.1)]
    ok = all(traces[d].verdict == VERDICT_CONVERGED for d in (1.0, 0.3, 0.1))
    ok &= ks[0] < ks[1] < ks[2]
    ok &= traces[0.01].verdict in (VERDICT_DIVERGED, VERDICT_MAX_ITER)
    # singular-integral sanity: isometry, linearity, dbar -> dz intertwining
    grid = TorusGrid(256)
    rng = np.random.default_rng(9)
    f = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    f -= f.mean()
    g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    sf = beurling_transform(f, grid)
    ok &= abs(np.linalg.norm(sf) - np.linalg.norm(f)) < 1e-12 * np.linalg.norm(f)
    lin = beurling_transform(2.0 * f + (0.5 - 1j) * g, grid) \
        - 2.0 * sf - (0.5 - 1j) * beurling_transform(g, grid)
    ok &= float(np.abs(lin).max()) < 1e-12 * float(np.abs(sf).max() + 1)
    X, Y = np.meshgrid(*grid.axes())
    bump = np.exp(-(X**2 + Y**2) / 1.28)
    h = grid.spacing

    def ddx(v):
        return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)

    def ddy(v):
        return (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)

    dbar = 0.5 * (ddx(bump) + 1j * ddy(bump))
    dz = 0.5 * (ddx(bump) - 1j * ddy(bump))
    ok &= float(np.abs(beurling_transform(dbar, grid) - dz).max()) < 5e-4
    _criterion(9, f"iterations {ks[0]} < {ks[1]} < {ks[2]} then "
                  f"'{traces[0.01].verdict}' at delta=0.01; transform passes "
                  "isometry/linearity (1e-12) and derivative-intertwining "
                  "(fd accuracy) checks", ok)


TABLE_GOLDEN = """delta,inf_mu,sup_mu,kappa
1,0,0.620174,18.195
0.1,0.666667,0.923548,633.038
0.01,0.960784,0.992032,62508
0.001,0.996008,0.9992,6.25001e+06
0.0001,0.9996,0.99992,6.25e+08
"""

BENCH_HEADER = "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"


def test_criterion_10_cli_contract(tmp_path, capsys):
    ok = True

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out

    # golden degeneration-table layout (extrema sit on aligned nodes, so
    # the rendered values are resolution-independent)
    code, out = run("table1", "--grid", "201,201")
    ok &= code == 0 and out == TABLE_GOLDEN

    # exit-code contract
    code, _ = run("analyze", "--delta", "1", "--region", "-0.5,1,-1,1",
                  "--grid", "41,41")
    ok &= code == 0
    code, _ = run("analyze", "--delta", "1", "--region", "-2,1,-1,1")
    ok &= code == 1
    hyper = tmp_path / "hyperbolic.csv"
    hyper.write_text("x,y,alpha,beta\n" + "".join(
        f"{x},{y},1.0,3.0\n" for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)))
    code, _ = run("analyze", "--field-csv", str(hyper),
                  "--region", "0.2,0.8,0.2,0.8", "--grid", "5,5")
    ok &= code == 2

    base = tmp_path / "lp2"
    code, _ = run("solve", "--delta", "1", "--f0", "lpow:2", "--out", str(base))
    ok &= code == 0
    code, _ = run("solve", "--delta", "1", "--f0", "bogus:1", "--out", str(base))
    ok &= code == 1
    code, _ = run("verify", "--delta", "1", "--uv-csv", f"{base}_uv.csv")
    ok &= code == 0
    uv = read_real_pair_csv(f"{base}_uv.csv")
    uv.v[:] = 0.0
    write_real_pair_csv(uv, tmp_path / "bad_uv.csv")
    code, _ = run("verify", "--delta", "1", "--uv-csv", str(tmp_path / "bad_uv.csv"))
    ok &= code == 2
    code, _ = run("beltrami", "--delta", "1", "--n", "100")
    ok &= code == 1
    code, out = run("beltrami", "--delta", "1", "--n", "32", "--max-iter", "0")
    ok &= code == 0 and "max-iter-reached after 0 iterations" in out

    # bench CSV header is bit-exact
    code, out = run("bench", "--deltas", "1", "--grid", "64,64",
                    "--repetitions", "3")
    ok &= code == 0 and out.splitlines()[0] == BENCH_HEADER

    _criterion(10, "CLI contract: golden table layout, per-subcommand exit "
                   "codes, bit-exact bench CSV header", ok)
