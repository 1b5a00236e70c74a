import hashlib

import numpy as np
import pytest

from rigidpde.beltrami import (
    DEFAULT_TOL,
    DEFAULT_TRUNCATION_MARGIN,
    DIVERGENCE_FACTOR,
    RATE_SWEEPS,
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_MAX_ITER,
    BeltramiProblem,
    IterationTrace,
    TorusGrid,
    _ramp,
    beurling_transform,
    cauchy_transform,
    classify_contraction,
    delta_sweep,
    family_mu_on_torus,
    smoothstep,
    solve_beltrami_neumann,
)
from rigidpde.errors import NonFiniteCoefficient
from rigidpde.fields import REFERENCE_WINDOW, DeltaFamily, Region


def periodic_dbar_dz(f, grid):
    """Independent oracle: periodic central differences for dbar and dz."""
    h = grid.spacing

    def ddx(v):
        return (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * h)

    def ddy(v):
        return (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)

    return 0.5 * (ddx(f) + 1j * ddy(f)), 0.5 * (ddx(f) - 1j * ddy(f))


def test_torus_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(100)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(8)  # too small
    g = TorusGrid(64)
    assert g.L == 4.0
    assert g.spacing == pytest.approx(8.0 / 64)


def test_beurling_zero_and_size_mismatch():
    grid = TorusGrid(32)
    assert np.all(beurling_transform(np.zeros((32, 32)), grid) == 0.0)
    with pytest.raises(ValueError):
        beurling_transform(np.zeros((16, 16)), grid)


def test_beurling_plane_wave_unit_modulus_multiplier():
    # one Fourier mode scales by conj(xi)/xi, computed independently here
    grid = TorusGrid(64)
    X, Y = np.meshgrid(*grid.axes())
    for k1, k2 in ((3, 5), (-2, 7), (1, 0)):
        xi1 = 2 * np.pi * k1 / (2 * grid.L)
        xi2 = 2 * np.pi * k2 / (2 * grid.L)
        f = np.exp(1j * (xi1 * X + xi2 * Y))
        xic = xi1 + 1j * xi2
        expected = (np.conj(xic) / xic) * f
        np.testing.assert_allclose(beurling_transform(f, grid), expected,
                                   rtol=0, atol=1e-12)
        assert abs(abs(np.conj(xic) / xic) - 1.0) < 1e-15


def test_beurling_isometry_on_zero_mean_grids():
    rng = np.random.default_rng(0)
    grid = TorusGrid(64)
    for _ in range(5):
        f = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        f -= f.mean()
        sf = beurling_transform(f, grid)
        assert np.linalg.norm(sf) == pytest.approx(np.linalg.norm(f), rel=1e-12)


def test_beurling_linearity():
    rng = np.random.default_rng(1)
    grid = TorusGrid(32)
    f = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    g = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = beurling_transform(a * f + b * g, grid)
    rhs = a * beurling_transform(f, grid) + b * beurling_transform(g, grid)
    scale = np.abs(lhs).max()
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, scale)


def test_beurling_maps_dbar_to_dz():
    # S(dbar g) = dz g, checked against finite-difference derivatives of a
    # smooth localized bump; the agreement is at fd accuracy O(h**2)
    errs = []
    for n in (128, 256):
        grid = TorusGrid(n)
        X, Y = np.meshgrid(*grid.axes())
        g = np.exp(-(X**2 + Y**2) / 1.28)
        dbar, dz = periodic_dbar_dz(g, grid)
        errs.append(np.abs(beurling_transform(dbar, grid) - dz).max())
    assert errs[0] < 5e-4
    assert 3.0 < errs[0] / errs[1] < 5.0  # second-order in the grid spacing


def test_cauchy_transform_inverts_dbar():
    grid = TorusGrid(256)
    X, Y = np.meshgrid(*grid.axes())
    f = (1.0 + 0.3j) * np.exp(-(X**2 + Y**2) / 0.8)
    f -= f.mean()
    dbar_cf, _ = periodic_dbar_dz(cauchy_transform(f, grid), grid)
    assert np.abs(dbar_cf - f).max() < 1e-3  # fd accuracy


def test_window_ramp_profile():
    grid = TorusGrid(64)
    X, Y = np.meshgrid(*grid.axes())
    inner = Region(-0.5, 1.0, -1.0, 1.0)
    w = (_ramp(X, inner.x_min, inner.x_max, 0.4)
         * _ramp(Y, inner.y_min, inner.y_max, 0.4))
    # strictly inside the window the ramps clip to exactly 1
    inside = (X > -0.4) & (X < 0.9) & (np.abs(Y) < 0.9)
    outside = (X < -0.9) | (X > 1.4) | (np.abs(Y) > 1.4)
    assert np.all(w[inside] == 1.0)
    assert np.all(w[outside] == 0.0)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_family_mu_truncated_support_and_bound():
    grid = TorusGrid(128)
    mu = family_mu_on_torus(DeltaFamily(0.1), grid)
    assert np.abs(mu).max() < 1.0
    X, Y = np.meshgrid(*grid.axes())
    assert np.all(mu[(X < -0.95)] == 0.0)  # support stays right of x = -1


def test_neumann_mu_zero_converges_immediately():
    grid = TorusGrid(32)
    w, trace = solve_beltrami_neumann(BeltramiProblem(np.zeros((32, 32)), grid))
    assert trace.verdict == VERDICT_CONVERGED
    assert trace.iterations == 1
    X, Y = np.meshgrid(*grid.axes())
    np.testing.assert_array_equal(w, X + 1j * Y)  # w = z exactly


def test_neumann_constant_mu_fixed_point_in_one_step():
    grid = TorusGrid(32)
    c = 0.3 + 0.1j
    w, trace = solve_beltrami_neumann(
        BeltramiProblem(np.full((32, 32), c), grid))
    assert trace.verdict == VERDICT_CONVERGED
    assert trace.iterations <= 2
    assert trace.residuals[0] == pytest.approx(abs(c))
    assert trace.residuals[-1] == 0.0  # iterate lands on phi = c in one step


def test_neumann_family_iteration_counts_grow():
    traces = delta_sweep((1.0, 0.3, 0.1, 0.01))
    ks = [traces[d].iterations for d in (1.0, 0.3, 0.1)]
    assert all(traces[d].verdict == VERDICT_CONVERGED for d in (1.0, 0.3, 0.1))
    assert ks[0] < ks[1] < ks[2]
    assert traces[0.01].verdict in (VERDICT_DIVERGED, VERDICT_MAX_ITER)


def test_neumann_divergence_verdict():
    grid = TorusGrid(128)
    X, Y = np.meshgrid(*grid.axes())
    mu = 1.3 * np.exp(1j * (2 * np.pi / 8) * (X + 2 * Y))  # sup|mu| > 1
    _, trace = solve_beltrami_neumann(BeltramiProblem(mu, grid, max_iter=500))
    assert trace.verdict == VERDICT_DIVERGED
    assert trace.residuals[-1] > 1e3 * trace.residuals[0]


def test_problem_rejects_non_finite_mu():
    # a NaN used to run the whole budget and report max-iter, sup_mu = nan;
    # node (i, j) = (3, 40) sits at x = -4 + 40/8, y = -4 + 3/8
    grid = TorusGrid(64)
    for bad in (np.nan, np.inf, complex(0.1, np.nan)):
        mu = np.zeros((64, 64), dtype=complex)
        mu[3, 40] = bad
        with pytest.raises(NonFiniteCoefficient,
                           match=r"mu = .* at \(x=1\.0, y=-3\.625\)"):
            BeltramiProblem(mu, grid)


def test_problem_rejects_a_mismatched_mu_or_a_negative_budget():
    grid = TorusGrid(16)
    with pytest.raises(ValueError, match=r"^mu shape \(8, 8\) does not match grid 16$"):
        BeltramiProblem(np.zeros((8, 8)), grid)
    with pytest.raises(ValueError, match="^need max_iter >= 0, got -1$"):
        BeltramiProblem(np.zeros((16, 16)), grid, max_iter=-1)


def test_neumann_zero_budget_reports_max_iter():
    grid = TorusGrid(32)
    _, trace = solve_beltrami_neumann(
        BeltramiProblem(np.zeros((32, 32)), grid, max_iter=0))
    assert trace.verdict == VERDICT_MAX_ITER
    assert trace.iterations == 0
    assert trace.residuals == []


def test_classify_contraction():
    assert classify_contraction(0.992) == "near-divergent"
    assert classify_contraction(0.2) == "contractive"
    assert classify_contraction(1.3) == "divergent"


def test_trace_csv_format():
    grid = TorusGrid(32)
    _, trace = solve_beltrami_neumann(
        BeltramiProblem(np.full((32, 32), 0.25), grid))
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == "iter,residual"
    assert lines[1].startswith("1,")
    assert len(lines) == 1 + len(trace.residuals)


# --- broadcast axes against the meshgrid formulas they replaced --------------
# ref_family_mu and ref_multipliers are the masked-meshgrid coefficient and
# the meshgrid Fourier symbols, kept as references the library must match
# bit for bit (sign of zero included).

def ref_family_mu(fam, grid, inner, margin):
    X, Y = np.meshgrid(*grid.axes())

    def ramp(v, lo, hi):
        return smoothstep((v - (lo - margin)) / margin) * \
            smoothstep(((hi + margin) - v) / margin)

    window = ramp(X, inner.x_min, inner.x_max) * ramp(Y, inner.y_min, inner.y_max)
    mu = np.zeros_like(X, dtype=complex)
    mask = window > 0.0
    lam = (Y[mask] + 1j * fam.delta) / (1.0 + X[mask])
    mu[mask] = window[mask] * (lam - 1j) / (lam + 1j)
    return mu


def ref_multipliers(grid):
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    xi1, xi2 = np.meshgrid(xi, xi)
    xic = xi1 + 1j * xi2
    nz = xic != 0
    beurling = np.zeros_like(xic)
    beurling[nz] = np.conj(xic[nz]) / xic[nz]
    cauchy = np.zeros_like(xic)
    cauchy[nz] = -2j / xic[nz]
    return beurling, cauchy


def assert_same_bits(got, want):
    assert got.shape == want.shape
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        np.testing.assert_array_equal(
            np.ascontiguousarray(g).view(np.uint64),
            np.ascontiguousarray(w).view(np.uint64))


# margin: the width of the reference's ring, the library's truncation margin
@pytest.mark.parametrize("grid,margin", [
    (TorusGrid(256), DEFAULT_TRUNCATION_MARGIN),
    (TorusGrid(64), DEFAULT_TRUNCATION_MARGIN)])
@pytest.mark.parametrize("delta", [1.0, 0.1, 0.01, 1e-3])
def test_family_mu_matches_the_masked_meshgrid(grid, margin, delta):
    fam = DeltaFamily(delta)
    assert_same_bits(family_mu_on_torus(fam, grid),
                     ref_family_mu(fam, grid, REFERENCE_WINDOW, margin))


@pytest.mark.parametrize("grid", [TorusGrid(16), TorusGrid(128)])
def test_transforms_match_the_meshgrid_symbols(grid):
    rng = np.random.default_rng(7)
    f = (rng.standard_normal((grid.n, grid.n))
         + 1j * rng.standard_normal((grid.n, grid.n)))
    f[0, :3] = [0.0, -0.0, complex(-0.0, 0.0)]
    beurling, cauchy = ref_multipliers(grid)
    assert_same_bits(beurling_transform(f, grid),
                     np.fft.ifft2(beurling * np.fft.fft2(f)))
    assert_same_bits(cauchy_transform(f, grid),
                     np.fft.ifft2(cauchy * np.fft.fft2(f)))


# --- observed contraction rate -----------------------------------------------

def test_observed_rate_of_a_converged_trace():
    grid = TorusGrid(64)
    _, trace = solve_beltrami_neumann(
        BeltramiProblem(family_mu_on_torus(DeltaFamily(1.0), grid),
                        grid))
    assert trace.verdict == VERDICT_CONVERGED
    r = trace.residuals
    assert len(r) > RATE_SWEEPS + 1
    want = (r[-1] / r[-1 - RATE_SWEEPS]) ** (1.0 / RATE_SWEEPS)
    assert trace.observed_rate() == want
    assert 0.0 < want < 1.0


def test_observed_rate_of_a_max_iter_trace():
    grid = TorusGrid(256)
    _, trace = solve_beltrami_neumann(BeltramiProblem(
        family_mu_on_torus(DeltaFamily(0.01), grid), grid, max_iter=40))
    assert trace.verdict == VERDICT_MAX_ITER
    rate = trace.observed_rate()
    r = trace.residuals
    assert rate == (r[-1] / r[-1 - RATE_SWEEPS]) ** (1.0 / RATE_SWEEPS)
    # slow contraction, below the L2 estimate sup|mu| = 0.992
    assert 0.9 < rate < 0.9921


def test_observed_rate_of_short_traces():
    assert IterationTrace().observed_rate() is None
    assert IterationTrace(residuals=[0.5]).observed_rate() is None
    # fewer sweeps than RATE_SWEEPS: every ratio the trace has
    short = IterationTrace(residuals=[0.5, 0.125, 0.03125])
    assert short.observed_rate() == 0.25
    grid = TorusGrid(32)
    _, trace = solve_beltrami_neumann(BeltramiProblem(np.zeros((32, 32)), grid))
    assert trace.iterations == 1 and trace.observed_rate() is None
    _, trace = solve_beltrami_neumann(
        BeltramiProblem(np.full((32, 32), 0.3 + 0.1j), grid))
    assert trace.residuals[-1] == 0.0 and trace.observed_rate() == 0.0


# --- the support-restricted sweep against full-grid transforms ---------------

def ref_neumann(problem):
    """The plain Neumann loop: full-grid fft2/ifft2 on every sweep.  Also
    returns sup|phi_k| + sup|phi_(k-1)|, the scale of each residual."""
    grid = problem.grid
    sym, cauchy = ref_multipliers(grid)
    phi = np.zeros((grid.n, grid.n), dtype=complex)
    residuals, scales, verdict = [], [], VERDICT_MAX_ITER
    for _ in range(problem.max_iter):
        f = np.fft.fft2(phi)
        f *= sym
        nxt = np.fft.ifft2(f)
        nxt += 1.0
        nxt *= problem.mu
        residuals.append(float(np.abs(nxt - phi).max()))
        scales.append(float(np.abs(nxt).max() + np.abs(phi).max()))
        phi = nxt
        if residuals[-1] < DEFAULT_TOL:
            verdict = VERDICT_CONVERGED
            break
        if residuals[-1] > DIVERGENCE_FACTOR * residuals[0]:
            verdict = VERDICT_DIVERGED
            break
    X, Y = np.meshgrid(*grid.axes())
    f = np.fft.fft2(phi)
    f *= cauchy
    return X + 1j * Y + np.fft.ifft2(f), residuals, scales, verdict


# numpy's FMA loops round a*b and b*a apart in the last bit, so the
# reference multiplies in the library's operand order (the order numpy's
# in-place temporaries give the full-grid code at 256²).  What is left is
# where an entry falls in numpy's vector loops, which moves the last bit of
# a product: residuals agree to ulps of the iterates they subtract, w to
# ulps of its size.
ULPS = 4


def assert_matches_reference(n, r0, h, c0, w, scale, seed):
    """mu random on the h x w rectangle of the n x n torus whose first
    row and column are r0 and c0 (it wraps round the edge past n)."""
    rows, cols = (r0 + np.arange(h)) % n, (c0 + np.arange(w)) % n
    rng = np.random.default_rng(seed)
    mu = np.zeros((n, n), dtype=complex)
    mu[np.ix_(rows, cols)] = (rng.uniform(0.0, scale, (h, w))
                              * np.exp(2j * np.pi * rng.random((h, w))))
    problem = BeltramiProblem(mu, TorusGrid(n), max_iter=80)
    w_got, trace = solve_beltrami_neumann(problem)
    w_ref, residuals, scales, verdict = ref_neumann(problem)
    assert trace.verdict == verdict
    assert trace.iterations == len(residuals)
    eps = ULPS * np.finfo(float).eps
    assert np.all(np.abs(np.subtract(trace.residuals, residuals))
                  <= eps * np.array(scales))
    assert np.abs(w_got - w_ref).max() <= eps * np.abs(w_ref).max()


@pytest.mark.parametrize("n,r0,h,c0,w", [
    (32, 5, 0, 3, 7),     # empty: mu = 0
    (32, 0, 32, 0, 32),   # full support
    (64, 60, 9, 62, 5),   # wraps round both edges
    (16, 15, 2, 7, 1),    # one column, wrapping rows
])
@pytest.mark.parametrize("scale", [0.9, 1.5])
def test_restricted_sweep_on_named_supports(n, r0, h, c0, w, scale):
    assert_matches_reference(n, r0, h, c0, w, scale, seed=3)


def test_restricted_sweep_matches_full_transforms():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(n=st.sampled_from([16, 32, 64]), data=st.data(),
               scale=st.sampled_from([0.0, 0.3, 0.9, 1.5]),
               seed=st.integers(0, 2**16))
    def check(n, data, scale, seed):
        r0, c0 = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        h, w = (data.draw(st.integers(0, n)) for _ in range(2))
        assert_matches_reference(n, r0, h, c0, w, scale, seed)

    check()


# Recorded from the full-grid fft2/ifft2 loop at 256² (numpy's pocketfft,
# x86-64): sha256 of the residuals as float64 bytes, and of w's bytes.
SWEEP_GOLDEN = {
    1: (VERDICT_CONVERGED, 28,
        "2b0635d72f2bf203182cdaf3a1c38fedaa9e2b29455fedf2c32ea5a0767240d4"),
    0.3: (VERDICT_CONVERGED, 61,
          "6c4caf672e036efd1543fb3f9048cb6cbadb79d8a70838becc49be4e1063f7b4"),
    0.1: (VERDICT_CONVERGED, 146,
          "3ef40166e571f8fd440a402a90652d4fd64056a54907b179c46e041e6571d67b"),
    0.01: (VERDICT_MAX_ITER, 300,
           "afe5a5139344d373c7bad8fe37e200e4c81e8852da4ffa04ffde56fc95913fc7"),
}
W_GOLDEN = {
    1: "1ea4fef9cc51a758b23aafa46cf1253370f76c5216e70739db561f29e03929ef",
    0.01: "a16d6062cd6792e0067224d231e899a96b22bfe5c2e730d767324fc918befb55",
}


def sha256_of(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_delta_sweep_is_byte_identical_to_golden():
    traces = delta_sweep((1, 0.3, 0.1, 0.01))
    got = {d: (t.verdict, t.iterations, sha256_of(np.array(t.residuals)))
           for d, t in traces.items()}
    assert got == SWEEP_GOLDEN


@pytest.mark.parametrize("delta", sorted(W_GOLDEN))
def test_family_w_is_byte_identical_to_golden(delta):
    grid = TorusGrid(256)
    w, _ = solve_beltrami_neumann(
        BeltramiProblem(family_mu_on_torus(DeltaFamily(delta), grid), grid))
    assert sha256_of(w) == W_GOLDEN[delta]
