import numpy as np
import pytest

from rigidpde.beltrami import (
    VERDICT_CONVERGED,
    VERDICT_DIVERGED,
    VERDICT_MAX_ITER,
    BeltramiProblem,
    TorusGrid,
    beurling_transform,
    cauchy_transform,
    classify_contraction,
    contraction_estimate,
    delta_sweep,
    family_mu_on_torus,
    smoothstep,
    solve_beltrami_neumann,
    truncation_bump,
)
from rigidpde.errors import DomainError
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
    with pytest.raises(ValueError):
        TorusGrid(64, L=0.0)
    g = TorusGrid(64, L=2.0)
    assert g.spacing == pytest.approx(4.0 / 64)


def test_beurling_zero_and_size_mismatch():
    grid = TorusGrid(32)
    assert np.all(beurling_transform(np.zeros((32, 32)), grid) == 0.0)
    with pytest.raises(ValueError):
        beurling_transform(np.zeros((16, 16)), grid)


def test_beurling_plane_wave_unit_modulus_multiplier():
    # one Fourier mode scales by conj(xi)/xi, computed independently here
    grid = TorusGrid(64, L=2.0)
    X, Y = grid.meshgrid()
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
        X, Y = grid.meshgrid()
        g = np.exp(-(X**2 + Y**2) / 1.28)
        dbar, dz = periodic_dbar_dz(g, grid)
        errs.append(np.abs(beurling_transform(dbar, grid) - dz).max())
    assert errs[0] < 5e-4
    assert 3.0 < errs[0] / errs[1] < 5.0  # second-order in the grid spacing


def test_cauchy_transform_inverts_dbar():
    grid = TorusGrid(256)
    X, Y = grid.meshgrid()
    f = (1.0 + 0.3j) * np.exp(-(X**2 + Y**2) / 0.8)
    f -= f.mean()
    dbar_cf, _ = periodic_dbar_dz(cauchy_transform(f, grid), grid)
    assert np.abs(dbar_cf - f).max() < 1e-3  # fd accuracy


def test_truncation_bump_profile():
    grid = TorusGrid(64)
    X, Y = grid.meshgrid()
    inner = Region(-0.5, 1.0, -1.0, 1.0)
    w = truncation_bump(X, Y, inner, margin=0.4)
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
    X, Y = grid.meshgrid()
    assert np.all(mu[(X < -0.95)] == 0.0)  # support stays right of x = -1
    with pytest.raises(DomainError):
        family_mu_on_torus(DeltaFamily(0.1), grid, margin=0.6)  # ring hits x=-1


def test_neumann_mu_zero_converges_immediately():
    grid = TorusGrid(32)
    w, trace = solve_beltrami_neumann(BeltramiProblem(np.zeros((32, 32)), grid))
    assert trace.verdict == VERDICT_CONVERGED
    assert trace.iterations == 1
    X, Y = grid.meshgrid()
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
    traces = delta_sweep((1.0, 0.3, 0.1, 0.01), grid=TorusGrid(256))
    ks = [traces[d].iterations for d in (1.0, 0.3, 0.1)]
    assert all(traces[d].verdict == VERDICT_CONVERGED for d in (1.0, 0.3, 0.1))
    assert ks[0] < ks[1] < ks[2]
    assert traces[0.01].verdict in (VERDICT_DIVERGED, VERDICT_MAX_ITER)


def test_neumann_divergence_verdict():
    grid = TorusGrid(128)
    X, Y = grid.meshgrid()
    mu = 1.3 * np.exp(1j * (2 * np.pi / 8) * (X + 2 * Y))  # sup|mu| > 1
    _, trace = solve_beltrami_neumann(BeltramiProblem(mu, grid, max_iter=500))
    assert trace.verdict == VERDICT_DIVERGED
    assert trace.residuals[-1] > 1e3 * trace.residuals[0]


def test_problem_rejects_non_finite_mu():
    # a NaN used to run the whole budget and report max-iter, sup_mu = nan
    grid = TorusGrid(64)
    for bad in (np.nan, np.inf, complex(0.1, np.nan)):
        mu = np.zeros((64, 64), dtype=complex)
        mu[3, 40] = bad
        with pytest.raises(ValueError, match=r"\(i, j\) = \(3, 40\)"):
            BeltramiProblem(mu, grid)


def test_neumann_zero_budget_reports_max_iter():
    grid = TorusGrid(32)
    _, trace = solve_beltrami_neumann(
        BeltramiProblem(np.zeros((32, 32)), grid, max_iter=0))
    assert trace.verdict == VERDICT_MAX_ITER
    assert trace.iterations == 0
    assert trace.residuals == []


def test_contraction_estimate():
    assert contraction_estimate(0.5, 2.0) == 0.5
    assert contraction_estimate(0.4, 3.0) == pytest.approx(0.8)
    assert classify_contraction(contraction_estimate(0.992, 2.0)) == "near-divergent"
    assert classify_contraction(0.2) == "contractive"
    assert classify_contraction(1.3) == "divergent"
    with pytest.raises(ValueError):
        contraction_estimate(0.5, 1.5)
    with pytest.raises(ValueError):
        contraction_estimate(-0.1)


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
    X, Y = grid.meshgrid()

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


@pytest.mark.parametrize("grid,margin", [(TorusGrid(256), 0.4),
                                         (TorusGrid(64, L=3.0), 0.3)])
@pytest.mark.parametrize("delta", [1.0, 0.1, 0.01, 1e-3])
def test_family_mu_matches_the_masked_meshgrid(grid, margin, delta):
    fam = DeltaFamily(delta)
    assert_same_bits(family_mu_on_torus(fam, grid, margin=margin),
                     ref_family_mu(fam, grid, REFERENCE_WINDOW, margin))


def test_family_mu_with_an_empty_support_row_or_column():
    # an inner window and ring narrower than the spacing between nodes
    grid = TorusGrid(16)  # nodes at multiples of 0.5
    inner = Region(0.1, 0.2, 0.1, 0.2)
    mu = family_mu_on_torus(DeltaFamily(0.5), grid, inner=inner, margin=0.1)
    assert np.all(mu == 0.0)


@pytest.mark.parametrize("grid", [TorusGrid(16), TorusGrid(128, L=2.5)])
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
