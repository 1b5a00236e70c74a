"""Baseline elliptic method: Beurling transform and Neumann iteration.

The classical route to w_zbar = mu * w_z inverts I - mu*S by the fixed
point iteration phi <- mu*(1 + S(phi)), where S is the planar singular
integral with Fourier symbol conj(xi)/xi.  Here S is realized as a
periodic Fourier multiplier on a square torus; the coefficient mu is the
family's Beltrami coefficient truncated to compact support by a C^2
bump, so the degradation of the iteration as delta shrinks can be
measured directly.  Non-convergence is data, not an error: the solver
always returns an instrumented trace.

Every iterate vanishes wherever mu does, so a sweep transforms only the
rows and columns that carry mu: the family's truncated mu covers about
89 x 73 of 256 x 256 nodes, and a sweep does 2.6 full-grid 1-D FFT passes
instead of 4, with its elementwise work on that block alone.  The
skipped transforms are of zero lines and the kept ones see the same
input lines as fft2/ifft2, so the result is unchanged: bit for bit for
the family at 256^2, to rounding in the last bit elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import REFERENCE_WINDOW, DeltaFamily, DeltaField, _raise_non_finite, report_row

# Iteration defaults.  The budget is deliberately modest: with the default
# grid and truncation the iteration still converges near delta = 0.01
# (at roughly 400 sweeps), so a fixed budget of a few hundred is what
# exposes the blow-up of the iteration count while keeping sweeps cheap.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 300
DEFAULT_TRUNCATION_MARGIN = 0.4
DIVERGENCE_FACTOR = 1e3  # diverged: a difference above this times the first
NEAR_DIVERGENT = 0.9     # contraction estimates from here to 1
RATE_SWEEPS = 10         # observed_rate: ratios averaged at the trace's end

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_MAX_ITER = "max-iter-reached"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on the square cell [-L, L)^2, L = 4, with
    periodic topology; n must be a power of two >= 16."""

    n: int
    L = 4.0  # half-width: the truncated family mu fits well inside

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.n

    def axes(self):
        a = -self.L + self.spacing * np.arange(self.n)
        return a, a


def _multipliers(grid: TorusGrid):
    """Fourier symbols (Beurling, Cauchy) on the grid's frequencies
    xi_c = xi1 + i*xi2: conj(xi_c)/xi_c, of unit modulus, and -2i/xi_c, the
    inverse of dbar = (d/dx + i d/dy)/2 whose symbol is (i/2)*xi_c.  Both
    annihilate the mean mode (solutions normalized to zero mean)."""
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    xic = xi[None, :] + 1j * xi[:, None]
    nz = xic != 0
    beurling = np.zeros_like(xic)
    np.divide(np.conj(xic), xic, out=beurling, where=nz)
    cauchy = np.zeros_like(xic)
    np.divide(-2j, xic, out=cauchy, where=nz)
    return beurling, cauchy


def _apply_multiplier(f, grid: TorusGrid, sym):
    f = np.asarray(f, dtype=complex)
    if f.shape != (grid.n, grid.n):
        raise ValueError(f"grid size mismatch: {f.shape} vs {(grid.n, grid.n)}")
    return np.fft.ifft2(sym * np.fft.fft2(f))


def beurling_transform(f, grid: TorusGrid):
    """Fourier-multiplier Beurling transform: mode xi scaled by
    conj(xi)/xi, zero mode set to 0.  An L2 isometry on zero-mean data."""
    return _apply_multiplier(f, grid, _multipliers(grid)[0])


def cauchy_transform(f, grid: TorusGrid):
    """Periodic solid Cauchy transform: inverts dbar with zero mean."""
    return _apply_multiplier(f, grid, _multipliers(grid)[1])


def smoothstep(t):
    """C^2 quintic ramp: 0 at t<=0, 1 at t>=1, flat to second order."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def _ramp(v, lo, hi, margin):
    """One factor of the separable window: 1 on [lo, hi], 0 outside
    [lo - margin, hi + margin]."""
    return smoothstep((v - (lo - margin)) / margin) * \
        smoothstep(((hi + margin) - v) / margin)


def family_mu_on_torus(fam: DeltaFamily, grid: TorusGrid):
    """The family's Beltrami coefficient on the torus, smoothly truncated
    to compact support: 1 on the reference window, 0 outside a ring of
    width DEFAULT_TRUNCATION_MARGIN around it, which stays inside the
    half-plane x > -1 and inside the box (1 + 0.4 < L = 4).
    """
    inner, margin = REFERENCE_WINDOW, DEFAULT_TRUNCATION_MARGIN
    ax, ay = grid.axes()
    rx = _ramp(ax, inner.x_min, inner.x_max, margin)
    ry = _ramp(ay, inner.y_min, inner.y_max, margin)
    cols, rows = rx > 0.0, ry > 0.0  # the window's support
    lam = DeltaField(fam).spectral(ax[None, cols], ay[rows, None])
    mu = np.zeros((grid.n, grid.n), dtype=complex)
    mu[np.ix_(rows, cols)] = \
        rx[None, cols] * ry[rows, None] * (lam - 1j) / (lam + 1j)
    return mu


@dataclass
class BeltramiProblem:
    """One Neumann-iteration run: coefficient grid plus sweep budget."""

    mu: np.ndarray
    grid: TorusGrid
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=complex)
        if self.mu.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"mu shape {self.mu.shape} does not match grid {self.grid.n}"
            )
        ax, ay = self.grid.axes()
        _raise_non_finite(ax[None, :], ay[:, None], [("mu", self.mu)])
        if self.max_iter < 0:
            raise ValueError(f"need max_iter >= 0, got {self.max_iter}")

    @property
    def sup_mu(self) -> float:
        return float(np.abs(self.mu).max())


@dataclass
class IterationTrace:
    """Per-iteration sup-norms of successive differences plus the verdict."""

    residuals: list = dc_field(default_factory=list)
    verdict: str = VERDICT_MAX_ITER

    CSV_HEADER = "iter,residual"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        lines += [report_row(k + 1, r) for k, r in enumerate(self.residuals)]
        return "\n".join(lines) + "\n"

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    def summary(self) -> str:
        return f"{self.verdict} after {self.iterations} iterations"

    def observed_rate(self) -> float | None:
        """Observed contraction rate: the geometric mean of r_k/r_{k-1}
        over the last RATE_SWEEPS ratios (all of them in a shorter trace),
        or None when fewer than two sweeps ran.  Read from the stored
        residuals, so the sweeps pay nothing for it."""
        r = self.residuals
        m = min(RATE_SWEEPS, len(r) - 1)
        if m < 1:
            return None
        return (r[-1] / r[-1 - m]) ** (1.0 / m)


def solve_beltrami_neumann(problem: BeltramiProblem):
    """Neumann iteration phi <- mu*(1 + S(phi)) from phi = 0.

    Stops when the sup-norm of successive differences falls below DEFAULT_TOL
    (converged), exceeds DIVERGENCE_FACTOR times the first difference
    (diverged), or the iteration budget runs out.  On any verdict the
    reconstruction w = z + C(phi) and the full trace are returned.

    Every iterate vanishes wherever mu does, so phi is kept only on the
    rows and columns where mu has a nonzero entry, and each sweep
    transforms only what can differ from zero: the forward axis-1 FFT
    runs on those rows, the inverse axis-0 FFT on those columns, and the
    full-length passes between them run on the whole grid.  Each 1-D
    transform is the one fft2/ifft2 would compute (same axis order, same
    input line), and the residual max skips only entries that are zero
    on both sides.  For the family at 256^2 traces, verdicts and w are
    bit-identical to the full-grid iteration's; elsewhere a product's
    last bit can move with where its entry falls in numpy's vector loops.
    """
    grid = problem.grid
    sym, cauchy = _multipliers(grid)
    rows = np.flatnonzero(problem.mu.any(axis=1))
    cols = np.flatnonzero(problem.mu.any(axis=0))
    mu = problem.mu[np.ix_(rows, cols)]
    phi, nxt, diff = np.zeros_like(mu), np.empty_like(mu), np.empty_like(mu)
    size = np.empty(mu.shape)
    padded = np.zeros((rows.size, grid.n), dtype=complex)  # zero off cols
    half = np.empty_like(padded)
    spread = np.zeros((grid.n, grid.n), dtype=complex)     # zero off rows
    f = np.empty_like(spread)
    g = np.empty((grid.n, cols.size), dtype=complex)

    def fft2_of(block):
        """f = fft2 of the grid array that is block on rows x cols, else 0."""
        padded[:, cols] = block
        np.fft.fft(padded, axis=1, out=half)
        spread[rows] = half
        np.fft.fft(spread, axis=0, out=f)

    trace = IterationTrace()
    for _ in range(problem.max_iter):
        fft2_of(phi)
        f *= sym
        np.fft.ifft(f, axis=1, out=f)
        np.take(f, cols, axis=1, out=g)
        np.fft.ifft(g, axis=0, out=g)
        np.take(g, rows, axis=0, out=nxt)
        nxt += 1.0
        nxt *= mu
        np.subtract(nxt, phi, out=diff)
        r = float(np.abs(diff, out=size).max(initial=0.0))
        trace.residuals.append(r)
        phi, nxt = nxt, phi
        if r < DEFAULT_TOL:
            trace.verdict = VERDICT_CONVERGED
            break
        if r > DIVERGENCE_FACTOR * trace.residuals[0]:
            trace.verdict = VERDICT_DIVERGED
            break
    fft2_of(phi)
    f *= cauchy
    np.fft.ifft(f, axis=1, out=f)
    w = np.fft.ifft(f, axis=0, out=f)  # C(phi), then w = z + C(phi)
    ax, ay = grid.axes()
    w.real += ax[None, :]
    w.imag += ay[:, None]
    return w, trace


def classify_contraction(estimate: float) -> str:
    """Label a contraction estimate: contractive, near-divergent (at least
    NEAR_DIVERGENT), or divergent.  On L^2, where S is an isometry, the
    Neumann series contracts by sup|mu| itself."""
    if estimate >= 1.0:
        return "divergent"
    if estimate >= NEAR_DIVERGENT:
        return "near-divergent"
    return "contractive"


def delta_sweep(deltas):
    """Run the Neumann baseline for several deltas on the 256^2 torus with
    the default truncation, tolerance and budget; returns
    {delta: IterationTrace}."""
    grid = TorusGrid(256)
    out = {}
    for d in deltas:
        mu = family_mu_on_torus(DeltaFamily(d), grid)
        _, trace = solve_beltrami_neumann(BeltramiProblem(mu, grid))
        out[d] = trace
    return out
