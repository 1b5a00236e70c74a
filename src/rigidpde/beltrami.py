"""Baseline elliptic method: Beurling transform and Neumann iteration.

The classical route to w_zbar = mu * w_z inverts I - mu*S by the fixed
point iteration phi <- mu*(1 + S(phi)), where S is the planar singular
integral with Fourier symbol conj(xi)/xi.  Here S is realized as a
periodic Fourier multiplier on a square torus; the coefficient mu is the
family's Beltrami coefficient truncated to compact support by a C^2
bump, so the degradation of the iteration as delta shrinks can be
measured directly.  Non-convergence is data, not an error: the solver
always returns an instrumented trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError
from .fields import REFERENCE_WINDOW, DeltaFamily, DeltaField, Region

# Iteration defaults.  The budget is deliberately modest: with the default
# grid and truncation the iteration still converges near delta = 0.01
# (at roughly 400 sweeps), so a fixed budget of a few hundred is what
# exposes the blow-up of the iteration count while keeping sweeps cheap.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 300
DEFAULT_DIVERGENCE_FACTOR = 1e3
DEFAULT_TRUNCATION_MARGIN = 0.4

VERDICT_CONVERGED = "converged"
VERDICT_DIVERGED = "diverged"
VERDICT_MAX_ITER = "max-iter-reached"


@dataclass(frozen=True)
class TorusGrid:
    """Uniform n x n grid on the square cell [-L, L)^2 with periodic
    topology; n must be a power of two >= 16."""

    n: int
    L: float = 4.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if not (self.L > 0):
            raise ValueError(f"L must be > 0, got {self.L}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.L / self.n

    def axes(self):
        a = -self.L + self.spacing * np.arange(self.n)
        return a, a

    def meshgrid(self):
        ax, ay = self.axes()
        return np.meshgrid(ax, ay)


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


def truncation_bump(X, Y, inner: Region, margin: float):
    """Separable C^2 window: 1 on the inner rectangle, 0 outside a margin
    ring of the given width."""
    return (_ramp(X, inner.x_min, inner.x_max, margin)
            * _ramp(Y, inner.y_min, inner.y_max, margin))


def family_mu_on_torus(
    fam: DeltaFamily,
    grid: TorusGrid,
    inner: Region = REFERENCE_WINDOW,
    margin: float = DEFAULT_TRUNCATION_MARGIN,
):
    """The family's Beltrami coefficient on the torus, smoothly truncated
    to compact support (1 on the inner window, 0 outside the margin ring).

    The support must stay inside the half-plane x > -1 and inside the box.
    """
    if not (margin > 0):
        raise ValueError(f"margin must be > 0, got {margin}")
    if inner.x_min - margin <= -1.0:
        raise DomainError(
            f"truncation ring reaches x = {inner.x_min - margin:.3g} <= -1"
        )
    if (max(abs(inner.x_min), abs(inner.x_max)) + margin >= grid.L
            or max(abs(inner.y_min), abs(inner.y_max)) + margin >= grid.L):
        raise ValueError("truncated support does not fit inside the torus box")
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
    """One Neumann-iteration run: coefficient grid plus stopping policy."""

    mu: np.ndarray
    grid: TorusGrid
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    divergence_factor: float = DEFAULT_DIVERGENCE_FACTOR

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=complex)
        if self.mu.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"mu shape {self.mu.shape} does not match grid {self.grid.n}"
            )
        finite = np.isfinite(self.mu)
        if not finite.all():
            i, j = np.unravel_index(np.argmin(finite), finite.shape)
            raise ValueError(
                f"mu is not finite at node (i, j) = ({i}, {j}): {self.mu[i, j]}"
            )
        if not (self.tol > 0 and self.divergence_factor > 1 and self.max_iter >= 0):
            raise ValueError("need tol > 0, divergence_factor > 1, max_iter >= 0")

    @property
    def sup_mu(self) -> float:
        return float(np.abs(self.mu).max())


@dataclass
class IterationTrace:
    """Per-iteration sup-norms of successive differences plus the verdict."""

    residuals: list = dc_field(default_factory=list)
    verdict: str = VERDICT_MAX_ITER
    iterations: int = 0

    CSV_HEADER = "iter,residual"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        lines += [f"{k + 1},{r:.6g}" for k, r in enumerate(self.residuals)]
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return f"{self.verdict} after {self.iterations} iterations"


def solve_beltrami_neumann(problem: BeltramiProblem):
    """Neumann iteration phi <- mu*(1 + S(phi)) from phi = 0.

    Stops when the sup-norm of successive differences falls below tol
    (converged), exceeds divergence_factor times the first difference
    (diverged), or the iteration budget runs out.  On any verdict the
    reconstruction w = z + C(phi) and the full trace are returned.
    """
    grid = problem.grid
    sym, cauchy = _multipliers(grid)
    phi = np.zeros((grid.n, grid.n), dtype=complex)
    trace = IterationTrace()
    first = None
    for k in range(1, problem.max_iter + 1):
        nxt = problem.mu * (1.0 + np.fft.ifft2(sym * np.fft.fft2(phi)))
        r = float(np.abs(nxt - phi).max())
        trace.residuals.append(r)
        phi = nxt
        trace.iterations = k
        if first is None:
            first = r
        if r < problem.tol:
            trace.verdict = VERDICT_CONVERGED
            break
        if r > problem.divergence_factor * first:
            trace.verdict = VERDICT_DIVERGED
            break
    else:
        trace.verdict = VERDICT_MAX_ITER
        trace.iterations = problem.max_iter
    ax, ay = grid.axes()
    w = (ax[None, :] + 1j * ay[:, None]) + np.fft.ifft2(cauchy * np.fft.fft2(phi))
    return w, trace


def contraction_estimate(sup_mu: float, p: float = 2.0) -> float:
    """Contraction factor estimate sup|mu| * (p - 1) of the Neumann series
    on L^p, using the operator norm p - 1 of S for p >= 2."""
    if p < 2.0:
        raise ValueError(f"p must be >= 2 (duality case out of scope), got {p}")
    if sup_mu < 0.0:
        raise ValueError(f"sup|mu| must be >= 0, got {sup_mu}")
    return float(sup_mu) * (p - 1.0)


def classify_contraction(estimate: float, near: float = 0.9) -> str:
    """Label a contraction estimate: contractive, near-divergent (within
    10% of 1 by default), or divergent."""
    if estimate >= 1.0:
        return "divergent"
    if estimate >= near:
        return "near-divergent"
    return "contractive"


def delta_sweep(
    deltas,
    grid: TorusGrid | None = None,
    inner: Region = REFERENCE_WINDOW,
    margin: float = DEFAULT_TRUNCATION_MARGIN,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """Run the Neumann baseline for several deltas with a fixed grid,
    truncation and tolerance; returns {delta: IterationTrace}."""
    grid = grid or TorusGrid(256)
    out = {}
    for d in deltas:
        mu = family_mu_on_torus(DeltaFamily(d), grid, inner=inner, margin=margin)
        _, trace = solve_beltrami_neumann(
            BeltramiProblem(mu, grid, tol=tol, max_iter=max_iter)
        )
        out[d] = trace
    return out
