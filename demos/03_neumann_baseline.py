#!/usr/bin/env python3
"""The elliptic baseline and how it degrades.

The standard route to w_zbar = mu*w_z inverts I - mu*S by Neumann
iteration, with S the singular integral whose Fourier symbol is
conj(xi)/xi.  Here S acts on a periodic grid and mu is the family's
Beltrami coefficient truncated to compact support.  As delta shrinks,
sup|mu| walks to 1 and the iteration count blows up until a fixed
budget is exhausted -- while the characteristic solve from demo 02 is
oblivious to delta.
"""

import numpy as np

from rigidpde import (
    BeltramiProblem,
    DeltaFamily,
    TorusGrid,
    beurling_transform,
    delta_sweep,
    family_mu_on_torus,
    solve_beltrami_neumann,
)
from rigidpde.beltrami import classify_contraction

grid = TorusGrid(256)  # the cell [-4, 4)^2

print("=" * 72)
print("1. Sanity checks of the discrete singular integral")
print("=" * 72)

rng = np.random.default_rng(1)
f = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
f -= f.mean()
sf = beurling_transform(f, grid)
print(f"isometry: ||Sf||/||f|| - 1 = {np.linalg.norm(sf)/np.linalg.norm(f)-1:.2e}")

X, Y = np.meshgrid(*grid.axes())
g = np.exp(-(X**2 + Y**2) / 1.28)
h = grid.spacing
ddx = lambda v: (np.roll(v, -1, 1) - np.roll(v, 1, 1)) / (2 * h)
ddy = lambda v: (np.roll(v, -1, 0) - np.roll(v, 1, 0)) / (2 * h)
dbar = 0.5 * (ddx(g) + 1j * ddy(g))
dz = 0.5 * (ddx(g) - 1j * ddy(g))
print(f"S maps dbar to dz: max error {np.abs(beurling_transform(dbar, grid) - dz).max():.2e} "
      f"(fd step {h:g})")

print()
print("=" * 72)
print("2. Easy regimes converge fast")
print("=" * 72)

w, trace = solve_beltrami_neumann(BeltramiProblem(np.zeros((256, 256)), grid))
print(f"mu = 0:      {trace.summary()}; reconstruction w = z exactly: "
      f"{bool(np.array_equal(w, X + 1j*Y))}")
w, trace = solve_beltrami_neumann(BeltramiProblem(np.full((256, 256), 0.4), grid))
print(f"mu = 0.4:    {trace.summary()} (the constant is a fixed point)")

print()
print("=" * 72)
print("3. The delta sweep: fixed grid, truncation, tolerance, budget")
print("=" * 72)

deltas = (1.0, 0.3, 0.1, 0.03, 0.01)
traces = delta_sweep(deltas)  # on TorusGrid(256), the grid above
print(f"{'delta':>6} {'sup|mu|':>9} {'estimate':>10} {'verdict':>18} {'iters':>6}")
for d in deltas:
    mu = family_mu_on_torus(DeltaFamily(d), grid)
    sup = float(np.abs(mu).max())  # S is an L2 isometry: the estimate is sup|mu|
    t = traces[d]
    print(f"{d:>6g} {sup:>9.4f} {sup:>7.4f} ({classify_contraction(sup)[:4]})"
          f" {t.verdict:>14} {t.iterations:>6}")

print()
print("Iteration counts scale like 1/(1 - sup|mu|) ~ 1/delta; at delta =")
print("0.01 the 300-sweep budget is gone.  No tuning rescues the method")
print("class: only the transport structure (which mu cannot see) does.")
