#!/usr/bin/env python3
"""Pointwise structure of the delta family and its degeneration.

Walks through the quantities the analysis module derives from the
coefficients alpha = (y^2 + delta^2)/(1+x)^2, beta = -2y/(1+x):
discriminant, spectral parameter, Beltrami coefficient, condition
number, and the transport obstruction (A, B).  Ends with the
degeneration table over the reference window K = [-1/2,1] x [-1,1]
and a rigidity triage of a deliberately broken field.
"""

from rigidpde import (
    REFERENCE_WINDOW,
    DeltaFamily,
    DeltaField,
    aligned_gridspec,
    burgers_residual,
    degeneration_table,
    scan_region,
    structure_sample,
)

print("=" * 72)
print("1. Structure at single points")
print("=" * 72)

for delta, (x, y) in [(1.0, (0.0, 0.0)), (1.0, (0.0, 1.0)), (0.1, (1.0, 1.0))]:
    fam = DeltaFamily(delta)
    cs = DeltaField(fam).sample(x, y)
    ss = structure_sample(cs)
    print(f"delta={delta:<4g} (x,y)=({x:g},{y:g}):  alpha={cs.alpha:.4g} "
          f"beta={cs.beta:.4g}  disc={ss.disc:.4g}  lambda={ss.lam:.4g}  "
          f"|mu|={ss.abs_mu:.4f}  (A,B)=({ss.obstr_A:.1e},{ss.obstr_B:.1e})")

print()
print("The obstruction pair vanishes identically for every delta: the")
print("family is rigid, so the apparent ellipticity degeneration below is")
print("invisible to the characteristic solver.")

print()
print("=" * 72)
print("2. Degeneration over the compact window K = [-1/2,1] x [-1,1]")
print("=" * 72)

print(f"{'delta':>8} {'inf|mu|':>10} {'sup|mu|':>10} {'kappa':>12} {'rigid':>6}")
for report in degeneration_table(401, 401):
    print(f"{report.delta:>8g} {report.inf_mu:>10.4f} {report.sup_mu:>10.4f} "
          f"{report.kappa:>12.4g} {str(report.rigid):>6}")

print()
print("kappa grows like delta**-2 while sup|mu| walks to 1: every fixed")
print("elliptic solver is defeated by taking delta small enough.")

print()
print("=" * 72)
print("3. Rigidity triage of a non-rigid field")
print("=" * 72)

fam = DeltaFamily(0.5)
broken = DeltaField(fam, eps=0.1)   # alpha shifted by +0.1
grid = aligned_gridspec(REFERENCE_WINDOW, 201, 201)

for name, field in [("delta family", DeltaField(fam)), ("perturbed", broken)]:
    rep = scan_region(field, REFERENCE_WINDOW, grid)
    r = burgers_residual(field, (0.25, 0.5))
    print(f"{name:>12}: rigid={str(rep.rigid):<5}  "
          f"max(|A|,|B|)={max(rep.max_abs_A, rep.max_abs_B):.3e}  "
          f"|transport-law residual|={abs(r):.3e}")

print()
print("Both detectors (the algebraic pair (A,B) and the residual of the")
print("conservative transport law for lambda) agree: a cheap pointwise")
print("check, worth running before reaching for an elliptic solver.")
