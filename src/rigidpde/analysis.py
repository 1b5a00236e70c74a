"""Pointwise structure analysis and region scans.

From a coefficient sample this module derives the ellipticity
discriminant, the upper-half-plane spectral parameter, the associated
Beltrami coefficient, the condition number of the equivalent
second-order problem, and the transport obstruction pair (A, B) whose
vanishing makes the system exactly solvable by characteristics.

A region scan works through its grid by row blocks on every CPU
(``fields.map_row_blocks``), under the engine's floating-point policy:
each block's extrema are checked, and the first NaN or infinite quantity
is named with its node.  A block's temporaries are plain numpy arrays;
the engine's allocation policy keeps them on the heap once freed, so the
next block reuses their memory.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateStructure, InvalidBranch, NotElliptic
from .fields import (
    REFERENCE_WINDOW,
    CoefficientField,
    CoefficientSample,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    _node,
    _raise_non_finite,
    aligned_gridspec,
    central_stencil,
    grid_axes,
    map_row_blocks,
    report_row,
)

# Rigidity verdict thresholds: closed-form partials leave only roundoff in
# (A, B); finite differences leave O(h**2) truncation noise.
RIGIDITY_TOL_CLOSED_FORM = 1e-10
RIGIDITY_TOL_FINITE_DIFF = 1e-4


def discriminant(cs: CoefficientSample):
    """Ellipticity discriminant 4*alpha - beta**2 (> 0 on elliptic points).

    Raises NotElliptic carrying the offending value when any point has a
    non-positive discriminant, and NonFiniteCoefficient when alpha, beta
    or lambda is NaN or infinite.
    """
    return _finite_lambda(cs.alpha, cs.beta)[0]


def spectral_parameter(cs: CoefficientSample):
    """Root lambda = (-beta + i*sqrt(4*alpha - beta**2))/2 of
    X**2 + beta*X + alpha = 0 on the branch Im(lambda) > 0."""
    return _finite_lambda(cs.alpha, cs.beta)[1]


def _finite_lambda(alpha, beta, x=None, y=None):
    """_lambda_from, also raising NonFiniteCoefficient naming lambda (at
    the first bad node) when 4*alpha or beta**2 overflows."""
    with np.errstate(over="ignore"):  # an overflow raises below
        disc, lam = _lambda_from(alpha, beta, x, y)
    if not disc.max() < np.inf:
        _raise_non_finite(x, y, [("lambda", lam)])
    return disc, lam


def _lambda_from(alpha, beta, x=None, y=None, named=()):
    """(disc, lambda) = (4*alpha - beta**2, (-beta + i*sqrt(disc))/2) on
    the broadcast shape of alpha, beta, x and y.

    A disc <= 0 raises NonFiniteCoefficient at the first node (x, y) where
    a quantity of ``named`` (default alpha, beta) is NaN or infinite, else
    NotElliptic at the node of the smallest disc; x, y None: no node.
    """
    shape = np.broadcast_shapes(np.shape(alpha), np.shape(beta), np.shape(x),
                                np.shape(y))
    disc = np.empty(shape)
    lam = np.empty(shape, dtype=complex)
    np.multiply(alpha, 4.0, out=lam.real)
    np.multiply(beta, beta, out=disc)
    np.subtract(lam.real, disc, out=disc)  # 4*alpha - beta**2
    if not disc.min() > 0.0:               # NaN fails too
        _raise_non_finite(x, y, named or [("alpha", alpha), ("beta", beta)])
        k = int(np.argmin(disc))
        raise NotElliptic(disc.flat[k], *_node(x, y, k, disc.shape))
    np.subtract(0.0, beta, out=lam.real)
    lam.real *= 0.5
    np.sqrt(disc, out=lam.imag)
    lam.imag *= 0.5
    return disc[()], lam[()]


def beltrami_coefficient(lam):
    """Beltrami coefficient mu = (lambda - i)/(lambda + i); |mu| < 1 exactly
    when Im(lambda) > 0."""
    lam = np.asarray(lam, dtype=complex)
    _raise_non_finite(None, None, [("lambda", lam)])  # NaN passes the next test
    if np.any(lam.imag <= 0.0):
        raise InvalidBranch(
            f"Im(lambda) must be > 0, got minimum {np.min(lam.imag):.6g}"
        )
    return (lam - 1j) / (lam + 1j)


def condition_number(sup_mu: float) -> float:
    """Condition number ((1 + sup|mu|)/(1 - sup|mu|))**2 of the equivalent
    second-order problem."""
    sup_mu = float(sup_mu)
    if not 0.0 <= sup_mu < 1.0:
        raise DegenerateStructure(
            f"need 0 <= sup|mu| < 1, got {sup_mu:.6g}"
        )
    return ((1.0 + sup_mu) / (1.0 - sup_mu)) ** 2


def obstruction(cs: CoefficientSample):
    """Transport obstruction pair (A, B) from alpha, beta and first partials.

    A = [beta*(alpha_x - alpha*beta_y) - 2*alpha*(beta_x + alpha_y - beta*beta_y)] / disc
    B = [2*(alpha_x - alpha*beta_y) - beta*(beta_x + alpha_y - beta*beta_y)] / disc

    The two bracketed combinations must be formed exactly as written:
    built-in fields arrange their partials so both cancel exactly in
    floating point, keeping (A, B) at zero however small the discriminant.
    """
    return _obstruction_with_disc(cs, discriminant(cs))


def _obstruction_with_disc(cs: CoefficientSample, disc):
    """(A, B) from a sample and its discriminant, on their broadcast shape.
    Each step is one in-place operation in the order of the formula."""
    alpha, beta = cs.alpha, cs.beta
    shape = np.broadcast_shapes(*(np.shape(v) for v in (
        alpha, beta, cs.alpha_x, cs.alpha_y, cs.beta_x, cs.beta_y, disc)))
    t1, t2, tmp, a = (np.empty(shape) for _ in range(4))
    np.multiply(alpha, cs.beta_y, out=t1)
    np.subtract(cs.alpha_x, t1, out=t1)  # alpha_x - alpha*beta_y
    np.multiply(beta, cs.beta_y, out=tmp)
    np.add(cs.beta_x, cs.alpha_y, out=t2)
    t2 -= tmp                            # beta_x + alpha_y - beta*beta_y
    np.multiply(alpha, 2.0, out=tmp)
    tmp *= t2
    np.multiply(beta, t1, out=a)
    a -= tmp
    a /= disc                            # (beta*t1 - 2*alpha*t2) / disc
    np.multiply(beta, t2, out=tmp)
    t1 *= 2.0
    t1 -= tmp
    t1 /= disc                           # (2*t1 - beta*t2) / disc
    return a[()], t1[()]


@dataclass
class StructureSample:
    """Derived structure quantities at one point (or a batch)."""

    disc: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    abs_mu: np.ndarray
    obstr_A: np.ndarray
    obstr_B: np.ndarray


def structure_sample(cs: CoefficientSample) -> StructureSample:
    """Bundle discriminant, spectral parameter, Beltrami coefficient and
    obstruction computed from one coefficient sample."""
    disc, lam = _finite_lambda(cs.alpha, cs.beta)
    mu = beltrami_coefficient(lam)
    a, b = _obstruction_with_disc(cs, disc)
    return StructureSample(disc, lam, mu, np.abs(mu), a, b)


def spectral_lambda(field: CoefficientField, x, y):
    """lambda at (x, y): the field's closed form when it has one, otherwise
    derived from its raw (alpha, beta) samples.  Raises NonFiniteCoefficient
    naming alpha, beta or lambda and the first bad node when one is NaN or
    infinite, and NotElliptic with the node when the discriminant is <= 0.
    """
    lam = field.spectral(x, y)
    if lam is None:
        lam = _finite_lambda(*field.values(x, y), x, y)[1]
    return lam


def burgers_residual(field: CoefficientField, p, h=None):
    """Residual G = lambda_x + lambda*lambda_y of the conservative
    transport law for the spectral parameter; zero exactly when the
    obstruction vanishes.

    Fields with closed-form partials give G = A + lambda*B (differentiate
    lambda**2 + beta*lambda + alpha = 0), formed as (a + lambda*b)/s with
    s = 2*Im(lambda) and (a, b) = s*(A, B), exact where disc = s**2
    underflows; other fields, central differences of lambda at step h.
    ``p`` is an (x, y) pair of scalars/arrays.  A centre outside the
    field's domain raises DomainError; a stencil foot outside it,
    StencilOutOfDomain.
    """
    x, y = p
    if field.closed_form_partials:
        lam = spectral_lambda(field, x, y)
        s = 2.0 * lam.imag
        a, b = _obstruction_with_disc(field.sample(x, y), s)
        return (a + lam * b) / s
    two_h, lam, (lam_e, lam_w, lam_n, lam_s) = central_stencil(
        lambda x, y: spectral_lambda(field, x, y), x, y, h)
    return (lam_e - lam_w) / two_h + lam * (lam_n - lam_s) / two_h


@dataclass
class RegionScanReport:
    """Extremes of |mu|, the condition number, the largest obstruction
    magnitudes, and the rigidity verdict over one rectangular scan."""

    delta: float | None  # None for a field outside the family
    region: Region
    grid: GridSpec
    inf_mu: float
    sup_mu: float
    kappa: float
    max_abs_A: float
    max_abs_B: float
    rigid: bool
    rigidity_tol: float
    partials: str  # "closed-form" or "finite-difference"

    def to_dict(self) -> dict:
        """Every field, in order, with region and grid as lists."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(region=list(self.region.as_tuple()),
                 grid=[self.grid.nx, self.grid.ny])
        return d

    CSV_HEADER = "delta,inf_mu,sup_mu,kappa"

    def to_csv_row(self) -> str:
        return report_row(self.delta, self.inf_mu, self.sup_mu, self.kappa)


def scan_region(
    field: CoefficientField,
    region: Region,
    grid: GridSpec,
) -> RegionScanReport:
    """Grid scan of a coefficient field: inf/sup of |mu|, the condition
    number from the grid supremum, max |A| and |B|, and the rigidity
    verdict max(|A|,|B|) < rigidity_tol (set by the kind of partials).

    Raises NotElliptic with the node location if any node fails the
    discriminant test, InvalidBranch if the field's closed-form lambda
    leaves the upper half-plane, and NonFiniteCoefficient naming the
    quantity and the node when alpha, beta, a partial, |mu|, A or B is
    NaN or infinite there.

    The scan samples the field on the broadcast axes ``xs[None, :]`` and
    ``ys[a:b, None]`` of one chunk of grid rows at a time.  A chunk holds
    as many rows as fit in fields.SCAN_CHUNK_NODES nodes (at least one),
    so its temporaries stay cache-sized at any grid width; the engine's
    allocation policy keeps them on the heap, where the next chunk reuses
    them.  fields.map_row_blocks shares the chunks among the CPUs, with
    numpy's warnings off: a chunk whose extrema are not all finite names
    its first bad node instead.  The min/max reductions are exact and
    order-independent, so the report depends on neither the chunk size
    nor the thread count.
    """
    rigidity_tol = (RIGIDITY_TOL_CLOSED_FORM if field.closed_form_partials
                    else RIGIDITY_TOL_FINITE_DIFF)
    xs, ys = grid_axes(region, grid)
    x = xs[None, :]

    def chunk(s):
        y = ys[s, None]
        cs = field.sample(x, y)
        lam = field.spectral(x, y)
        named = list(vars(cs).items())  # alpha, beta, then the four partials
        if lam is not None:
            b = lam.imag
            if not b.min() > 0.0:
                _raise_non_finite(x, y, named + [("lambda", lam)])
                b = np.broadcast_to(b, np.broadcast_shapes(x.shape, y.shape))
                k = int(np.argmin(b))
                px, py = _node(x, y, k, b.shape)
                raise InvalidBranch(
                    f"field's spectral data has Im(lambda) = {b.flat[k]:.6g} "
                    f"<= 0 at (x={px:.9g}, y={py:.9g})"
                )
            disc = b + b
            disc *= disc                   # (b + b)**2
        else:
            disc, lam = _lambda_from(cs.alpha, cs.beta, x, y, named)
        abs_mu = np.abs((lam - 1j) / (lam + 1j))
        a, b = _obstruction_with_disc(cs, disc)
        # maxima of -|mu|, |mu|, A, -A, B, -B; a NaN among them raises
        ext = np.array([-abs_mu.min(), abs_mu.max(), a.max(), -a.min(),
                        b.max(), -b.min()])
        if not np.isfinite(ext).all():
            _raise_non_finite(x, y, named + [("lambda", lam), ("|mu|", abs_mu),
                                             ("A", a), ("B", b)])
        return ext

    ext = np.max(map_row_blocks(xs.size, ys.size, chunk), axis=0)
    sup_mu = float(ext[1])
    max_a = abs(float(max(ext[2], ext[3])))
    max_b = abs(float(max(ext[4], ext[5])))
    return RegionScanReport(
        region=region,
        grid=grid,
        inf_mu=-float(ext[0]),
        sup_mu=sup_mu,
        kappa=condition_number(sup_mu),
        max_abs_A=max_a,
        max_abs_B=max_b,
        rigid=max(max_a, max_b) < rigidity_tol,
        rigidity_tol=rigidity_tol,
        partials=("closed-form" if field.closed_form_partials
                  else "finite-difference"),
        delta=getattr(field, "delta", None),
    )


# The delta values of the built-in degeneration table.
TABLE_DELTAS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)


def degeneration_table(
    nominal_nx: int = 2001,
    nominal_ny: int = 2001,
) -> list[RegionScanReport]:
    """Scan the built-in family over the reference window for each delta in
    TABLE_DELTAS on an axis-aligned grid near the nominal resolution."""
    grid = aligned_gridspec(REFERENCE_WINDOW, nominal_nx, nominal_ny)
    return [
        scan_region(DeltaField(DeltaFamily(d)), REFERENCE_WINDOW, grid)
        for d in TABLE_DELTAS
    ]
