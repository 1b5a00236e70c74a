"""Points, regions, grids, and planar coefficient fields.

A coefficient field assigns to every point (x, y) of the half-plane
x > -1 the pair (alpha, beta) of a first-order system

    u_x - alpha * v_y = 0
    v_x + u_y - beta * v_y = 0

together with the four first partials of alpha and beta.  The built-in
family

    alpha = (y**2 + delta**2) / (1+x)**2,   beta = -2*y / (1+x)

has closed-form partials; arbitrary user fields (callables or CSV grid
tables) fall back to central finite differences.

All evaluation routines are vectorized: ``x`` and ``y`` may be scalars
or broadcastable numpy arrays, and every returned quantity has the
broadcast shape.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, StencilOutOfDomain

# Coefficients blow up like (1+x)**-3 as x -> -1; keep a hard guard margin
# so 1/(1+x) powers stay finite in double precision.
X_GUARD = 1e-12
X_MIN = -1.0 + X_GUARD

# Default pointwise finite-difference step (balances truncation vs roundoff
# for double precision, scaled away from the origin).
FD_STEP_COEFF = 1e-5


def default_fd_step(x, y):
    """Default central-difference step 1e-5 * max(1, |x|+|y|)."""
    return FD_STEP_COEFF * np.maximum(1.0, np.abs(x) + np.abs(y))


@dataclass(frozen=True)
class Point:
    """A point of the elliptic half-plane x > -1."""

    x: float
    y: float

    def __post_init__(self):
        if not np.isfinite(self.x) or not np.isfinite(self.y):
            raise DomainError(f"point coordinates must be finite, got {self}")
        if self.x < X_MIN:
            raise DomainError(
                f"x = {self.x:.9g} is outside the elliptic half-plane x > -1 "
                f"(guard margin {X_GUARD:g})"
            )


@dataclass(frozen=True)
class DeltaFamily:
    """The strictly positive parameter selecting one member of the family."""

    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0) or not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle inside the half-plane x > -1."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.x_min < X_MIN:
            raise DomainError(
                f"x_min = {self.x_min:.9g} reaches the degenerate line x = -1"
            )
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"empty or inverted region {self}")

    def contains(self, x, y, pad: float = 0.0) -> bool:
        return bool(
            np.all(x >= self.x_min - pad)
            and np.all(x <= self.x_max + pad)
            and np.all(y >= self.y_min - pad)
            and np.all(y <= self.y_max + pad)
        )

    def as_tuple(self):
        return (self.x_min, self.x_max, self.y_min, self.y_max)


# The compact reference window used by the built-in degeneration table.
REFERENCE_WINDOW = Region(-0.5, 1.0, -1.0, 1.0)


@dataclass(frozen=True)
class GridSpec:
    """Node counts per axis; node (i, j) maps affinely onto the region
    corners, endpoints included."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need at least 2 nodes per axis, got {self}")

    @property
    def count(self) -> int:
        return self.nx * self.ny


@dataclass
class CoefficientSample:
    """alpha, beta and their four first partials at one point (scalars)
    or on a batch of points (arrays of a common shape)."""

    alpha: np.ndarray
    beta: np.ndarray
    alpha_x: np.ndarray
    alpha_y: np.ndarray
    beta_x: np.ndarray
    beta_y: np.ndarray


def _axis_nodes(lo: float, hi: float, n: int) -> np.ndarray:
    nodes = np.linspace(lo, hi, n)
    if lo < 0.0 < hi:
        # linspace lands within an ulp of 0 when the count divides the axis
        # exactly; snap that node so aligned grids contain 0 exactly.
        i = int(np.argmin(np.abs(nodes)))
        if nodes[i] != 0.0 and abs(nodes[i]) < 1e-12 * (hi - lo):
            nodes[i] = 0.0
    return nodes


def grid_axes(region: Region, grid: GridSpec):
    """The x and y node coordinates of a grid over a region."""
    xs = _axis_nodes(region.x_min, region.x_max, grid.nx)
    ys = _axis_nodes(region.y_min, region.y_max, grid.ny)
    return xs, ys


def grid_points(region: Region, grid: GridSpec) -> np.ndarray:
    """All grid nodes as an (nx*ny, 2) array, row-major with x varying
    fastest; the first point is (x_min, y_min)."""
    xs, ys = grid_axes(region, grid)
    X, Y = np.meshgrid(xs, ys)
    return np.column_stack([X.ravel(), Y.ravel()])


def _aligned_count(lo: float, hi: float, n: int) -> int:
    """Nearest odd node count >= 2 placing a node exactly at 0 whenever 0
    lies strictly inside [lo, hi]."""
    needs_zero = lo < 0.0 < hi
    if needs_zero:
        flo, fhi = Fraction(lo), Fraction(hi)
        frac = -flo / (fhi - flo)

    def fits(m):
        if m < 2 or m % 2 == 0:
            return False
        return not needs_zero or (frac * (m - 1)).denominator == 1

    if fits(n):
        return n
    for off in range(1, max(64, n // 8)):
        for cand in (n - off, n + off):
            if fits(cand):
                return cand
    return n if n % 2 == 1 else n + 1


def aligned_gridspec(region: Region, nx: int, ny: int) -> GridSpec:
    """Adjust requested node counts to odd counts whose grids contain the
    coordinate axes exactly (used for scans whose extrema sit on them).

    Alignment needs the zero coordinate to sit at a rational fraction of
    the axis with small denominator; when it does not, the count is only
    made odd."""
    return GridSpec(
        _aligned_count(region.x_min, region.x_max, nx),
        _aligned_count(region.y_min, region.y_max, ny),
    )


class CoefficientField:
    """Base class: an evaluable map (x, y) -> (alpha, beta).

    ``closed_form_partials`` tells whether :meth:`sample` returns exact
    partials or central differences.  Fields are immutable after
    construction and safe to share across workers.
    """

    region: Region | None = None  # None means the whole half-plane x > -1
    closed_form_partials: bool = False

    def values(self, x, y):
        """Raw (alpha, beta) samples; raises DomainError (via
        :meth:`check_domain`) for nodes outside the field's domain."""
        raise NotImplementedError

    def sample(self, x, y, h=None) -> CoefficientSample:
        """Coefficients plus first partials (finite differences here)."""
        return numeric_partials(self, x, y, h=h)

    def spectral(self, x, y):
        """Closed-form lambda if the field knows it, else None."""
        return None

    def check_domain(self, x, y, pad: float = 0.0):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or y.size == 0:
            return
        # NaN fails the comparison and propagates through max and min; an
        # infinity fails the comparison or lands in one of the bounds.
        x_hi, y_lo, y_hi = x.max(), y.min(), y.max()
        if not (np.all(x >= X_MIN - pad)
                and np.isfinite([x_hi, y_lo, y_hi]).all()):
            xb, yb = np.broadcast_arrays(x, y)
            finite = np.isfinite(xb) & np.isfinite(yb)
            if not finite.all():
                k = int(np.argmin(finite))
                raise DomainError(
                    f"non-finite coordinate at (x, y) = "
                    f"({float(xb.flat[k])!r}, {float(yb.flat[k])!r})"
                )
            bad = float(np.min(x))
            raise DomainError(f"x = {bad:.9g} outside the half-plane x > -1")
        if self.region is not None and not self.region.contains(
                np.array([x.min(), x_hi]), np.array([y_lo, y_hi]), pad=pad):
            raise DomainError(
                f"point outside the field's region {self.region.as_tuple()}"
            )


class DeltaField(CoefficientField):
    """The built-in family, with alpha shifted by a constant eps >= 0, and
    its closed-form partials and spectral data.

    alpha  = (y**2 + delta**2) / (1+x)**2 + eps   alpha_x = -2*(alpha - eps)/(1+x)
    beta   = -2*y / (1+x)                         alpha_y = beta_x = 2*y/(1+x)**2
                                                  beta_y  = -2/(1+x)
    lambda = a + i*b,  a = y/(1+x),  b = sqrt((delta/(1+x))**2 + eps)

    eps = 0 is the family itself, whose transport obstruction vanishes.
    eps > 0 keeps it uniformly elliptic (the discriminant gains 4*eps) but
    the obstruction no longer vanishes: the rigidity-breaking fixture.
    """

    closed_form_partials = True

    def __init__(self, family: DeltaFamily, eps: float = 0.0):
        if not 0.0 <= eps < np.inf:
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        self.family = family
        self.eps = float(eps)

    @property
    def delta(self) -> float:
        return self.family.delta

    def _y_inv(self, x, y):
        """y and inv = 1/(1+x) as arrays, after the domain check."""
        self.check_domain(x, y)
        return (np.asarray(y, dtype=float),
                1.0 / (1.0 + np.asarray(x, dtype=float)))

    def values(self, x, y):
        y, inv = self._y_inv(x, y)
        p = y * y + self.delta * self.delta
        alpha = (p * inv) * inv
        alpha += self.eps
        beta = y * (-2.0 * inv)
        return alpha, beta

    def sample(self, x, y, h=None) -> CoefficientSample:
        # Evaluation order matters: alpha_x is stored as the literal product
        # alpha*beta_y (before the eps shift, which has zero derivative) and
        # alpha_y/beta_x share one expression, so at eps = 0 the two
        # rigidity combinations alpha_x - alpha*beta_y and
        # beta_x + alpha_y - beta*beta_y cancel exactly in floating point.
        y, inv = self._y_inv(x, y)
        beta_y = -2.0 * inv
        beta = y * beta_y
        s = (y * inv) * inv
        alpha_y = 2.0 * s
        beta_x = alpha_y
        p = y * y + self.delta * self.delta
        alpha = (p * inv) * inv
        alpha_x = alpha * beta_y
        alpha += self.eps
        return CoefficientSample(alpha, beta, alpha_x, alpha_y, beta_x, beta_y)

    def spectral(self, x, y):
        # inv and b depend on x alone and stay rows
        y, inv = self._y_inv(x, y)
        d_inv = self.delta * inv
        # at eps = 0, b = d_inv: what sqrt(d_inv**2) gives unless it underflows
        b = np.sqrt(d_inv * d_inv + self.eps) if self.eps else d_inv
        lam = np.empty(np.broadcast_shapes(inv.shape, y.shape), dtype=complex)
        np.multiply(y + 0.0, inv, out=lam.real)  # a, with y = -0.0 read as 0.0
        lam.imag = b
        return lam[()]


class PerturbedDeltaField(DeltaField):
    """The rigidity-breaking fixture: a DeltaField whose eps must be > 0."""

    def __init__(self, family: DeltaFamily, eps: float):
        if not (eps > 0.0):
            raise ValueError(f"eps must be > 0, got {eps}")
        super().__init__(family, eps)


class CallableField(CoefficientField):
    """User field given by two samplers alpha(x, y), beta(x, y); partials
    come from finite differences."""

    def __init__(self, alpha_fn, beta_fn, region: Region | None = None):
        self.alpha_fn = alpha_fn
        self.beta_fn = beta_fn
        self.region = region

    def values(self, x, y):
        self.check_domain(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        alpha = np.asarray(self.alpha_fn(x, y), dtype=float)
        beta = np.asarray(self.beta_fn(x, y), dtype=float)
        return np.broadcast_to(alpha, np.broadcast(x, y).shape).copy(), \
            np.broadcast_to(beta, np.broadcast(x, y).shape).copy()


class GridTableField(CoefficientField):
    """Field sampled on a rectangular lattice, evaluated by bilinear
    interpolation; partials always come from finite differences."""

    def __init__(self, xs, ys, alpha, beta):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size < 2 or ys.size < 2:
            raise ValueError("need at least a 2x2 lattice")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("lattice coordinates must be strictly increasing")
        if alpha.shape != (ys.size, xs.size) or beta.shape != alpha.shape:
            raise ValueError(
                f"tables must have shape (ny, nx) = {(ys.size, xs.size)}"
            )
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):
            raise ValueError("lattice tables contain non-finite entries")
        self.xs = xs
        self.ys = ys
        self.alpha_tab = alpha
        self.beta_tab = beta
        self.region = Region(xs[0], xs[-1], ys[0], ys[-1])

    @classmethod
    def from_csv(cls, path) -> "GridTableField":
        """Load a field from CSV with header x,y,alpha,beta; the rows must
        fill a complete rectangular lattice (any order)."""
        xs, ys, (alpha, beta) = read_lattice_csv(path, ["x", "y", "alpha", "beta"])
        return cls(xs, ys, alpha, beta)

    def values(self, x, y):
        self.check_domain(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ix = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, self.xs.size - 2)
        iy = np.clip(np.searchsorted(self.ys, y, side="right") - 1, 0, self.ys.size - 2)
        tx = (x - self.xs[ix]) / (self.xs[ix + 1] - self.xs[ix])
        ty = (y - self.ys[iy]) / (self.ys[iy + 1] - self.ys[iy])

        def interp(tab):
            f00 = tab[iy, ix]
            f01 = tab[iy, ix + 1]
            f10 = tab[iy + 1, ix]
            f11 = tab[iy + 1, ix + 1]
            return ((1 - ty) * ((1 - tx) * f00 + tx * f01)
                    + ty * ((1 - tx) * f10 + tx * f11))

        return interp(self.alpha_tab), interp(self.beta_tab)


def lattice_from_columns(x, y, *columns):
    """Reassemble flat (x, y, value...) columns into a rectangular lattice.

    Returns (xs, ys, [value grids of shape (ny, nx)]).  Raises ValueError
    when the points do not form a complete lattice.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs = np.unique(x)
    ys = np.unique(y)
    if xs.size * ys.size != x.size:
        raise ValueError(
            f"{x.size} points do not fill a {xs.size} x {ys.size} lattice"
        )
    order = np.lexsort((x, y))  # y-major, x varying fastest
    xo = x[order].reshape(ys.size, xs.size)
    yo = y[order].reshape(ys.size, xs.size)
    if not (np.all(xo == xs[None, :]) and np.all(yo == ys[:, None])):
        raise ValueError("points do not form a rectangular lattice")
    grids = [np.asarray(c, dtype=float)[order].reshape(ys.size, xs.size)
             for c in columns]
    return xs, ys, grids


# ---------------------------------------------------------------------------
# The lattice CSV format shared by coefficient tables and solution fields:
# a header line, then one row x,y,value... per node in row-major order
# (x varying fastest), every number in its shortest round-trip repr form,
# lines ended by \r\n as csv.writer does.  Finite data survives a
# write/read cycle bit-exactly.

def write_lattice_csv(path, header, xs, ys, grids):
    """Write value grids of shape (ny, nx) over the axes xs, ys."""
    data = np.stack([np.asarray(g, dtype=float) for g in grids], axis=-1)
    # One template per grid row: the x cells are formatted once, the y cell
    # once per row ("%s"), and only the values once per node ("%r").
    row = "".join(f"{x!r},%s" + ",%r" * len(grids) + "\r\n"
                  for x in np.asarray(xs, dtype=float).tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for y, values in zip(np.asarray(ys, dtype=float).tolist(),
                             data.reshape(data.shape[0], -1).tolist()):
            fh.write(row.replace("%s", repr(y)) % tuple(values))


def read_lattice_csv(path, header):
    """Read a file written by write_lattice_csv (rows in any order, LF or
    CRLF line ends, fields optionally double-quoted).

    Returns (xs, ys, [value grids of shape (ny, nx)]).  Raises ValueError
    naming the file on a wrong header, a missing or ragged body, a
    non-finite entry (with its x, y) or an incomplete lattice.
    """
    with open(path) as fh:
        try:
            return _parse_lattice_csv(fh, header)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _parse_lattice_csv(fh, header):
    line = fh.readline()
    got = next(csv.reader([line]), None) if line else None
    if got is None or [c.strip() for c in got] != header:
        raise ValueError(f"expected header {','.join(header)}, got {got}")
    with warnings.catch_warnings():
        # a header-only file is reported below, not warned about
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"',
                          comments=None)
    if data.shape[0] == 0:
        raise ValueError("no data rows")
    if data.shape[1] != len(header):
        raise ValueError(f"expected {len(header)} columns, got {data.shape[1]}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        x, y = data[np.argmin(finite), :2].tolist()
        raise ValueError(f"non-finite entry at (x, y) = ({x!r}, {y!r})")
    return lattice_from_columns(*data.T)


def central_stencil(fn, x, y, h=None):
    """``fn`` at the centre (x, y) and at the four feet (east, west, north,
    south) of the central-difference stencil of half-width h (default
    default_fd_step); returns (2*h, centre value, [foot values]).

    The centre is evaluated first, so a bad centre raises the caller's
    DomainError; a DomainError at a foot becomes StencilOutOfDomain.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if h is None:
        h = default_fd_step(x, y)
    h = np.broadcast_to(np.asarray(h, dtype=float), np.broadcast(x, y).shape)
    if np.any(h <= 0.0):
        raise ValueError("finite-difference step must be > 0")
    centre = fn(x, y)
    try:
        feet = [fn(x + h, y), fn(x - h, y), fn(x, y + h), fn(x, y - h)]
    except DomainError as exc:
        raise StencilOutOfDomain(
            f"stencil of half-width h leaves the field's region: {exc}"
        ) from exc
    return 2.0 * h, centre, feet


def numeric_partials(field: CoefficientField, x, y=None, h=None) -> CoefficientSample:
    """Central-difference partials of a coefficient field (O(h**2)); the
    alpha, beta entries are exact samples at the center point.

    Accepts a Point or separate x, y scalars/arrays.
    """
    if isinstance(x, Point):
        x, y = x.x, x.y
    two_h, (alpha, beta), feet = central_stencil(field.values, x, y, h)
    (a_e, b_e), (a_w, b_w), (a_n, b_n), (a_s, b_s) = feet
    return CoefficientSample(
        alpha=alpha,
        beta=beta,
        alpha_x=(a_e - a_w) / two_h,
        alpha_y=(a_n - a_s) / two_h,
        beta_x=(b_e - b_w) / two_h,
        beta_y=(b_n - b_s) / two_h,
    )


def write_field_csv(field: CoefficientField, region: Region, grid: GridSpec, path):
    """Sample a field on a grid and write the x,y,alpha,beta table."""
    xs, ys = grid_axes(region, grid)
    alpha, beta = (np.broadcast_to(v, (ys.size, xs.size))
                   for v in field.values(xs[None, :], ys[:, None]))
    write_lattice_csv(path, ["x", "y", "alpha", "beta"], xs, ys, [alpha, beta])
