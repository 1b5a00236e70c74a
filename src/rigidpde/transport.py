"""Exact solver for the rigid regime.

Because the spectral parameter lambda = (y + i*delta)/(1+x) obeys the
conservative transport law lambda_x + lambda*lambda_y = 0, the complex
combination w = u + v*lambda turns the real first-order system into the
scalar transport equation w_x + lambda*w_y = 0, which is solved exactly
by w = f0(zeta) with zeta the characteristic coordinate and f0 the
initial profile on the line x = 0.  The identification is invertible
(u = Re(w) - (a/b)*Im(w), v = Im(w)/b with lambda = a + i*b), so both
directions and their residual checks live here.  Analytic partials
travel one way only: the solution's wx, wy become the partials of (u, v)
for the analytic system residual, while (u, v) -> w carries values.
Both fields give partials as a function of a slice of grid rows, which
the analytic residuals call, and shape-check, inside their blocks.  No
kernel stores a partial grid: the solver forms w alone and hands its
field a function deriving one row block of (wx, wy) from f0 and w, and
``to_real_pair`` hands the pair one deriving the rows of (ux, uy, vx, vy)
from Im(w) and those rows of (wx, wy).

The solve, both identifications, both residuals and the solution fields'
finiteness check work through their grids by cache-sized row blocks, on
every CPU (``fields.map_row_blocks``), under its floating-point policy:
numpy does not warn inside a block, and the first non-finite node is named
by the solution field that holds it (NonFiniteCoefficient) or propagates
as NaN to a residual maximum.  No output depends on the block size or on
the thread that fills a block.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .analysis import spectral_lambda
from .errors import StencilOutOfDomain
from .fields import (
    CoefficientField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    _raise_non_finite,
    grid_axes,
    map_row_blocks,
    read_lattice_csv,
    write_lattice_csv,
)


def characteristic_coordinate(fam: DeltaFamily, p):
    """Characteristic coordinate zeta = (y - i*delta*x)/(1+x).

    Constant along characteristics, equal to y on the initial line x = 0,
    and related to the spectral parameter by lambda = zeta + i*delta.
    ``p`` is an (x, y) pair of scalars/arrays.
    """
    x, y = p
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(y, dtype=float) - 1j * fam.delta * x
    zeta *= 1.0 / (1.0 + x)
    return zeta


# ---------------------------------------------------------------------------
# Initial data catalog (entire functions only, so the characteristic formula
# is evaluable on any rectangle).

class InitialData:
    """An entire initial profile f0 for the transport problem."""

    def value(self, z, delta: float):
        """f0(z) on an array of points z."""
        raise NotImplementedError

    def derivative(self, z, value, delta: float):
        """f0'(z) on an array of points z, where f0(z) is ``value``."""
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Polynomial(InitialData):
    """f0(z) = c0 + c1*z + ... + cn*z**n with complex coefficients."""

    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in self.coefficients)
        )

    def value(self, z, delta):
        z = np.asarray(z, dtype=complex)
        return np.polynomial.polynomial.polyval(z, self.coefficients)

    def derivative(self, z, value, delta):
        z = np.asarray(z, dtype=complex)
        if len(self.coefficients) == 1:
            return np.zeros_like(z)
        der = np.polynomial.polynomial.polyder(self.coefficients)
        return np.polynomial.polynomial.polyval(z, der)

    def descriptor(self):
        return "poly:" + ",".join(format_complex(c) for c in self.coefficients)


@dataclass(frozen=True)
class ExpAffine(InitialData):
    """f0(z) = exp(c*z + d), whose derivative c*f0(z) takes no second exp."""

    c: complex
    d: complex = 0j

    def value(self, z, delta):
        return np.exp(self.c * np.asarray(z, dtype=complex) + self.d)

    def derivative(self, z, value, delta):
        return self.c * value

    def descriptor(self):
        return f"exp:{format_complex(self.c)},{format_complex(self.d)}"


@dataclass(frozen=True)
class LambdaPower(InitialData):
    """f0(z) = (z + i*delta)**k, so the solution is the spectral-parameter
    power lambda**k."""

    k: int

    def __post_init__(self):
        if isinstance(self.k, bool) or self.k < 0 or not float(self.k).is_integer():
            raise ValueError(f"power must be a nonnegative integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))  # lpow:2, never lpow:2.0

    def value(self, z, delta):
        return (np.asarray(z, dtype=complex) + 1j * delta) ** self.k

    def derivative(self, z, value, delta):
        lam = np.asarray(z, dtype=complex) + 1j * delta
        return self.k * lam ** (self.k - 1) if self.k else np.zeros_like(lam)

    def descriptor(self):
        return f"lpow:{self.k}"


def format_complex(z) -> str:
    """Render a complex number in the a+bi descriptor grammar."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_complex(text: str) -> complex:
    """Parse the a+bi grammar (both parts optional, e.g. '3', '-2i',
    '1.5+0.25i'); a trailing j is accepted as a synonym for i."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    if t.endswith("i") or t.endswith("I"):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as exc:
        raise ValueError(f"bad complex literal {text!r}: expected a+bi") from exc


F0_GRAMMAR = (
    "poly:c0,c1,...  (complex literals a+bi)  |  exp:c,d  ->  exp(c*z + d)"
    "  |  lpow:k  ->  (z + i*delta)**k"
)


def parse_f0(descriptor: str) -> InitialData:
    """Parse an initial-data descriptor; see F0_GRAMMAR."""
    head, sep, rest = descriptor.partition(":")
    if not sep:
        raise ValueError(f"bad f0 descriptor {descriptor!r}; grammar: {F0_GRAMMAR}")
    head = head.strip().lower()
    if head == "poly":
        return Polynomial(tuple(parse_complex(c) for c in rest.split(",")))
    if head == "exp":
        parts = rest.split(",")
        if len(parts) not in (1, 2):
            raise ValueError(f"exp takes c[,d], got {rest!r}")
        c = parse_complex(parts[0])
        d = parse_complex(parts[1]) if len(parts) == 2 else 0j
        return ExpAffine(c, d)
    if head == "lpow":
        try:
            return LambdaPower(int(rest))
        except ValueError as exc:
            raise ValueError(f"lpow takes a nonnegative integer, got {rest!r}") from exc
    raise ValueError(f"unknown f0 kind {head!r}; grammar: {F0_GRAMMAR}")


# ---------------------------------------------------------------------------
# Grid-sampled solution fields.

@dataclass
class _GridField:
    """Node axes shared by the grid-sampled solution fields, whose grids
    have the shape (ny, nx)."""

    xs: np.ndarray
    ys: np.ndarray

    def _check_shapes(self, grids):
        """Reject grids that are not of the node shape (ny, nx)."""
        shape = (self.ys.size, self.xs.size)
        if any(np.shape(g) != shape for g in grids):
            got = "/".join(str(np.shape(g)) for g in grids)
            raise ValueError(f"grid shapes {got} do not match {shape}")

    def _check_grids(self, **grids):
        self._check_shapes(grids.values())
        map_row_blocks(self.xs.size, self.ys.size, lambda s: _raise_non_finite(
            self.xs[None, :], self.ys[s, None], [(k, g[s]) for k, g in grids.items()]))

    @property
    def region(self) -> Region:
        return Region(self.xs[0], self.xs[-1], self.ys[0], self.ys[-1])

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.xs.size, self.ys.size)


@dataclass
class ComplexField(_GridField):
    """Complex scalar w sampled on a grid, optionally with its analytic
    partials and descriptive metadata.

    ``partials`` maps a slice of grid rows to those rows of (wx, wy), as
    RealPairField.partials does for (u, v); the analytic transport
    residual and the pair ``to_real_pair`` forms call it once per block.
    Whole partial grids given as ``wx`` and ``wy`` instead (shapes
    checked, values not: a NaN partial reaches the residual maxima)
    become that function.  A solver result holds no partial grid: its
    ``partials`` derives the rows from f0 and w (_solution_partial_rows).
    """

    values: np.ndarray             # shape (ny, nx)
    wx: np.ndarray | None = None   # analytic d/dx grid, same shape
    wy: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)
    partials: Callable[[slice], tuple] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self._check_shapes([g for g in (self.wx, self.wy) if g is not None])
        if (self.wx is None) != (self.wy is None):
            raise ValueError("give both partial grids wx and wy, or neither")
        if self.wx is not None:
            if self.partials is not None:
                raise ValueError("give partial grids or a partials function, "
                                 "not both")
            self.partials = lambda s, wx=self.wx, wy=self.wy: (wx[s], wy[s])
        self._check_grids(w=self.values)


@dataclass
class RealPairField(_GridField):
    """Real solution pair (u, v) sampled on a grid, optionally with its
    analytic partials.

    ``partials`` maps a slice of grid rows (a block, as from
    fields.row_blocks) to those rows of (ux, uy, vx, vy); the analytic
    system residual calls it once per block, so no whole partial grid need
    exist, and checks the shapes of the rows it returns.  The pair
    ``to_real_pair`` returns derives them from w's Im(w) and the rows of
    (wx, wy) that w's ``partials`` gives at residual time.
    """

    u: np.ndarray
    v: np.ndarray
    partials: Callable[[slice], tuple] | None = None

    def __post_init__(self):
        self._check_grids(u=self.u, v=self.v)


def solve_characteristic(
    fam: DeltaFamily,
    f0: InitialData,
    region: Region,
    grid: GridSpec,
) -> ComplexField:
    """Exact transport solution w = f0(zeta) on a grid, with the initial
    trace w(0, y) = f0(y) on the line x = 0.

    The initial profiles in the catalog are entire, so the formula is
    evaluated on the full requested rectangle; that choice is recorded in
    the field metadata.  The arithmetic per node does not depend on delta.
    Only w is formed: one f0 evaluation per block of rows (see
    fields.row_blocks).  The field's ``partials`` derives rows of
    (wx, wy) when a residual asks (_solution_partial_rows).
    """
    xs, ys = grid_axes(region, grid)
    x = xs[None, :]
    w = np.empty((ys.size, xs.size), dtype=complex)

    def block(s):
        w[s] = f0.value(characteristic_coordinate(fam, (x, ys[s, None])),
                        fam.delta)
    map_row_blocks(xs.size, ys.size, block)
    meta = {
        "delta": fam.delta,
        "f0": f0.descriptor(),
        "initial_line": "x=0",
        "evaluation": "full-rectangle (entire initial data)",
    }
    return ComplexField(xs, ys, w, meta=meta, partials=partial(
        _solution_partial_rows, fam, f0, xs, ys, w))


def _solution_partial_rows(fam, f0, xs, ys, values, s):
    """Rows ``s`` of the partials (wx, wy) of the solution w = f0(zeta)
    solve_characteristic forms, given its values; it allocates every
    array it writes, so pool threads may call it at once."""
    x, y = xs[None, :], ys[s, None]
    df = np.asarray(f0.derivative(characteristic_coordinate(fam, (x, y)),
                                  values[s], fam.delta), dtype=complex)
    # zeta_x = -lambda/(1+x), zeta_y = 1/(1+x): wx = df*(-(lambda*inv)),
    # wy = df*inv; complex a*b and b*a can round apart, so keep the order
    inv = 1.0 / (1.0 + x)
    lam = DeltaField(fam).spectral(x, y)
    lam *= inv
    np.negative(lam, out=lam)
    wx = np.multiply(df, lam)
    del lam
    return wx, np.multiply(df, inv)


def from_real_pair(fam: DeltaFamily, uv: RealPairField) -> ComplexField:
    """Spectral identification w = u + v*lambda = (u + a*v) + i*(b*v),
    lambda = a + i*b, a = y/(1+x), b = delta/(1+x): values, by row blocks."""
    xs, ys = uv.xs, uv.ys
    inv = 1.0 / (1.0 + xs[None, :])
    b = fam.delta * inv
    # Real and imaginary parts are written straight into the complex grid.
    w = np.empty(uv.u.shape, dtype=complex)

    def block(s):
        av = ys[s, None] * inv  # a
        av *= uv.v[s]
        np.add(uv.u[s], av, out=w.real[s])
        np.multiply(b, uv.v[s], out=w.imag[s])
    map_row_blocks(xs.size, ys.size, block)
    return ComplexField(xs, ys, w, meta={"delta": fam.delta})


def to_real_pair(fam: DeltaFamily, w: ComplexField) -> RealPairField:
    """Inverse identification u = Re(w) - (a/b)*Im(w), v = Im(w)/b, by row
    blocks.  When w has partials, the pair's ``partials`` derives the rows
    of (ux, uy, vx, vy) from Im(w) and w's rows of (wx, wy) when asked
    (see _pair_partial_rows); no partial grid is formed here.

    Requires delta > 0 (enforced at DeltaFamily construction) so that
    b = delta/(1+x) never vanishes.
    """
    xs, ys = w.xs, w.ys
    shape = w.values.shape
    u, v = np.empty(shape), np.empty(shape)

    def block(s):
        p, q = w.values.real[s], w.values.imag[s]
        ratio = ys[s, None] * inv  # a
        ratio /= b  # equals y/delta
        np.multiply(ratio, q, out=u[s])
        np.subtract(p, u[s], out=u[s])
        np.divide(q, b, out=v[s])
    inv = 1.0 / (1.0 + xs[None, :])
    b = fam.delta * inv
    map_row_blocks(xs.size, ys.size, block)
    rows = w.partials
    return RealPairField(xs, ys, u, v, partials=None if rows is None else partial(
        _pair_partial_rows, fam.delta, xs, ys, w.values.imag, rows))


def _pair_partial_rows(delta, xs, ys, q, w_partials, s):
    """Rows ``s`` of the partials (ux, uy, vx, vy) of the pair to_real_pair
    forms from w, given q = Im(w) and w's partials function."""
    one_x = 1.0 + xs[None, :]
    inv = 1.0 / one_x
    ratio = ys[s, None] * inv  # a
    ratio /= delta * inv  # a/b, as in to_real_pair
    inv_delta = 1.0 / delta  # overflows at a subnormal delta
    q = q[s]
    wx, wy = w_partials(s)
    # d(a/b)/dx = 0 and d(a/b)/dy = 1/delta; 1/b = (1+x)/delta:
    # ux = px - ratio*qx, vx = (q + (1+x)*qx)*inv_delta,
    # uy = (py - q*inv_delta) - ratio*qy, vy = ((1+x)*qy)*inv_delta;
    # ux and vx first, so the wx rows are freed before uy and vy are formed
    px, qx = wx.real, wx.imag
    ux = ratio * qx
    np.subtract(px, ux, out=ux)
    vx = one_x * qx
    vx += q
    vx *= inv_delta
    del wx, px, qx
    py, qy = wy.real, wy.imag
    uy = q * inv_delta
    np.subtract(py, uy, out=uy)
    ratio *= qy
    uy -= ratio
    vy = one_x * qy
    vy *= inv_delta
    return ux, uy, vx, vy


# ---------------------------------------------------------------------------
# Residual verification.

@dataclass
class ResidualReport:
    """Maxima and grids of the two system residuals
    r1 = u_x - alpha*v_y and r2 = v_x + u_y - beta*v_y, or of the one
    transport residual r1 = w_x + lambda*w_y (r2 and max_r2 None)."""

    max_r1: float
    max_r2: float | None
    r1: np.ndarray
    r2: np.ndarray | None
    mode: str            # "analytic" or "fd"
    hx: float | None
    hy: float | None
    relative: float | None  # fd mode only, see the two residual functions

    @property
    def max_residual(self) -> float:
        if self.max_r2 is None:
            return self.max_r1
        return float(np.max([self.max_r1, self.max_r2]))  # max() can drop NaN


# A central difference with step h of data of size |f| carries rounding of
# about eps*|f|/h; a term counts as at least this many times that.
_ROUNDING = 100.0 * np.finfo(float).eps


def _max_abs(r) -> float:
    """max |r| without an |r| temporary; NaN propagates and -0.0 reads 0.0."""
    return abs(float(np.maximum(r.max(), -r.min())))


def _relative(max_res: float, sizes) -> float:
    """A residual maximum over the largest of the sizes of the terms it
    cancels (NaN propagates); a residual that is exactly 0 is relative 0,
    as its terms may all be 0."""
    return max_res / float(np.max(sizes)) if max_res != 0.0 else 0.0


def _residual_partials(mode, xs, ys, grids, partials):
    """Axes and steps a residual is formed on, and a function giving the
    partial grids on one block of its rows (a slice, as from
    fields.row_blocks): in analytic mode the given ``partials`` function,
    shape-checked on each block; in fd mode d/dx and d/dy of each of
    ``grids`` by central differences, on the interior axes (rim excluded)."""
    if mode == "analytic":
        if partials is None:
            raise ValueError("analytic mode needs a field carrying partial grids")
        if xs.size == 0 or ys.size == 0:
            raise ValueError(f"grid {(ys.size, xs.size)} has no node to "
                             "take a residual at")

        def checked(s):
            rows = partials(s)
            got = "/".join(str(np.shape(r)) for r in rows)
            want = "/".join([str((ys[s].size, xs.size))] * (2 * len(grids)))
            if got != want:
                raise ValueError(f"partial rows {got} do not match {want}")
            return rows
        return xs, ys, None, None, checked
    if mode != "fd":
        raise ValueError(f"mode must be 'fd' or 'analytic', got {mode!r}")
    if ys.size <= 2 or xs.size <= 2:
        raise StencilOutOfDomain(
            f"grid {(ys.size, xs.size)} too small for a stride (1, 1) stencil"
        )
    # spans in Python floats, which do not warn; a finite span has finite steps
    if not all(math.isfinite(float(a[-1]) - float(a[0])) for a in (xs, ys)):
        raise ValueError("finite differences require axes no longer than "
                         "the largest float")
    hx, hy = np.diff(xs), np.diff(ys)
    if (np.max(hx) - np.min(hx) > 1e-9 * (xs[-1] - xs[0])
            or np.max(hy) - np.min(hy) > 1e-9 * (ys[-1] - ys[0])):
        raise ValueError("finite differences require a uniformly spaced grid")
    hx, hy = float(np.mean(hx)), float(np.mean(hy))

    def block(s):
        # interior rows a..b-1 are grid rows a+1..b (clamped: see row_blocks)
        a, b = s.start, min(s.stop, ys.size - 2)
        diffs = []
        for f in grids:
            diffs += [(f[a + 1:b + 1, 2:] - f[a + 1:b + 1, :-2]) / (2.0 * hx),
                      (f[a + 2:b + 2, 1:-1] - f[a:b, 1:-1]) / (2.0 * hy)]
        return diffs
    return xs[1:-1], ys[1:-1], hx, hy, block


def system_residual(
    field: CoefficientField,
    uv: RealPairField,
    mode: str = "fd",
) -> ResidualReport:
    """Residuals of the real system r1 = u_x - alpha*v_y,
    r2 = v_x + u_y - beta*v_y on the grid of ``uv``.

    mode="fd" uses central differences of the stored grids (a one-node
    rim is excluded); mode="analytic" requires the pair to carry analytic
    partials (see RealPairField).  Both work one block of rows at a time
    (see fields.row_blocks); NaN propagates to the maxima.

    In fd mode the report's ``relative`` is the larger of max|r1| and
    max|r2|, each over the largest maximum of the terms it cancels: u_x
    and alpha*v_y for r1, v_x, u_y and beta*v_y for r2.  Each term counts
    as at least the rounding its central difference carries,
    _ROUNDING*max|c|*max(|u|, |v|)/h for a term c*f_x with grid step h, so
    data whose partials are all rounding noise (lpow:1 is u = 0, v = 1)
    does not read as relative 1.  Adding a constant to u or v raises
    that floor by ~1e-14 of the constant only.
    """
    xs, ys, hx, hy, partials_of = _residual_partials(
        mode, uv.xs, uv.ys, [uv.u, uv.v], uv.partials)
    r1, r2 = (np.empty((ys.size, xs.size)) for _ in range(2))
    fd = mode == "fd"

    def block(s):
        ux, uy, vx, vy = partials_of(s)
        alpha, beta = field.values(xs[None, :], ys[s, None])
        b1, b2 = r1[s], r2[s]
        np.multiply(alpha, vy, out=b1)
        np.multiply(beta, vy, out=b2)
        rows = slice(s.start, s.stop + 2)  # the rows of u and v differenced
        terms = ([_max_abs(t) for t in (b1, b2, alpha, beta, ux, vx, uy,
                                        uv.u[rows], uv.v[rows])] if fd else [])
        np.subtract(ux, b1, out=b1)
        np.subtract(vx + uy, b2, out=b2)
        return [_max_abs(b1), _max_abs(b2), *terms]
    # Maxima of |r1|, |r2| and, in fd mode, of |alpha*v_y|, |beta*v_y|, |alpha|,
    # |beta|, |u_x|, |v_x|, |u_y|, |u| and |v| over the blocks; np.max keeps NaN.
    ext = np.max(map_row_blocks(xs.size, ys.size, block), axis=0)
    max_r1, max_r2, *terms = (float(e) for e in ext)
    relative = None
    if fd:
        alpha_vy, beta_vy, max_alpha, max_beta, max_ux, max_vx, max_uy, *uv_max = terms
        rounding = _ROUNDING * max(*uv_max) / min(hx, hy)
        sizes1 = [max_ux, alpha_vy, rounding * max(1.0, max_alpha)]
        sizes2 = [max_vx, max_uy, beta_vy, rounding * max(1.0, max_beta)]
        relative = float(np.max([_relative(max_r1, sizes1),
                                 _relative(max_r2, sizes2)]))
    return ResidualReport(max_r1, max_r2, r1, r2, mode, hx, hy, relative)


def transport_residual(
    field: CoefficientField,
    w: ComplexField,
    mode: str = "fd",
) -> ResidualReport:
    """Residual r1 = w_x + lambda*w_y of the scalar transport equation,
    with lambda taken from the coefficient field (closed form when the
    field has one, else from its alpha and beta); r2 is None.

    r1 is complex: the full grid in analytic mode, the interior window in
    fd mode (one stencil rim excluded).  Both modes work one block of rows
    at a time, like system_residual; NaN propagates to the maxima.

    In fd mode the report's ``relative`` is max|r1| over the larger
    maximum of the two terms it cancels, w_x and lambda*w_y = r1 - w_x.
    Each term counts as at least the rounding of a central difference of
    w, _ROUNDING*max|w|/h, as in system_residual but without |lambda|:
    where |lambda| > 1 this floor is low, which can turn a pass into a
    FAIL but never the reverse.
    """
    xs, ys, hx, hy, partials_of = _residual_partials(
        mode, w.xs, w.ys, [w.values], w.partials)
    r1 = np.empty((ys.size, xs.size), dtype=complex)
    fd = mode == "fd"

    def block(s):
        wx, wy = partials_of(s)
        b = r1[s]
        # not in place: a field may hand out its own array
        np.multiply(spectral_lambda(field, xs[None, :], ys[s, None]), wy,
                    out=b)
        b += wx
        terms = ([np.abs(wx).max(), np.abs(b - wx).max(),
                  np.abs(w.values[s.start:s.stop + 2]).max()] if fd else [])
        return [np.abs(b).max(), *terms]
    # Block maxima of |r1|, in fd mode |w_x|, |lambda*w_y|, |w|; NaN kept.
    ext = np.max(map_row_blocks(xs.size, ys.size, block), axis=0)
    max_r1, *terms = (float(e) for e in ext)
    relative = None
    if fd:  # the floor of both terms: the rounding of w's differences
        relative = _relative(max_r1, [*terms[:2], _ROUNDING * terms[2] / min(hx, hy)])
    return ResidualReport(max_r1, None, r1, None, mode, hx, hy, relative)


# ---------------------------------------------------------------------------
# Serialization: lattice CSV data files (format in fields.write_lattice_csv)
# plus a JSON header.

def write_complex_csv(field: ComplexField, path):
    write_lattice_csv(path, ["x", "y", "re", "im"], field.xs, field.ys,
                      [field.values.real, field.values.imag])


def write_real_pair_csv(field: RealPairField, path):
    write_lattice_csv(path, ["x", "y", "u", "v"], field.xs, field.ys,
                      [field.u, field.v])


def read_complex_csv(path) -> ComplexField:
    xs, ys, values = read_lattice_csv(path, ["x", "y", "re", "im"])
    # (re, im) side by side are complex: no copy, no -0.0 lost to re + 1j*im
    return ComplexField(xs, ys, values.view(complex)[..., 0])


def read_real_pair_csv(path) -> RealPairField:
    xs, ys, values = read_lattice_csv(path, ["x", "y", "u", "v"])
    return RealPairField(xs, ys, values[..., 0], values[..., 1])


def field_header(field: ComplexField) -> dict:
    """JSON-serializable descriptor of a solution field w."""
    region = field.region
    grid = field.grid
    header = {
        "region": list(region.as_tuple()),
        "grid": [grid.nx, grid.ny],
        "kind": "w",
    }
    header.update(field.meta)
    return header


def write_field_header(field: ComplexField, path):
    with open(path, "w") as fh:
        json.dump(field_header(field), fh, indent=2)
        fh.write("\n")
