"""Exact solver for the rigid regime.

Because the spectral parameter lambda = (y + i*delta)/(1+x) obeys the
conservative transport law lambda_x + lambda*lambda_y = 0, the complex
combination w = u + v*lambda turns the real first-order system into the
scalar transport equation w_x + lambda*w_y = 0, which is solved exactly
by w = f0(zeta) with zeta the characteristic coordinate and f0 the
initial profile on the line x = 0.  The identification is invertible
(u = Re(w) - (a/b)*Im(w), v = Im(w)/b with lambda = a + i*b), so both
directions and their residual checks live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .analysis import spectral_lambda
from .errors import StencilOutOfDomain
from .fields import (
    CoefficientField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Point,
    Region,
    grid_axes,
    read_lattice_csv,
    write_lattice_csv,
)


def characteristic_coordinate(fam: DeltaFamily, p):
    """Characteristic coordinate zeta = (y - i*delta*x)/(1+x).

    Constant along characteristics, equal to y on the initial line x = 0,
    and related to the spectral parameter by lambda = zeta + i*delta.
    ``p`` may be a Point or an (x, y) pair of scalars/arrays.
    """
    x, y = (p.x, p.y) if isinstance(p, Point) else p
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(y, dtype=float) - 1j * fam.delta * x
    zeta *= 1.0 / (1.0 + x)
    return zeta


# ---------------------------------------------------------------------------
# Initial data catalog (entire functions only, so the characteristic formula
# is evaluable on any rectangle).

class InitialData:
    """An entire initial profile f0 for the transport problem."""

    def evaluate(self, z, delta: float):
        raise NotImplementedError

    def derivative(self, z, delta: float):
        raise NotImplementedError

    def value_and_derivative(self, z, delta: float):
        """(f0(z), f0'(z)); profiles whose derivative reuses the value
        override this to evaluate once."""
        return self.evaluate(z, delta), self.derivative(z, delta)

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

    def evaluate(self, z, delta):
        return np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex),
                                                self.coefficients)

    def derivative(self, z, delta):
        z = np.asarray(z, dtype=complex)
        if len(self.coefficients) == 1:
            return np.zeros_like(z)
        der = np.polynomial.polynomial.polyder(self.coefficients)
        return np.polynomial.polynomial.polyval(z, der)

    def descriptor(self):
        return "poly:" + ",".join(format_complex(c) for c in self.coefficients)


@dataclass(frozen=True)
class ExpAffine(InitialData):
    """f0(z) = exp(c*z + d)."""

    c: complex
    d: complex = 0j

    def evaluate(self, z, delta):
        return np.exp(self.c * np.asarray(z, dtype=complex) + self.d)

    def derivative(self, z, delta):
        return self.c * self.evaluate(z, delta)

    def value_and_derivative(self, z, delta):
        w = self.evaluate(z, delta)
        return w, self.c * w

    def descriptor(self):
        return f"exp:{format_complex(self.c)},{format_complex(self.d)}"


@dataclass(frozen=True)
class LambdaPower(InitialData):
    """f0(z) = (z + i*delta)**k, so the solution is the spectral-parameter
    power lambda**k."""

    k: int

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise ValueError(f"power must be a nonnegative integer, got {self.k}")

    def evaluate(self, z, delta):
        return (np.asarray(z, dtype=complex) + 1j * delta) ** self.k

    def derivative(self, z, delta):
        z = np.asarray(z, dtype=complex)
        if self.k == 0:
            return np.zeros_like(z)
        return self.k * (z + 1j * delta) ** (self.k - 1)

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

    def _check_grids(self, *grids):
        shape = (self.ys.size, self.xs.size)
        if any(g.shape != shape for g in grids):
            shapes = "/".join(str(g.shape) for g in grids)
            raise ValueError(f"grid shapes {shapes} do not match {shape}")
        if not all(np.all(np.isfinite(g)) for g in grids):
            raise ValueError("field contains non-finite entries")

    @property
    def region(self) -> Region:
        return Region(self.xs[0], self.xs[-1], self.ys[0], self.ys[-1])

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.xs.size, self.ys.size)


@dataclass
class ComplexField(_GridField):
    """Complex scalar w sampled on a grid, optionally with analytic partial
    grids and descriptive metadata."""

    values: np.ndarray             # shape (ny, nx)
    wx: np.ndarray | None = None   # analytic d/dx grid, same shape
    wy: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self._check_grids(self.values)

    @property
    def has_partials(self) -> bool:
        return self.wx is not None and self.wy is not None


@dataclass
class RealPairField(_GridField):
    """Real solution pair (u, v) sampled on a grid, optionally with the
    four analytic partial grids (ux, uy, vx, vy)."""

    u: np.ndarray
    v: np.ndarray
    partials: tuple | None = None  # (ux, uy, vx, vy)
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self._check_grids(self.u, self.v)

    @property
    def has_partials(self) -> bool:
        return self.partials is not None


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
    """
    xs, ys = grid_axes(region, grid)
    x, y = xs[None, :], ys[:, None]
    zeta = characteristic_coordinate(fam, (x, y))
    w, df = f0.value_and_derivative(zeta, fam.delta)
    w = np.asarray(w, dtype=complex)
    df = np.asarray(df, dtype=complex)
    del zeta  # f0 may return it (or a view of it), so it is never overwritten
    # zeta_x = -lambda/(1+x), zeta_y = 1/(1+x): wx = df*(-(lambda*inv)),
    # wy = df*inv
    inv = 1.0 / (1.0 + x)
    wx = DeltaField(fam).spectral(x, y)
    wx *= inv
    np.negative(wx, out=wx)
    np.multiply(df, wx, out=wx)
    wy = df * inv
    meta = {
        "delta": fam.delta,
        "f0": f0.descriptor(),
        "initial_line": "x=0",
        "evaluation": "full-rectangle (entire initial data)",
    }
    return ComplexField(xs, ys, w, wx=wx, wy=wy, meta=meta)


def from_real_pair(fam: DeltaFamily, uv: RealPairField) -> ComplexField:
    """Spectral identification w = u + v*lambda = (u + a*v) + i*(b*v),
    with lambda = a + i*b, a = y/(1+x), b = delta/(1+x)."""
    x, y = uv.xs[None, :], uv.ys[:, None]
    inv = 1.0 / (1.0 + x)
    b = fam.delta * inv
    a = y * inv
    v = uv.v
    # Real and imaginary parts are written straight into the complex grids.
    w = np.empty(uv.u.shape, dtype=complex)
    t = a * v
    np.add(uv.u, t, out=w.real)
    np.multiply(b, v, out=w.imag)
    wx = wy = None
    if uv.has_partials:
        ux, uy, vx, vy = uv.partials
        # wx = (ux + a_x*v + a*vx) + i*(b_x*v + b*vx), a_x = -(a*inv),
        # b_x = -(b*inv); wy = (uy + inv*v + a*vy) + i*(b*vy), as a_y = inv
        # and b_y = 0
        t2 = a * vx
        wx = np.empty_like(w)
        np.multiply(a, inv, out=t)
        np.negative(t, out=t)
        t *= v
        t += ux
        np.add(t, t2, out=wx.real)
        np.multiply(-(b * inv), v, out=t)
        np.multiply(b, vx, out=t2)
        np.add(t, t2, out=wx.imag)
        wy = np.empty_like(w)
        np.multiply(inv, v, out=t)
        t += uy
        np.multiply(a, vy, out=t2)
        np.add(t, t2, out=wy.real)
        np.multiply(b, vy, out=wy.imag)
    meta = dict(uv.meta)
    meta["delta"] = fam.delta
    return ComplexField(uv.xs, uv.ys, w, wx=wx, wy=wy, meta=meta)


def to_real_pair(fam: DeltaFamily, w: ComplexField) -> RealPairField:
    """Inverse identification u = Re(w) - (a/b)*Im(w), v = Im(w)/b.

    Requires delta > 0 (enforced at DeltaFamily construction) so that
    b = delta/(1+x) never vanishes.
    """
    x, y = w.xs[None, :], w.ys[:, None]
    inv = 1.0 / (1.0 + x)
    b = fam.delta * inv
    p = w.values.real
    q = w.values.imag
    ratio = y * inv  # a
    ratio /= b  # equals y/delta
    u = ratio * q
    np.subtract(p, u, out=u)
    v = q / b
    partials = None
    if w.has_partials:
        px, qx = w.wx.real, w.wx.imag
        py, qy = w.wy.real, w.wy.imag
        inv_delta = 1.0 / fam.delta
        one_x = 1.0 + x
        # d(a/b)/dx = 0 and d(a/b)/dy = 1/delta; 1/b = (1+x)/delta:
        # ux = px - ratio*qx, uy = (py - q*inv_delta) - ratio*qy,
        # vx = (q + (1+x)*qx)*inv_delta, vy = ((1+x)*qy)*inv_delta
        ux = ratio * qx
        np.subtract(px, ux, out=ux)
        uy = q * inv_delta
        np.subtract(py, uy, out=uy)
        ratio *= qy
        uy -= ratio
        vx = one_x * qx
        vx += q
        vx *= inv_delta
        vy = one_x * qy
        vy *= inv_delta
        partials = (ux, uy, vx, vy)
    meta = dict(w.meta)
    meta["delta"] = fam.delta
    return RealPairField(w.xs, w.ys, u, v, partials=partials, meta=meta)


# ---------------------------------------------------------------------------
# Residual verification.

@dataclass
class ResidualReport:
    """Maxima and grids of the two system residuals
    r1 = u_x - alpha*v_y and r2 = v_x + u_y - beta*v_y."""

    max_r1: float
    max_r2: float
    r1: np.ndarray
    r2: np.ndarray
    mode: str            # "analytic" or "fd"
    hx: float | None
    hy: float | None
    boundary_excluded: bool
    relative: float | None  # fd mode only, see system_residual

    @property
    def max_residual(self) -> float:
        return max(self.max_r1, self.max_r2)

    def to_dict(self) -> dict:
        return {
            "max_r1": self.max_r1,
            "max_r2": self.max_r2,
            "mode": self.mode,
            "hx": self.hx,
            "hy": self.hy,
            "boundary_excluded": self.boundary_excluded,
            "relative": self.relative,
        }


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


def _grid_spacings(xs, ys):
    hx = np.diff(xs)
    hy = np.diff(ys)
    if (np.max(hx) - np.min(hx) > 1e-9 * (xs[-1] - xs[0])
            or np.max(hy) - np.min(hy) > 1e-9 * (ys[-1] - ys[0])):
        raise ValueError("finite differences require a uniformly spaced grid")
    return float(np.mean(hx)), float(np.mean(hy))


def _stride_for(h, hx, hy):
    """Map a requested step onto integer stencil strides per axis."""
    if h is None:
        return 1, 1
    kx, ky = h / hx, h / hy
    sx, sy = int(round(kx)), int(round(ky))
    if (sx < 1 or sy < 1 or abs(kx - sx) > 1e-9 * max(1.0, kx)
            or abs(ky - sy) > 1e-9 * max(1.0, ky)):
        raise ValueError(
            f"step h = {h:g} is not an integer multiple of the grid spacings "
            f"({hx:g}, {hy:g})"
        )
    return sx, sy


def _central_diffs(f, hx, hy, sx, sy):
    """Interior central differences with strides (sx, sy); returns the
    derivative grids restricted to the shared interior window."""
    if f.shape[0] <= 2 * sy or f.shape[1] <= 2 * sx:
        raise StencilOutOfDomain(
            f"grid {f.shape} too small for a stride ({sx}, {sy}) stencil"
        )
    fx = (f[sy:-sy, 2 * sx:] - f[sy:-sy, :-2 * sx]) / (2.0 * sx * hx)
    fy = (f[2 * sy:, sx:-sx] - f[:-2 * sy, sx:-sx]) / (2.0 * sy * hy)
    return fx, fy


def system_residual(
    field: CoefficientField,
    uv: RealPairField,
    mode: str = "fd",
    h: float | None = None,
) -> ResidualReport:
    """Residuals of the real system r1 = u_x - alpha*v_y,
    r2 = v_x + u_y - beta*v_y on the grid of ``uv``.

    mode="fd" uses central differences of the stored grids (a one-node
    rim per stride is excluded and recorded); mode="analytic" requires
    the field to carry closed-form partial grids.

    In fd mode the report's ``relative`` is the larger of max|r1| and
    max|r2|, each over the largest maximum of the terms it cancels: u_x
    and alpha*v_y for r1, v_x, u_y and beta*v_y for r2.  Each term counts
    as at least the rounding its central difference carries,
    _ROUNDING*max|c|*max(|u|, |v|)/h for a term c*f_x with step h, so
    data whose partials are all rounding noise (lpow:1 is u = 0, v = 1)
    does not read as relative 1.  Adding a constant to u or v raises
    that floor by ~1e-14 of the constant only.
    """
    xs, ys = uv.xs, uv.ys
    if mode == "analytic":
        if not uv.has_partials:
            raise ValueError("analytic mode needs a field carrying partial grids")
        ux, uy, vx, vy = uv.partials
        hx = hy = None
    elif mode == "fd":
        hx, hy = _grid_spacings(xs, ys)
        sx, sy = _stride_for(h, hx, hy)
        ux, uy = _central_diffs(uv.u, hx, hy, sx, sy)
        vx, vy = _central_diffs(uv.v, hx, hy, sx, sy)
        xs, ys = xs[sx:-sx], ys[sy:-sy]
        hx, hy = sx * hx, sy * hy
    else:
        raise ValueError(f"mode must be 'fd' or 'analytic', got {mode!r}")
    alpha, beta = field.values(xs[None, :], ys[:, None])
    r1 = alpha * vy
    r2 = beta * vy
    if mode == "fd":
        rounding = _ROUNDING * max(_max_abs(uv.u), _max_abs(uv.v)) / min(hx, hy)
        sizes1 = [_max_abs(ux), _max_abs(r1), rounding * max(1.0, _max_abs(alpha))]
        sizes2 = [_max_abs(vx), _max_abs(uy), _max_abs(r2),
                  rounding * max(1.0, _max_abs(beta))]
    np.subtract(ux, r1, out=r1)
    np.subtract(vx + uy, r2, out=r2)
    max_r1, max_r2 = _max_abs(r1), _max_abs(r2)
    relative = None
    if mode == "fd":
        relative = float(np.max([_relative(max_r1, sizes1),
                                 _relative(max_r2, sizes2)]))
    return ResidualReport(
        max_r1, max_r2, r1, r2,
        mode, hx, hy, boundary_excluded=mode == "fd", relative=relative,
    )


def transport_residual(
    field: CoefficientField,
    w: ComplexField,
    mode: str = "fd",
    h: float | None = None,
):
    """Residual w_x + lambda*w_y of the scalar transport equation, with
    lambda taken from the coefficient field (closed form when the field
    has one, else from its alpha and beta).

    Returns the complex residual grid: full-shape for analytic mode, the
    interior window for fd mode (one stencil rim excluded).
    """
    if mode == "analytic":
        if not w.has_partials:
            raise ValueError("analytic mode needs a field carrying wx, wy grids")
        wx, wy, xs, ys = w.wx, w.wy, w.xs, w.ys
    elif mode == "fd":
        hx, hy = _grid_spacings(w.xs, w.ys)
        sx, sy = _stride_for(h, hx, hy)
        wx, wy = _central_diffs(w.values, hx, hy, sx, sy)
        xs, ys = w.xs[sx:-sx], w.ys[sy:-sy]
    else:
        raise ValueError(f"mode must be 'fd' or 'analytic', got {mode!r}")
    res = spectral_lambda(field, xs[None, :], ys[:, None])
    res = res * wy  # not in place: a field may hand out its own array
    res += wx
    return res


def transport_relative(w: ComplexField, res, h: float | None = None) -> float:
    """max|res| over the larger maximum of the two terms it cancels, for
    ``res`` the fd transport residual of ``w`` (as transport_residual
    returns it): w_x and lambda*w_y = res - w_x.

    Only the central differences of w are taken again, not lambda.  Each
    term counts as at least the rounding of a central difference of w,
    _ROUNDING*max|w|/h, as in system_residual but without |lambda|: where
    |lambda| > 1 this floor is low, which can turn a pass into a FAIL but
    never the reverse.
    """
    hx, hy = _grid_spacings(w.xs, w.ys)
    sx, sy = _stride_for(h, hx, hy)
    wx, _ = _central_diffs(w.values, hx, hy, sx, sy)
    lam_wy = res - wx
    rounding = _ROUNDING * float(np.abs(w.values).max()) / min(sx * hx, sy * hy)
    return _relative(float(np.abs(res).max()),
                     [np.abs(wx).max(), np.abs(lam_wy).max(), rounding])


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
    xs, ys, (re, im) = read_lattice_csv(path, ["x", "y", "re", "im"])
    values = re.astype(complex)  # not re + 1j*im, which turns -0.0 into 0.0
    values.imag = im
    return ComplexField(xs, ys, values)


def read_real_pair_csv(path) -> RealPairField:
    xs, ys, (u, v) = read_lattice_csv(path, ["x", "y", "u", "v"])
    return RealPairField(xs, ys, u, v)


def field_header(field) -> dict:
    """JSON-serializable descriptor of a solution field."""
    region = field.region
    grid = field.grid
    header = {
        "region": list(region.as_tuple()),
        "grid": [grid.nx, grid.ny],
        "kind": "w" if isinstance(field, ComplexField) else "uv",
    }
    header.update(field.meta)
    return header


def write_field_header(field, path):
    with open(path, "w") as fh:
        json.dump(field_header(field), fh, indent=2)
        fh.write("\n")
