"""Regions, grids, and planar coefficient fields.

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

The region scan, the transport kernels and the solution fields'
finiteness check all run through one row-block engine,
``map_row_blocks``: blocks of whole rows of about SCAN_CHUNK_NODES
nodes, shared among the CPUs of the process affinity from two blocks up.
It sets one floating-point policy for every block, serial or pooled:
np.errstate(all="ignore").  No block warns; a value that overflows or is
invalid stays in the block's output, and the caller names the first
non-finite node (NonFiniteCoefficient) or lets it propagate as NaN to a
maximum.  Its first call in a process sets one allocation policy: under
glibc, grids up to HEAP_KEEP_BYTES come from the heap and stay there when
freed, so the next kernel reuses them instead of faulting in fresh pages.
"""

from __future__ import annotations

import contextvars
import csv
import ctypes
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonFiniteCoefficient, StencilOutOfDomain

# Coefficients blow up like (1+x)**-3 as x -> -1; keep a hard guard margin
# of 1e-12 so 1/(1+x) powers stay finite in double precision.
X_MIN = -1.0 + 1e-12

# Default pointwise finite-difference step (balances truncation vs roundoff
# for double precision, scaled away from the origin).
FD_STEP_COEFF = 1e-5


def default_fd_step(x, y):
    """Default central-difference step 1e-5 * max(1, |x|+|y|)."""
    return FD_STEP_COEFF * np.maximum(1.0, np.abs(x) + np.abs(y))


@dataclass(frozen=True)
class DeltaFamily:
    """The strictly positive parameter selecting one member of the family."""

    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0) or not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle inside the half-plane x > -1, with sides no
    longer than the largest float, so that a grid can be laid over it."""

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
        if not all(map(math.isfinite, self._must_be_finite())):
            bounds = tuple(float(v) for v in self.as_tuple())
            raise ValueError(f"region {bounds} is not finite or has a side "
                             "longer than the largest float")

    def _must_be_finite(self):
        """The side lengths, formed in Python floats, which do not warn."""
        return (float(self.x_max) - float(self.x_min),
                float(self.y_max) - float(self.y_min))

    def outside(self, x, y):
        """Where (x, y) lies outside the rectangle (NaN compares inside)."""
        return ((x < self.x_min) | (x > self.x_max)
                | (y < self.y_min) | (y > self.y_max))

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


# Grids are worked through in blocks of whole rows of about this many nodes:
# each float temporary (256 KB) then stays in a core's L2 cache at any width.
SCAN_CHUNK_NODES = 1 << 15


def chunk_rows(nx: int, ny: int) -> int:
    """Rows per block of an (ny, nx) grid: as many as fit in
    SCAN_CHUNK_NODES nodes, at least one and at most ny."""
    return min(max(1, SCAN_CHUNK_NODES // nx), ny)


def row_blocks(nx: int, ny: int):
    """Slices of the rows of an (ny, nx) grid in blocks of chunk_rows rows;
    an empty grid has none."""
    if nx == 0 or ny == 0:
        return []
    rows = chunk_rows(nx, ny)
    return [slice(a, a + rows) for a in range(0, ny, rows)]


# glibc serves an allocation above its mmap threshold with a fresh mapping,
# which the kernel zero-fills on first touch and unmaps when it is freed.
# Both thresholds are raised above a solve_large op's grids (about 540 MB),
# so grids come from the heap and a freed one is reused by the next kernel;
# a process then keeps up to this much freed heap resident.
HEAP_KEEP_BYTES = 1 << 30
_GLIBC_MMAP_MAX = 32 << 20  # glibc's documented 64-bit maximum
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_grids():
    """Raise glibc's mmap threshold to HEAP_KEEP_BYTES, or where glibc
    refuses that to _GLIBC_MMAP_MAX, which still covers a block's
    temporaries; then the trim threshold to the same size.  Setting either
    stops glibc adjusting both, and one set alone leaves the other at
    128 KB, which faults far more, so the trim threshold follows only an
    accepted mmap threshold.  Nothing happens without mallopt (macOS,
    Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for size in (HEAP_KEEP_BYTES, _GLIBC_MMAP_MAX):
        if mallopt(_M_MMAP_THRESHOLD, size):
            mallopt(_M_TRIM_THRESHOLD, size)
            return


_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_pool = (None, None)  # (pid, executor or None); a forked child makes its own


def map_row_blocks(nx: int, ny: int, fn):
    """[fn(s) for s in row_blocks(nx, ny)]; from two blocks up the pool shares
    them, in copies of the caller's context.  As in the loop no block starts
    after a failure; the earliest failed block raises."""
    global _pool
    blocks = row_blocks(nx, ny)
    if _pool[0] != os.getpid():  # first call in this process
        _keep_freed_grids()
        _pool = (os.getpid(), None)
    with np.errstate(all="ignore"):  # no block warns; callers name bad nodes
        if _WORKERS < 2 or len(blocks) < 2:
            return [fn(s) for s in blocks]
        from concurrent.futures import ThreadPoolExecutor, wait  # costs 4 ms, 0.7 MB
        if _pool[1] is None:
            _pool = (os.getpid(), ThreadPoolExecutor(_WORKERS - 1))
        results, errors, claim = [None] * len(blocks), {}, iter(range(len(blocks)))

        def work():  # next(claim) is atomic under the GIL, which ufuncs release
            while not errors and (k := next(claim, None)) is not None:
                try:
                    results[k] = fn(blocks[k])
                except BaseException as exc:
                    errors[k] = exc
        tasks = [_pool[1].submit(contextvars.copy_context().run, work)
                 for _ in range(_WORKERS - 1)]
        work()
        wait([t for t in tasks if not t.cancel()])  # a queued task claimed none
    if errors:
        raise errors[min(errors)]
    return results


def _aligned_count(lo: float, hi: float, n: int) -> int:
    """Nearest odd node count >= 3 placing a node exactly at 0 whenever 0
    lies strictly inside [lo, hi], ties going down; n made odd when none
    lies within max(64, n//8) of n.

    The counts that fit are 1 + k*lcm(2, q), k >= 1, with q the
    denominator of the fraction -lo/(hi - lo) of the axis at 0."""
    q = 1
    if lo < 0.0 < hi:
        q = (-Fraction(lo) / (Fraction(hi) - Fraction(lo))).denominator
    step = math.lcm(2, q)
    below = 1 + max((n - 1) // step, 1) * step  # above n when n < 1 + step
    m = below if n - below <= below + step - n else below + step
    return m if abs(m - n) < max(64, n // 8) else n | 1


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

    def check_domain(self, x, y):
        """x and y as float arrays, once no node is outside the domain;
        else DomainError naming the first such node."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.size == 0 or y.size == 0:
            return x, y
        # NaN propagates through min and max and fails the comparison; an
        # infinity fails the comparison or lands in one of the bounds.
        xb, yb = np.array([x.min(), x.max()]), np.array([y.min(), y.max()])
        if not (xb[0] >= X_MIN and np.isfinite([xb, yb]).all()):
            finite = np.isfinite(x) & np.isfinite(y)
            if not finite.all():
                raise _bad_point(x, y, ~finite, "non-finite coordinate at", "")
            raise _bad_point(x, y, x < X_MIN, "point",
                             " outside the half-plane x > -1")
        r = self.region
        # the corners (x_min, y_min) and (x_max, y_max) test all four sides
        if r is not None and r.outside(xb, yb).any():
            bounds = tuple(float(v) for v in r.as_tuple())
            raise _bad_point(x, y, r.outside(x, y), "point",
                             f" outside the field's region {bounds}")
        return x, y


def _bad_point(x, y, mask, before, after):
    """DomainError at the first node (row-major over the broadcast shape)
    where ``mask`` holds, naming it as (x, y) between two phrases."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(mask))
    px, py = _node(x, y, int(np.argmax(np.broadcast_to(mask, shape))), shape)
    return DomainError(f"{before} (x, y) = ({px!r}, {py!r}){after}", px, py)


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
        x, y = self.check_domain(x, y)
        return y, 1.0 / (1.0 + x)

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
        y, inv = self._y_inv(x, y)
        if not self.eps:  # b = delta*inv: one pass gives the bits of a + i*b
            return ((y + 1j * self.delta) * inv)[()]
        # inv and b depend on x alone and stay rows
        d_inv = self.delta * inv
        lam = np.empty(np.broadcast_shapes(inv.shape, y.shape), dtype=complex)
        np.multiply(y + 0.0, inv, out=lam.real)  # a, with y = -0.0 read as 0.0
        lam.imag = np.sqrt(d_inv * d_inv + self.eps)  # b
        return lam[()]


# The fixture's old name: the benchmark's workloads import it, and ROADMAP
# item 12 deletes it with the next change to the benchmark.
PerturbedDeltaField = DeltaField


class CallableField(CoefficientField):
    """User field given by two samplers alpha(x, y), beta(x, y); partials
    come from finite differences.  The samplers must be thread-safe: the
    scan and the residuals call them from several threads at once."""

    def __init__(self, alpha_fn, beta_fn):
        self.alpha_fn = alpha_fn
        self.beta_fn = beta_fn

    def values(self, x, y):
        x, y = self.check_domain(x, y)
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
        if not (_increasing(xs) and _increasing(ys)):
            raise ValueError("lattice coordinates must be strictly increasing")
        if alpha.shape != (ys.size, xs.size) or beta.shape != alpha.shape:
            raise ValueError(
                f"tables must have shape (ny, nx) = {(ys.size, xs.size)}"
            )
        _raise_non_finite(xs[None, :], ys[:, None],
                          [("alpha", alpha), ("beta", beta)])
        self.xs = xs
        self.ys = ys
        self.alpha_tab = np.ascontiguousarray(alpha)  # np.take reads it flat
        self.beta_tab = np.ascontiguousarray(beta)
        self.region = _LatticeBounds(xs[0], xs[-1], ys[0], ys[-1])

    @classmethod
    def from_csv(cls, path) -> "GridTableField":
        """Load a field from CSV with header x,y,alpha,beta; the rows must
        fill a complete rectangular lattice (any order)."""
        xs, ys, values = read_lattice_csv(path, ["x", "y", "alpha", "beta"])
        return cls(xs, ys, values[..., 0], values[..., 1])

    def values(self, x, y):
        x, y = self.check_domain(x, y)
        (iy, ty), (k, tx) = _cell(self.ys, y), _cell(self.xs, x)
        k = iy * self.xs.size + k  # flat index of each node's lower-left corner
        ux, uy = 1 - tx, 1 - ty

        def lerp(flat):  # (1-tx)*flat[k] + tx*flat[k+1], in place
            f, g = np.take(flat, k), np.take(flat[1:], k)
            f *= ux
            g *= tx
            f += g
            return f

        def interp(tab):  # (1-ty)*lerp(row iy) + ty*lerp(row iy+1)
            lo, hi = lerp(tab.ravel()), lerp(tab.ravel()[self.xs.size:])
            lo *= uy
            hi *= ty
            lo += hi
            return lo

        return interp(self.alpha_tab), interp(self.beta_tab)


@dataclass(frozen=True)
class _LatticeBounds(Region):
    """A table's lattice bounds: finite, but a side may be longer than the
    largest float, since points are only compared with them."""

    def _must_be_finite(self):
        return self.as_tuple()


def _increasing(axis):
    """Whether each coordinate exceeds the one before it (NaN fails, and
    no difference is formed that could overflow)."""
    return bool(np.all(axis[1:] > axis[:-1]))


def _cell(axis, v):
    """Lower index of the lattice cell holding each v, and v's fraction of
    it.  A cell wider than the largest float is measured at half scale,
    where halving is exact; every other cell keeps the plain quotient."""
    i = np.clip(np.searchsorted(axis, v, side="right") - 1, 0, axis.size - 2)
    lo, hi = axis[i], axis[i + 1]
    if axis[-1] / 2 - axis[0] / 2 >= 2.0 ** 1023:  # the whole axis is that wide
        s = np.where(hi / 2 - lo / 2 >= 2.0 ** 1023, 0.5, 1.0)
        v, lo, hi = v * s, lo * s, hi * s
    return i, (v - lo) / (hi - lo)


# ---------------------------------------------------------------------------
# The lattice CSV format shared by coefficient tables and solution fields:
# a header line, then one row x,y,value... per node in row-major order
# (x varying fastest), every number in its shortest round-trip repr form,
# lines ended by \r\n as csv.writer does.  Finite data survives a
# write/read cycle bit-exactly.  Report CSVs (report_row) instead carry 6
# significant digits.
_LOADTXT = dict(delimiter=",", ndmin=2, quotechar='"', comments=None)


def write_lattice_csv(path, header, xs, ys, grids):
    """Write value grids of shape (ny, nx) over the axes xs, ys, one grid
    row at a time, so no copy of the grids is made."""
    grids = [np.asarray(g, dtype=float) for g in grids]
    # One template per grid row: the x cells are formatted once, the y cell
    # once per row ("%s"), and only the values once per node ("%r").
    row = "".join(f"{x!r},%s" + ",%r" * len(grids) + "\r\n"
                  for x in np.asarray(xs, dtype=float).tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for j, y in enumerate(np.asarray(ys, dtype=float).tolist()):
            values = np.stack([g[j] for g in grids], axis=-1).ravel()
            fh.write(row.replace("%s", repr(y)) % tuple(values.tolist()))


def read_lattice_csv(path, header):
    """Read a file written by write_lattice_csv (rows in any order, LF or
    CRLF line ends, fields optionally double-quoted).

    Returns (xs, ys, values of shape (ny, nx, len(header) - 2)), parsing
    rows in the writer's order in blocks.  Raises ValueError naming the
    file on a wrong header, a missing or ragged body, a non-finite entry
    (with its x, y) or points that do not form a rectangular lattice.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            line = fh.readline()
            got = next(csv.reader([line]), None) if line else None
            if got is None or [c.strip() for c in got] != header:
                raise ValueError(f"expected header {','.join(header)}, got {got}")
            # a header-only or exhausted file is reported, not warned about
            warnings.simplefilter("ignore", UserWarning)
            if lattice := _read_in_order(path, fh, len(header)):
                return lattice
            data = np.loadtxt(path, skiprows=1, **_LOADTXT)
        if data.shape[0] == 0:
            raise ValueError("no data rows")
        if data.shape[1] != len(header):
            raise ValueError(f"expected {len(header)} columns, got {data.shape[1]}")
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            x, y = data[np.argmin(finite), :2].tolist()
            raise ValueError(f"non-finite entry at (x, y) = ({x!r}, {y!r})")
        x, y = data[:, 0], data[:, 1]
        xs, ys = np.unique(x), np.unique(y)
        if xs.size * ys.size != x.size:
            raise ValueError(f"{x.size} points do not fill a {xs.size} x {ys.size} lattice")
        order = np.lexsort((x, y))  # y-major, x varying fastest
        xo, yo = (c[order].reshape(ys.size, xs.size) for c in (x, y))
        if not (np.all(xo == xs[None, :]) and np.all(yo == ys[:, None])):
            raise ValueError("points do not form a rectangular lattice")
        return xs, ys, data[order, 2:].reshape(ys.size, xs.size, -1)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_in_order(path, fh, columns):
    """read_lattice_csv of a file in the writer's order, or None."""
    with open(path, "rb") as raw:  # a buffer row for each line
        lines = sum(np.count_nonzero(np.frombuffer(b, np.uint8) == ord("\n"))
                    for b in iter(lambda: raw.read(1 << 16), b""))
    values, n, row_ys = np.empty((lines, columns - 2)), 0, []
    try:  # ragged rows, one column, a cell that is not a number, too many rows
        while len(block := np.loadtxt(fh, max_rows=SCAN_CHUNK_NODES, **_LOADTXT)):
            x, y = block[:, :2].T.view(np.int64)
            if n == 0:  # the first grid row ends where y first changes
                xs, last = x[:np.argmax(y != y[0]) or len(x)].copy(), ~y[:1]
            col = np.arange(n, n + len(x)) % xs.size  # y changes at col 0
            if (block.shape[1] != columns or not np.isfinite(block).all()
                    or not np.array_equal(x, xs[col]) or not np.array_equal(
                        y != np.concatenate((last, y[:-1])), col == 0)):
                return None
            values[n:n + len(x)] = block[:, 2:]
            n, last = n + len(x), y[-1:].copy()
            row_ys.append(y[col == 0])
            del x, y, block  # before the next block is parsed
    except ValueError:
        return None
    if n and n % xs.size == 0:  # else None: the whole parse decides
        xs, ys = xs.view(float), np.concatenate(row_ys).view(float)
        if _increasing(xs) and _increasing(ys):
            return xs, ys, values[:n].reshape(ys.size, xs.size, -1)


def report_row(*cells) -> str:
    """One line of a report CSV (the scan table, the bench sweep, the
    Neumann trace): floats to 6 significant digits, None as the literal
    NA, anything else as str."""
    return ",".join("NA" if c is None else f"{c:.6g}" if isinstance(c, float)
                    else str(c) for c in cells)


def central_stencil(fn, x, y, h=None):
    """``fn`` at the centre (x, y) and at the four feet (east, west, north,
    south) of the central-difference stencil of half-width h (default
    default_fd_step); returns (2*h, centre value, [foot values]).

    The centre is evaluated first, so a bad centre raises the caller's
    DomainError (its default step is bad too); then a step that is not
    finite and > 0 raises ValueError, and a DomainError at a foot becomes
    StencilOutOfDomain.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if h is None:
        h = default_fd_step(x, y)
    h = np.broadcast_to(np.asarray(h, dtype=float), np.broadcast(x, y).shape)
    centre = fn(x, y)
    ok = (h > 0.0) & (h < np.inf)  # NaN fails both
    if not ok.all():
        raise ValueError("finite-difference step must be finite and > 0, "
                         f"got {h.flat[int(np.argmin(ok))].item()!r}")
    feet = []
    for fx, fy in _feet(x, y, h):  # one foot's coordinates at a time
        try:
            feet.append(fn(fx, fy))
        except DomainError as exc:  # name the first centre with this foot
            k = int(np.argmax((fx == exc.x) & (fy == exc.y)))
            cx, cy = _node(x, y, k, h.shape)
            raise StencilOutOfDomain(
                f"stencil of half-width {h.flat[k]:.6g} centred at (x, y) = "
                f"({cx!r}, {cy!r}) leaves the field's domain: {exc}") from exc
    return 2.0 * h, centre, feet


def _feet(x, y, h):
    yield x + h, y
    yield x - h, y
    yield x, y + h
    yield x, y - h


def numeric_partials(field: CoefficientField, x, y, h=None) -> CoefficientSample:
    """Central-difference partials of a coefficient field (O(h**2)); the
    alpha, beta entries are exact samples at the center point.

    Raises NonFiniteCoefficient naming the quantity and the first node
    where alpha, beta or a partial is NaN or infinite.
    """
    two_h, (alpha, beta), feet = central_stencil(field.values, x, y, h)
    (a_e, b_e), (a_w, b_w), (a_n, b_n), (a_s, b_s) = feet
    with np.errstate(all="ignore"):  # a non-finite partial raises below
        cs = CoefficientSample(
            alpha=alpha,
            beta=beta,
            alpha_x=(a_e - a_w) / two_h,
            alpha_y=(a_n - a_s) / two_h,
            beta_x=(b_e - b_w) / two_h,
            beta_y=(b_n - b_s) / two_h,
        )
    _raise_non_finite(x, y, list(vars(cs).items()))
    return cs


def _raise_non_finite(x, y, named):
    """Raise NonFiniteCoefficient at the first node (row-major over the
    broadcast shape, then in the order of ``named``) where a named
    quantity is NaN or infinite; return when there is none.  ``x`` and
    ``y`` locate the nodes (None: unknown)."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y),
                                *(np.shape(v) for _, v in named))
    if 0 in shape:  # no nodes
        return
    first = None
    for name, v in named:
        v = np.asarray(v)
        if v.dtype.kind != "c" and np.isfinite(v.min()) and np.isfinite(v.max()):
            continue  # min and max propagate NaN and make no temporary
        v = np.broadcast_to(v, shape)
        bad = ~np.isfinite(v)
        k = int(np.argmax(bad))
        if bad.flat[k] and (first is None or k < first[0]):
            first = (k, name, v.flat[k].item())
    if first is not None:
        k, name, value = first
        raise NonFiniteCoefficient(name, value, *_node(x, y, k, shape))


def _node(x, y, k, shape):
    """(x, y) of the k-th node (row-major) of the broadcast shape, or
    (None, None) when the nodes are not located."""
    if x is None:
        return None, None
    return (float(np.broadcast_to(x, shape).flat[k]),
            float(np.broadcast_to(y, shape).flat[k]))


def write_field_csv(field: CoefficientField, region: Region, grid: GridSpec, path):
    """Sample a field on a grid and write the x,y,alpha,beta table."""
    xs, ys = grid_axes(region, grid)
    alpha, beta = (np.broadcast_to(v, (ys.size, xs.size))
                   for v in field.values(xs[None, :], ys[:, None]))
    write_lattice_csv(path, ["x", "y", "alpha", "beta"], xs, ys, [alpha, beta])
