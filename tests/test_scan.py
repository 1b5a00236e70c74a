"""Region scans: the chunked broadcast-axis scan against the meshgrid scan
it replaced, independence from the chunk size, typed errors for
non-finite quantities, and the domain checks of finite-difference
sampling."""

import numpy as np
import pytest

from rigidpde.analysis import (
    SCAN_CHUNK_NODES,
    TABLE_DELTAS,
    RegionScanReport,
    _obstruction_with_disc,
    condition_number,
    scan_region,
)
from rigidpde.cli import main
from rigidpde.errors import (
    DomainError,
    InvalidBranch,
    NonFiniteCoefficient,
    NotElliptic,
    RigidPdeError,
    StencilOutOfDomain,
)
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    CoefficientField,
    CoefficientSample,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    PerturbedDeltaField,
    Region,
    aligned_gridspec,
    grid_axes,
    numeric_partials,
    write_field_csv,
    write_lattice_csv,
)

W = REFERENCE_WINDOW
TABLE_REGION = Region(W.x_min - 0.01, W.x_max + 0.01,
                      W.y_min - 0.01, W.y_max + 0.01)


def reference_scan(field, region, grid, rigidity_tol=None, chunk_rows=128):
    """The meshgrid scan that scan_region replaced, kept as the reference
    its reports must match exactly."""
    if rigidity_tol is None:
        rigidity_tol = 1e-10 if field.closed_form_partials else 1e-4
    xs, ys = grid_axes(region, grid)
    inf_mu, sup_mu = np.inf, -np.inf
    max_a, max_b = 0.0, 0.0
    for start in range(0, ys.size, chunk_rows):
        X, Y = np.meshgrid(xs, ys[start:start + chunk_rows])
        cs = field.sample(X, Y)
        lam = field.spectral(X, Y)
        if lam is not None:
            b = lam.imag
            if np.any(b <= 0.0):
                raise InvalidBranch("Im(lambda) <= 0")
            disc = (b + b) ** 2
        else:
            disc = 4.0 * np.asarray(cs.alpha) - np.asarray(cs.beta) ** 2
            if np.any(disc <= 0.0):
                j, i = np.unravel_index(int(np.argmin(disc)), disc.shape)
                raise NotElliptic(disc[j, i], x=X[j, i], y=Y[j, i])
            lam = 0.5 * (-np.asarray(cs.beta) + 1j * np.sqrt(disc))
        abs_mu = np.abs((lam - 1j) / (lam + 1j))
        alpha, beta = np.asarray(cs.alpha), np.asarray(cs.beta)
        t1 = np.asarray(cs.alpha_x) - alpha * np.asarray(cs.beta_y)
        t2 = (np.asarray(cs.beta_x) + np.asarray(cs.alpha_y)
              - beta * np.asarray(cs.beta_y))
        a = (beta * t1 - 2.0 * alpha * t2) / disc
        b_ = (2.0 * t1 - beta * t2) / disc
        inf_mu = min(inf_mu, float(abs_mu.min()))
        sup_mu = max(sup_mu, float(abs_mu.max()))
        max_a = max(max_a, float(np.abs(a).max()))
        max_b = max(max_b, float(np.abs(b_).max()))
    return RegionScanReport(
        region=region, grid=grid, inf_mu=inf_mu, sup_mu=sup_mu,
        kappa=condition_number(sup_mu), max_abs_A=max_a, max_abs_B=max_b,
        rigid=max(max_a, max_b) < rigidity_tol, rigidity_tol=rigidity_tol,
        partials=("closed-form" if field.closed_form_partials
                  else "finite-difference"),
        delta=getattr(field, "delta", None),
    )


def same_report(got, want):
    # repr tells -0.0 from 0.0, which == does not
    assert repr(got.to_dict()) == repr(want.to_dict())


def family_callable(delta):
    d2 = delta * delta
    return CallableField(lambda x, y: (y * y + d2) / ((1.0 + x) * (1.0 + x)),
                         lambda x, y: -2.0 * y / (1.0 + x))


# --- the scan against its meshgrid reference -----------------------------------

@pytest.mark.parametrize("delta", TABLE_DELTAS)
def test_scan_matches_reference_closed_form_2001(delta):
    grid = aligned_gridspec(W, 2001, 2001)
    for field in (DeltaField(DeltaFamily(delta)),
                  PerturbedDeltaField(DeltaFamily(delta), 0.01 * delta + 1e-3)):
        same_report(scan_region(field, W, grid), reference_scan(field, W, grid))


@pytest.mark.parametrize("delta", [1.0, 1e-3])
def test_scan_matches_reference_callable_1001(delta):
    field = family_callable(delta)
    grid = aligned_gridspec(W, 1001, 1001)
    same_report(scan_region(field, W, grid), reference_scan(field, W, grid))


def test_scan_matches_reference_table_401(tmp_path):
    path = tmp_path / "table.csv"
    write_field_csv(DeltaField(DeltaFamily(0.3)), TABLE_REGION,
                    GridSpec(201, 201), path)
    field = GridTableField.from_csv(path)
    grid = aligned_gridspec(W, 401, 401)
    same_report(scan_region(field, W, grid), reference_scan(field, W, grid))


def test_scan_default_chunk_fits_the_node_budget():
    seen = []

    class Recording(DeltaField):
        def sample(self, x, y, h=None):
            seen.append(np.broadcast(x, y).shape)
            return super().sample(x, y, h)

    grid = aligned_gridspec(W, 2001, 2001)
    scan_region(Recording(DeltaFamily(0.1)), W, grid)
    rows = SCAN_CHUNK_NODES // grid.nx
    assert seen[0] == (rows, grid.nx)
    assert sum(s[0] for s in seen) == grid.ny
    assert all(s[0] * s[1] <= SCAN_CHUNK_NODES for s in seen)


def test_scan_rejects_empty_chunks():
    with pytest.raises(ValueError, match="chunk_rows"):
        scan_region(DeltaField(DeltaFamily(1.0)), W, GridSpec(5, 5),
                    chunk_rows=0)


def test_obstruction_buffers_keep_the_formula():
    # in-place evaluation of (A, B) equals the written expressions exactly
    rng = np.random.default_rng(3)
    cs = CoefficientSample(*(rng.standard_normal((7, 5)) for _ in range(6)))
    disc = rng.uniform(0.5, 2.0, (7, 5))
    t1 = cs.alpha_x - cs.alpha * cs.beta_y
    t2 = cs.beta_x + cs.alpha_y - cs.beta * cs.beta_y
    a, b = _obstruction_with_disc(cs, disc)
    assert a.tobytes() == ((cs.beta * t1 - 2.0 * cs.alpha * t2) / disc).tobytes()
    assert b.tobytes() == ((2.0 * t1 - cs.beta * t2) / disc).tobytes()


# --- chunk-size invariance -------------------------------------------------------

FIELD_KINDS = ("delta", "perturbed", "callable")


def make_field(kind, delta):
    if kind == "delta":
        return DeltaField(DeltaFamily(delta))
    if kind == "perturbed":
        return PerturbedDeltaField(DeltaFamily(delta), 0.05)
    return family_callable(delta)


def test_scan_report_independent_of_chunk_rows():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(kind=st.sampled_from(FIELD_KINDS), nx=st.integers(2, 40),
               ny=st.integers(2, 40), log_delta=st.floats(-4.0, 0.0),
               data=st.data())
    def check(kind, nx, ny, log_delta, data):
        field = make_field(kind, 10.0 ** log_delta)
        grid = GridSpec(nx, ny)
        chunk_rows = data.draw(st.integers(1, ny), label="chunk_rows")
        same_report(scan_region(field, W, grid, chunk_rows=chunk_rows),
                    scan_region(field, W, grid))

    check()


# --- non-finite quantities ---------------------------------------------------------

class Injected(CoefficientField):
    """A field whose sample carries one non-finite value at one node."""

    def __init__(self, inner, x0, y0, name, value):
        self.inner = inner
        self.closed_form_partials = inner.closed_form_partials
        self.x0, self.y0, self.name, self.value = x0, y0, name, value

    def values(self, x, y):
        return self.inner.values(x, y)

    def spectral(self, x, y):
        return self.inner.spectral(x, y)

    def sample(self, x, y, h=None):
        cs = self.inner.sample(x, y, h)
        X, Y = np.broadcast_arrays(x, y)
        v = np.array(np.broadcast_to(getattr(cs, self.name), X.shape))
        v[(X == self.x0) & (Y == self.y0)] = self.value
        setattr(cs, self.name, v)
        return cs


def poisoned(fn, x0, y0, value):
    return lambda x, y: np.where((x == x0) & (y == y0), value, fn(x, y))


QUANTITIES = ("alpha", "beta", "alpha_x", "alpha_y", "beta_x", "beta_y")


def test_non_finite_value_raises_at_its_node():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=120, deadline=None, derandomize=True)
    @hyp.given(kind=st.sampled_from(FIELD_KINDS + ("callable-beta",)),
               name=st.sampled_from(QUANTITIES),
               value=st.sampled_from([np.nan, np.inf, -np.inf]),
               nx=st.integers(2, 30), ny=st.integers(2, 30),
               log_delta=st.floats(-4.0, 0.0), data=st.data())
    def check(kind, name, value, nx, ny, log_delta, data):
        delta = 10.0 ** log_delta
        grid = GridSpec(nx, ny)
        xs, ys = grid_axes(W, grid)
        i = data.draw(st.integers(0, nx - 1), label="i")
        j = data.draw(st.integers(0, ny - 1), label="j")
        chunk_rows = data.draw(st.integers(1, ny), label="chunk_rows")
        x0, y0 = float(xs[i]), float(ys[j])
        if kind.startswith("callable"):
            # a bad sample at the centre of node (i, j) only: the stencil
            # feet of every node lie off the grid
            base = family_callable(delta)
            field = CallableField(
                poisoned(base.alpha_fn, x0, y0, value)
                if kind == "callable" else base.alpha_fn,
                poisoned(base.beta_fn, x0, y0, value)
                if kind == "callable-beta" else base.beta_fn)
        else:
            field = Injected(make_field(kind, delta), x0, y0, name, value)
        with pytest.raises(NonFiniteCoefficient) as excinfo:
            scan_region(field, W, grid, chunk_rows=chunk_rows)
        err = excinfo.value
        assert (err.x, err.y) == (x0, y0)
        assert f"(x={x0!r}, y={y0!r})" in str(err)
        if not kind.startswith("callable"):
            assert err.name == name

    check()


def test_closed_form_lambda_checks_name_the_node():
    class Bent(DeltaField):
        def __init__(self, lam_at_node):
            super().__init__(DeltaFamily(0.5))
            self.lam_at_node = lam_at_node

        def spectral(self, x, y):
            lam = super().spectral(x, y)
            lam = np.array(np.broadcast_to(lam, np.broadcast(x, y).shape))
            lam[(np.broadcast_to(x, lam.shape) == 0.25)
                & (np.broadcast_to(y, lam.shape) == 0.5)] = self.lam_at_node
            return lam

    grid = GridSpec(7, 9)  # nodes x = -0.5, -0.25, ..., 1; y = -1, -0.75, ...
    with pytest.raises(NonFiniteCoefficient,
                       match=r"non-finite lambda = \(nan\+1j\) at \(x=0.25, y=0.5\)"):
        scan_region(Bent(complex(np.nan, 1.0)), W, grid)
    with pytest.raises(InvalidBranch, match=r"at \(x=0.25, y=0.5\)"):
        scan_region(Bent(0.5 - 0.1j), W, grid)


def test_nan_quarter_plane_is_not_a_rigid_scan():
    # the Python min/max fold dropped NaN: this scanned as rigid=True
    field = CallableField(
        lambda x, y: np.where((x > 0.25) & (y > 0), np.nan,
                              (y * y + 1e-2) / ((1.0 + x) * (1.0 + x))),
        lambda x, y: -2.0 * y / (1.0 + x))
    for chunk_rows in (None, 1, 7, 401):
        with pytest.raises(NonFiniteCoefficient) as excinfo:
            scan_region(field, W, GridSpec(101, 401), chunk_rows=chunk_rows)
        # first in row-major order: on y = 0, whose stencil reaches y > 0
        assert str(excinfo.value) == \
            "non-finite alpha_y = nan at (x=0.265, y=0.0)"


def test_cli_analyze_reports_non_finite_node(tmp_path, capsys):
    # finite table entries whose obstruction overflows to inf: the scan
    # used to fold it into "sup|mu| = -inf"
    path = tmp_path / "big.csv"
    path.write_text("x,y,alpha,beta\n" + "".join(
        f"{x},{y},{1e308 if (x, y) == (1, 1) else 2},0\n"
        for y in range(3) for x in range(3)))
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        scan_region(GridTableField.from_csv(path), Region(0.1, 1.9, 0.1, 1.9),
                    GridSpec(21, 21))
    assert isinstance(excinfo.value, RigidPdeError)
    assert (excinfo.value.name, excinfo.value.x, excinfo.value.y) == \
        ("A", 0.1, 0.1)
    code = main(["analyze", "--field-csv", str(path),
                 "--region", "0.1,1.9,0.1,1.9", "--grid", "21,21"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: non-finite A = -inf at (x=0.1, y=0.1)\n"


# --- finite-difference sampling ---------------------------------------------------

def test_fd_sample_checks_each_evaluation_once(monkeypatch):
    calls = []
    check = CoefficientField.check_domain

    def counting(self, x, y, pad=0.0):
        calls.append(1)
        return check(self, x, y, pad)

    monkeypatch.setattr(CoefficientField, "check_domain", counting)
    family_callable(0.5).sample(0.1, 0.2)
    assert len(calls) == 5  # the centre and four stencil feet


def test_numeric_partials_blames_a_bad_centre_not_the_stencil():
    for x, y in ((np.nan, 0.0), (0.0, np.inf), (-2.0, 0.0)):
        with pytest.raises(DomainError):
            numeric_partials(DeltaField(DeltaFamily(1.0)), x, y)
    region = Region(0.0, 1.0, 0.0, 1.0)
    field = CallableField(lambda x, y: x * 0 + 2.0, lambda x, y: y * 0,
                          region=region)
    with pytest.raises(DomainError, match="region"):
        numeric_partials(field, 1.5, 0.5)
    with pytest.raises(StencilOutOfDomain, match="stencil"):
        numeric_partials(field, 1.0, 0.5)


def test_write_field_csv_matches_meshgrid_sampling(tmp_path):
    region, grid = TABLE_REGION, GridSpec(31, 23)
    xs, ys = grid_axes(region, grid)
    for field in (DeltaField(DeltaFamily(0.3)),
                  PerturbedDeltaField(DeltaFamily(0.3), 0.01),
                  family_callable(0.3)):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_field_csv(field, region, grid, got)
        write_lattice_csv(want, ["x", "y", "alpha", "beta"], xs, ys,
                          list(field.values(*np.meshgrid(xs, ys))))
        assert got.read_bytes() == want.read_bytes()
