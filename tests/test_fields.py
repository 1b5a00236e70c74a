import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rigidpde import fields
from rigidpde.analysis import burgers_residual
from rigidpde.errors import DomainError, NonFiniteCoefficient, StencilOutOfDomain
from rigidpde.fields import (
    REFERENCE_WINDOW,
    X_MIN,
    CallableField,
    CoefficientField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    PerturbedDeltaField,
    Region,
    _aligned_count,
    aligned_gridspec,
    grid_axes,
    numeric_partials,
    read_lattice_csv,
    report_row,
    write_field_csv,
    write_lattice_csv,
)


def test_check_domain_rejects_degenerate_half_plane():
    field = CoefficientField()
    with pytest.raises(DomainError):
        field.check_domain(-1.5, 0.0)
    with pytest.raises(DomainError):
        field.check_domain(-1.0, 0.0)
    with pytest.raises(DomainError):
        field.check_domain(-1.0 + 1e-13, 0.0)  # inside the guard margin
    field.check_domain(-0.999, 3.0)  # fine


def test_delta_family_requires_positive_delta():
    with pytest.raises(ValueError):
        DeltaFamily(0.0)
    with pytest.raises(ValueError):
        DeltaFamily(-1.0)


def test_region_validation():
    with pytest.raises(DomainError):
        Region(-2.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Region(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        Region(0.0, 1.0, 1.0, -1.0)


@pytest.mark.parametrize("bounds", [
    (-0.5, np.inf, -1.0, 1.0), (-0.5, 1.0, -np.inf, 1.0),
    (-0.5, 1.0, -1.0, np.inf),
    (-0.5, 1.0, -1.7e308, 1.7e308),  # finite bounds, a side that overflows
    (-0.5, 1.0, -1e308, 1e308),
])
def test_region_rejects_infinite_bounds_and_overflowing_sides(bounds):
    message = (re.escape(f"region {bounds} is not finite or has a side longer "
                         "than the largest float") + "$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy scalars do not warn either
        for kind in (float, np.float64):
            with pytest.raises(ValueError, match=message):
                Region(*(kind(v) for v in bounds))
    # sides just short of the largest float are accepted
    Region(-0.5, 1.0, -8e307, 8e307)


def test_grid_spec_needs_two_nodes_per_axis():
    for nx, ny in ((1, 5), (5, 1), (0, 0)):
        with pytest.raises(ValueError, match="^need at least 2 nodes per axis"):
            GridSpec(nx, ny)


def test_delta_coefficients_at_origin():
    cs = DeltaField(DeltaFamily(1.0)).sample(0.0, 0.0)
    assert cs.alpha == 1.0
    assert cs.beta == 0.0
    assert cs.alpha_x == -2.0
    assert cs.alpha_y == 0.0
    assert cs.beta_x == 0.0
    assert cs.beta_y == -2.0


def test_delta_coefficients_at_0_1():
    cs = DeltaField(DeltaFamily(1.0)).sample(0.0, 1.0)
    assert cs.alpha == 2.0
    assert cs.beta == -2.0


def test_beta_vanishes_on_the_x_axis():
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.9, 4.0, 100)
    for delta in (1.0, 0.2, 3.0):
        cs = DeltaField(DeltaFamily(delta)).sample(x, np.zeros_like(x))
        assert np.all(cs.beta == 0.0)
        assert np.all(cs.alpha_y == 0.0)


def test_discriminant_identity_positive():
    # 4*alpha - beta**2 == 4*delta**2/(1+x)**2 > 0 across the half-plane
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.9, 5.0, 2000)
    y = rng.uniform(-5.0, 5.0, 2000)
    for delta in (1.0, 0.5, 0.03):
        cs = DeltaField(DeltaFamily(delta)).sample(x, y)
        disc = 4.0 * cs.alpha - cs.beta**2
        assert np.all(disc > 0.0)
        np.testing.assert_allclose(disc, 4.0 * delta**2 / (1.0 + x) ** 2,
                                   rtol=1e-9)


def _bare_family_field(delta):
    field = DeltaField(DeltaFamily(delta))
    return CallableField(lambda x, y: field.values(x, y)[0],
                         lambda x, y: field.values(x, y)[1])


def test_numeric_partials_match_closed_form():
    fam = DeltaFamily(1.0)
    bare = _bare_family_field(1.0)
    fd = numeric_partials(bare, 0.0, 0.0, h=1e-4)
    exact = DeltaField(fam).sample(0.0, 0.0)
    for name in ("alpha_x", "alpha_y", "beta_x", "beta_y"):
        assert abs(getattr(fd, name) - getattr(exact, name)) < 1e-6
    assert fd.alpha == exact.alpha  # center samples are exact
    assert fd.beta == exact.beta


def test_numeric_partials_constant_field():
    field = CallableField(lambda x, y: np.ones_like(np.asarray(x, float)),
                          lambda x, y: np.zeros_like(np.asarray(x, float)))
    fd = numeric_partials(field, 0.3, -0.2, h=1e-3)
    assert fd.alpha_x == 0.0 and fd.alpha_y == 0.0
    assert fd.beta_x == 0.0 and fd.beta_y == 0.0


def test_numeric_partials_error_quarters_when_h_halves():
    bare = _bare_family_field(0.7)
    exact = DeltaField(DeltaFamily(0.7)).sample(0.25, 0.4)

    def err(h):
        fd = numeric_partials(bare, 0.25, 0.4, h=h)
        return abs(fd.alpha_x - exact.alpha_x)

    ratio = err(2e-3) / err(1e-3)
    assert 3.5 < ratio < 4.5


def test_numeric_partials_second_order_slope():
    # log-log slope 2 +/- 0.1 over h in {1e-2, 5e-3, 2.5e-3}
    bare = _bare_family_field(1.0)
    exact = DeltaField(DeltaFamily(1.0)).sample(0.1, 0.6)
    hs = np.array([1e-2, 5e-3, 2.5e-3])
    errs = []
    for h in hs:
        fd = numeric_partials(bare, 0.1, 0.6, h=h)
        errs.append(max(abs(fd.alpha_x - exact.alpha_x),
                        abs(fd.alpha_y - exact.alpha_y),
                        abs(fd.beta_x - exact.beta_x),
                        abs(fd.beta_y - exact.beta_y)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_numeric_partials_stencil_out_of_domain():
    # alpha = 1, beta = 0 on the unit square
    field = GridTableField([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)),
                           np.zeros((2, 2)))
    with pytest.raises(StencilOutOfDomain):
        numeric_partials(field, 0.0, 0.5, h=1e-3)
    numeric_partials(field, 0.5, 0.5, h=1e-3)  # interior is fine


def test_report_row_formats_each_kind_of_cell():
    assert report_row(1.0, None, 300, "converged", 6250012.5, 1e-4) == \
        "1,NA,300,converged,6.25001e+06,0.0001"


@pytest.mark.parametrize("h", [np.nan, np.inf, 0.0, -1.0])
def test_a_step_that_is_not_finite_and_positive_is_rejected(h):
    # NaN and inf used to pass the step check and be blamed on the domain
    field = CallableField(lambda x, y: 1.0 + 0.0 * x, lambda x, y: 0.0 * x)
    step = re.escape(repr(float(h)))
    for derive in (lambda: numeric_partials(field, 0.5, 0.5, h=h),
                   lambda: burgers_residual(field, (0.5, 0.5), h=h)):
        with pytest.raises(ValueError, match=rf"^finite-difference step must "
                           rf"be finite and > 0, got {step}$"):
            derive()


def test_numeric_partials_raise_on_a_non_finite_sample():
    # alpha is NaN on the quarter plane x > 0.25, y > 0: the partials used
    # to come back as NaN without an error
    field = CallableField(
        lambda x, y: np.where((x > 0.25) & (y > 0), np.nan, 1.0 + 0.0 * x),
        lambda x, y: 0.0 * x)
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        numeric_partials(field, 0.5, 0.5)
    err = excinfo.value
    assert (err.name, err.x, err.y) == ("alpha", 0.5, 0.5)
    # on arrays, the first bad node in row-major order, then the first
    # bad quantity there: alpha_y at (0.5, 0), whose stencil reaches y > 0
    xs, ys = np.array([0.0, 0.5]), np.array([-0.5, 0.0, 0.5])
    with pytest.raises(NonFiniteCoefficient,
                       match=r"non-finite alpha_y = nan at \(x=0.5, y=0.0\)"):
        numeric_partials(field, xs[None, :], ys[:, None], h=1e-3)
    # an overflowing difference is caught too, without a RuntimeWarning
    huge = CallableField(lambda x, y: np.where(x > 0, 1.7e308, -1.7e308),
                         lambda x, y: 0.0 * x)
    with pytest.raises(NonFiniteCoefficient, match="alpha_x = inf"):
        numeric_partials(huge, 0.0, 0.0)


def grid_nodes(region, grid):
    """All grid nodes as an (nx*ny, 2) array, row-major with x varying
    fastest."""
    X, Y = np.meshgrid(*grid_axes(region, grid))
    return np.column_stack([X.ravel(), Y.ravel()])


def test_grid_axes_unit_square_corners():
    pts = grid_nodes(Region(0, 1, 0, 1), GridSpec(2, 2))
    np.testing.assert_array_equal(pts, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_grid_axes_reference_window_4x5():
    pts = grid_nodes(REFERENCE_WINDOW, GridSpec(4, 5))
    assert pts.shape == (20, 2)
    np.testing.assert_array_equal(pts[0], [-0.5, -1.0])
    np.testing.assert_array_equal(pts[-1], [1.0, 1.0])


def test_grid_alignment_places_origin_node():
    grid = aligned_gridspec(REFERENCE_WINDOW, 2001, 2001)
    assert grid == GridSpec(1999, 2001)
    xs, ys = grid_axes(REFERENCE_WINDOW, grid)
    assert 0.0 in xs and 0.0 in ys
    # counts are odd per axis
    assert grid.nx % 2 == 1 and grid.ny % 2 == 1


def test_grid_axes_bounding_box_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = rng.uniform(-0.9, 0.0)
        region = Region(x0, x0 + rng.uniform(0.1, 3.0),
                        rng.uniform(-2, 0), rng.uniform(0.1, 2))
        grid = GridSpec(rng.integers(2, 40), rng.integers(2, 40))
        pts = grid_nodes(region, grid)
        assert pts.shape == (grid.count, 2)
        assert pts[:, 0].min() == region.x_min
        assert pts[:, 0].max() == region.x_max
        assert pts[:, 1].min() == region.y_min
        assert pts[:, 1].max() == region.y_max


def test_grid_table_bilinear_is_exact_on_bilinear_data():
    xs = np.linspace(0.0, 2.0, 9)
    ys = np.linspace(-1.0, 1.0, 7)
    X, Y = np.meshgrid(xs, ys)
    alpha = 2.0 + 0.5 * X + 0.25 * Y + 0.1 * X * Y
    beta = -0.3 * X + 0.2 * Y
    field = GridTableField(xs, ys, alpha, beta)
    rng = np.random.default_rng(5)
    xq = rng.uniform(0.0, 2.0, 200)
    yq = rng.uniform(-1.0, 1.0, 200)
    a, b = field.values(xq, yq)
    np.testing.assert_allclose(a, 2.0 + 0.5 * xq + 0.25 * yq + 0.1 * xq * yq,
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(b, -0.3 * xq + 0.2 * yq, rtol=0, atol=1e-13)


def test_grid_table_csv_roundtrip(tmp_path):
    fam_field = DeltaField(DeltaFamily(0.5))
    region = Region(-0.4, 1.2, -1.1, 1.1)
    path = tmp_path / "field.csv"
    write_field_csv(fam_field, region, GridSpec(21, 19), path)
    loaded = GridTableField.from_csv(path)
    xs, ys = grid_axes(region, GridSpec(21, 19))
    a0, b0 = fam_field.values(*np.meshgrid(xs, ys))
    np.testing.assert_array_equal(loaded.alpha_tab, a0)
    np.testing.assert_array_equal(loaded.beta_tab, b0)


def test_grid_table_rejects_bad_input(tmp_path):
    p = tmp_path / "bad_header.csv"
    p.write_text("x,y,a,b\n0,0,1,0\n")
    with pytest.raises(ValueError):
        GridTableField.from_csv(p)
    p2 = tmp_path / "not_lattice.csv"
    p2.write_text("x,y,alpha,beta\n0,0,1,0\n1,0,1,0\n0,1,1,0\n")
    with pytest.raises(ValueError):
        GridTableField.from_csv(p2)
    for name, body, needle in [
        ("empty.csv", "", "no data rows"),
        ("short_row.csv", "0,0,1,0\n1,0,1\n", "columns"),
        ("inf.csv", "0,0,1,0\n1,0,1,0\n0,1,1,-inf\n1,1,1,0\n", "(0.0, 1.0)"),
    ]:
        path = tmp_path / name
        path.write_text("x,y,alpha,beta\n" + body)
        with pytest.raises(ValueError) as exc:
            GridTableField.from_csv(path)
        assert str(path) in str(exc.value) and needle in str(exc.value)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"x","y","alpha","beta"\r\n"0",0,2,0\r\n1,0,2,0\r\n'
                      '0,1,2,0\r\n1,1,2,"0.5"\r\n')
    field = GridTableField.from_csv(quoted)
    assert field.alpha_tab[0, 0] == 2.0 and field.beta_tab[1, 1] == 0.5


def test_grid_table_rejects_a_bad_lattice():
    two = [0.0, 1.0]
    table = np.ones((2, 2))
    for xs, ys, message in [
        ([0.0], two, "need at least a 2x2 lattice"),
        ([[0.0, 1.0]], two, "need at least a 2x2 lattice"),
        ([0.0, 0.0, 1.0], two, "lattice coordinates must be strictly increasing"),
        (two, [1.0, 0.0], "lattice coordinates must be strictly increasing"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GridTableField(xs, ys, np.ones((len(ys), np.size(xs))),
                           np.zeros((len(ys), np.size(xs))))
    for alpha, beta in ((np.ones((2, 3)), table), (table, np.ones((3, 2)))):
        with pytest.raises(ValueError,
                           match=r"^tables must have shape \(ny, nx\) = \(2, 2\)$"):
            GridTableField(two, two, alpha, beta)


def test_lattice_csv_with_duplicate_points_is_not_a_lattice(tmp_path):
    # four rows over two x and two y values, but (1, 0) and (0, 1) missing
    path = tmp_path / "dup.csv"
    path.write_text("x,y,alpha,beta\n0,0,1,0\n0,0,1,0\n1,1,1,0\n1,1,1,0\n")
    with pytest.raises(ValueError) as exc:
        GridTableField.from_csv(path)
    assert str(exc.value) == f"{path}: points do not form a rectangular lattice"


LATTICE_HEADER = ["x", "y", "u", "v"]


@pytest.fixture
def block_reads(monkeypatch):
    """Parse lattice CSVs in blocks of 3 lines; returns the list of what the
    in-order block path returned for each read (None: the whole parse)."""
    monkeypatch.setattr(fields, "SCAN_CHUNK_NODES", 3)
    results = []
    block_path = fields._read_in_order

    def spy(*args):
        results.append(block_path(*args))
        return results[-1]
    monkeypatch.setattr(fields, "_read_in_order", spy)
    return results


@pytest.mark.parametrize("nx, ny, in_order", [
    (2, 5, True),   # grid rows end inside blocks
    (2, 3, True),   # 6 rows: the read after the last full block finds none
    (5, 2, False),  # a grid row wider than a block: the whole parse
])
def test_lattice_csv_reads_in_blocks(tmp_path, block_reads, nx, ny, in_order):
    xs, ys = np.arange(nx) * 0.5, np.arange(ny) * 0.25 - 1.0
    xs[0] = -0.0  # signed zeros come back as written
    u = xs[None, :] + 10.0 * ys[:, None]
    u[0, 1] = -0.0
    path = tmp_path / "lattice.csv"
    write_lattice_csv(path, LATTICE_HEADER, xs, ys, [u, -u])
    xs2, ys2, values = read_lattice_csv(path, LATTICE_HEADER)
    assert (block_reads[-1] is not None) == in_order
    assert xs2.tobytes() == xs.tobytes() and ys2.tobytes() == ys.tobytes()
    assert values.tobytes() == np.stack([u, -u], axis=-1).tobytes()


@pytest.mark.parametrize("first, last, row, message", [
    (6, 7, "0,3,3", "the number of columns changed from 4 to 3 at row 7; "
                    "use `usecols` to select a subset and avoid this error"),
    (3, 6, "{x},{y},1", "the number of columns changed from 4 to 3 at row 4; "
                        "use `usecols` to select a subset and avoid this error"),
    (6, 7, "0,3,nan,-3", "non-finite entry at (x, y) = (0.0, 3.0)"),
    (5, 6, "1,2,3,inf", "non-finite entry at (x, y) = (1.0, 2.0)"),
    (6, 8, "0,3,3,-3", "points do not form a rectangular lattice"),
])
def test_lattice_csv_fault_in_a_later_block(tmp_path, block_reads, first,
                                            last, row, message):
    # rows first..last-1 of a 2 x 4 lattice replaced; blocks are rows 0-2,
    # 3-5 and 6-7, and the whole parse names the fault
    rows = [f"{x},{y},{x + y},{x - y}" for y in range(4) for x in range(2)]
    for k in range(first, last):
        rows[k] = row.format(x=k % 2, y=k // 2)
    path = tmp_path / "bad.csv"
    path.write_text("x,y,u,v\r\n" + "".join(r + "\r\n" for r in rows))
    with pytest.raises(ValueError) as exc:
        read_lattice_csv(path, LATTICE_HEADER)
    assert block_reads == [None]
    assert str(exc.value) == f"{path}: {message}"


def test_field_evaluation_outside_region_fails():
    field = GridTableField(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                           np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DomainError):
        field.values(1.5, 0.5)


@pytest.mark.parametrize("x,y,named", [
    (np.nan, 0.0, "(nan, 0.0)"),
    (0.0, np.nan, "(0.0, nan)"),
    (np.array([0.25, np.inf]), 0.5, "(inf, 0.5)"),
    (0.25, np.array([[0.5], [-np.inf]]), "(0.25, -inf)"),
])
def test_fields_reject_non_finite_coordinates(x, y, named):
    # NaN compares False against every bound, so a comparison-only domain
    # check let it through and the family returned (nan, nan)
    fields = [
        DeltaField(DeltaFamily(1.0)),
        CallableField(lambda x, y: x * 0 + 2.0, lambda x, y: y * 0),
        GridTableField([0.0, 1.0], [0.0, 1.0], np.full((2, 2), 2.0),
                       np.zeros((2, 2))),
    ]
    for field in fields:
        with pytest.raises(DomainError, match="non-finite") as excinfo:
            field.values(x, y)
        assert named in str(excinfo.value)


def test_aligned_gridspec_without_zero_in_range():
    # no zero to align on: counts are only made odd
    grid = aligned_gridspec(Region(0.25, 1.25, 0.5, 1.5), 10, 11)
    assert grid.nx % 2 == 1 and grid.ny % 2 == 1


def test_aligned_gridspec_awkward_fraction_falls_back_to_odd():
    # 0 sits at an awkward binary fraction of the axis; alignment is
    # impossible at reasonable counts, the count is still odd
    grid = aligned_gridspec(Region(-0.3, 0.7712300001, -1.0, 1.0), 50, 50)
    assert grid.nx % 2 == 1


def search_aligned_count(lo, hi, n):
    """The reference: search outward from n, downward first, for an odd
    count >= 2 whose grid has a node at 0 when 0 is inside (lo, hi); n
    made odd when none lies within max(64, n//8)."""
    needs_zero = lo < 0.0 < hi
    frac = -Fraction(lo) / (Fraction(hi) - Fraction(lo)) if needs_zero else 0

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


def test_aligned_count_matches_the_search():
    for lo, hi in ((-0.5, 1.0), (-1.0, 1.0), (0.25, 1.25), (-1.0, 0.0),
                   (-0.3, 0.7712300001), (-2.0, 0.1), (-0.1, 7.0)):
        for n in (-3, 0, 1, 2, 3, 63, 64, 65, 1001, 2001, 4097, 10001):
            assert _aligned_count(lo, hi, n) == search_aligned_count(lo, hi, n)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ratios = st.tuples(st.integers(1, 60), st.integers(1, 60)).map(
        lambda pq: pq[0] / pq[1])
    ends = st.one_of(ratios, st.floats(1e-3, 10.0))

    @hyp.settings(max_examples=400, deadline=None, derandomize=True)
    @hyp.given(lo=ends, hi=ends, n=st.integers(-10, 5000), signs=st.integers(0, 3))
    def check(lo, hi, n, signs):
        # both ends positive, or negative, or 0 strictly inside
        lo, hi = [(lo, lo + hi), (-lo - hi, -lo), (-lo, hi), (-lo, hi)][signs]
        assert _aligned_count(lo, hi, n) == search_aligned_count(lo, hi, n)

    check()


def test_grid_table_rejects_non_finite_entries():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    alpha = np.array([[1.0, 1.0], [np.inf, 1.0]])
    with pytest.raises(ValueError):
        GridTableField(xs, ys, alpha, np.zeros((2, 2)))


def test_grid_table_names_the_first_non_finite_node():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 0.5])
    beta = np.array([[0.0, np.nan], [0.0, 0.0]])
    alpha = np.array([[1.0, 1.0], [np.inf, 1.0]])
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        GridTableField(xs, ys, alpha, beta)
    err = excinfo.value
    assert (err.name, err.x, err.y) == ("beta", 1.0, 0.0)  # row-major first
    with pytest.raises(NonFiniteCoefficient,
                       match=r"^non-finite alpha = inf at \(x=0\.0, y=0\.5\)$"):
        GridTableField(xs, ys, alpha, np.zeros((2, 2)))


# --- DeltaField(family, eps) against the parent's two classes ---------------
# ref_family and ref_perturbed are the formulas of the former DeltaField and
# PerturbedDeltaField, kept verbatim as references for the merged class.

def ref_family(delta, x, y):
    inv = 1.0 / (1.0 + x)
    p = y * y + delta * delta
    values = ((p * inv) * inv, y * (-2.0 * inv))
    beta_y = -2.0 * inv
    beta = y * beta_y
    s = (y * inv) * inv
    alpha_y = 2.0 * s
    alpha = (p * inv) * inv
    sample = (alpha, beta, alpha * beta_y, alpha_y, alpha_y, beta_y)
    lam = (y + 1j * delta) * inv
    return values, sample, (lam, -(lam * inv), inv + 0j)


def ref_perturbed(delta, eps, x, y):
    inv = 1.0 / (1.0 + x)
    p = y * y + delta * delta
    values = ((p * inv) * inv + eps, y * (-2.0 * inv))
    beta_y = -2.0 * inv
    beta = y * beta_y
    s = (y * inv) * inv
    alpha_y = 2.0 * s
    alpha_unp = (p * inv) * inv
    sample = (alpha_unp + eps, beta, alpha_unp * beta_y, alpha_y, alpha_y,
              beta_y)
    a = y * inv
    d_inv = delta * inv
    b = np.sqrt(d_inv * d_inv + eps)
    lam = a + 1j * b
    lam_x = -(a * inv) - 1j * (d_inv * d_inv * inv / b)
    return values, sample, (lam, lam_x, inv + 0j)


def bits(v):
    """The IEEE bit patterns of a real or complex array (sign of zero
    included)."""
    v = np.asarray(v)
    parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
    return [np.ascontiguousarray(p, dtype=float).view(np.uint64) for p in parts]


def assert_same_bits(got, want):
    shape = np.broadcast_shapes(np.shape(got), np.shape(want))
    for g, w in zip(bits(np.broadcast_to(got, shape)),
                    bits(np.broadcast_to(want, shape))):
        np.testing.assert_array_equal(g, w)


def eval_points():
    """Broadcast axes of an aligned and an unaligned grid (each with an
    extra y = -0.0 row), and scalar points including y = -0.0."""
    for grid in (aligned_gridspec(REFERENCE_WINDOW, 41, 41), GridSpec(40, 37)):
        xs, ys = grid_axes(REFERENCE_WINDOW, grid)
        yield xs[None, :], np.append(ys, -0.0)[:, None]
    for x, y in ((0.0, 0.0), (0.25, -0.0), (-0.3, 0.7), (1.0, -1.0)):
        yield np.float64(x), np.float64(y)


DELTAS = (1e-200, 1e-12, 1e-6, 1e-3, 0.1, 1.0)


@pytest.mark.parametrize("delta", DELTAS)
def test_delta_field_at_eps_zero_is_the_family_bit_for_bit(delta):
    field = DeltaField(DeltaFamily(delta))
    for x, y in eval_points():
        values, sample, spectral = ref_family(delta, x, y)
        for got, want in zip(field.values(x, y), values):
            assert_same_bits(got, want)
        cs = field.sample(x, y)
        for got, want in zip((cs.alpha, cs.beta, cs.alpha_x, cs.alpha_y,
                              cs.beta_x, cs.beta_y), sample):
            assert_same_bits(got, want)
        assert_same_bits(field.spectral(x, y), spectral[0])


def two_pass_spectral(delta, x, y):
    """lambda of the family written part by part: Re = (y + 0.0)/(1+x),
    Im = delta/(1+x)."""
    y = np.asarray(y, dtype=float)
    inv = 1.0 / (1.0 + np.asarray(x, dtype=float))
    lam = np.empty(np.broadcast_shapes(inv.shape, y.shape), dtype=complex)
    np.multiply(y + 0.0, inv, out=lam.real)
    lam.imag = delta * inv
    return lam[()]


def test_spectral_at_eps_zero_matches_the_two_pass_construction():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coords = st.lists(st.floats(-1e296, 1e296), min_size=1, max_size=12)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(delta=st.floats(1e-200, 1e290), ys=coords,
               xs=st.lists(st.floats(X_MIN, 1e300), min_size=1, max_size=12),
               seed=st.integers(0, 2**32 - 1))
    def check(delta, xs, ys, seed):
        field = DeltaField(DeltaFamily(delta))
        # the drawn coordinates, signed and subnormal zeros, and random
        # points of every magnitude
        rng = np.random.default_rng(seed)
        ys = np.concatenate([ys, [0.0, -0.0, 5e-324, -2.2e-308],
                             rng.standard_normal(64) * 10.0 ** rng.uniform(-300, 290, 64)])
        xs = np.concatenate([xs, rng.uniform(-0.999, 3.0, 64)])
        for x, y in ((xs[None, :], ys[:, None]),
                     (np.float64(xs[0]), np.float64(ys[0]))):
            assert_same_bits(field.spectral(x, y), two_pass_spectral(delta, x, y))

    check()


@pytest.mark.parametrize("eps", (1e-3, 1e-2, 0.1))
@pytest.mark.parametrize("delta", DELTAS)
def test_delta_field_with_eps_is_the_perturbed_fixture(delta, eps):
    field = DeltaField(DeltaFamily(delta), eps)
    for x, y in eval_points():
        values, sample, (lam, _, _) = ref_perturbed(delta, eps, x, y)
        for got, want in zip(field.values(x, y), values):
            assert_same_bits(got, want)
        cs = field.sample(x, y)
        for got, want in zip((cs.alpha, cs.beta, cs.alpha_x, cs.alpha_y,
                              cs.beta_x, cs.beta_y), sample):
            assert_same_bits(got, want)
        assert_same_bits(field.spectral(x, y), lam)


@pytest.mark.parametrize("delta", DELTAS)
def test_family_transport_law_is_exactly_zero(delta):
    field = DeltaField(DeltaFamily(delta))
    for x, y in eval_points():
        r = burgers_residual(field, (x, y))
        assert np.all(r == 0.0)


def test_delta_field_rejects_bad_eps():
    fam = DeltaFamily(0.5)
    for eps in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            DeltaField(fam, eps)
    for eps in (-1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            PerturbedDeltaField(fam, eps)
    assert DeltaField(fam).eps == 0.0


def test_perturbed_delta_field_is_a_delta_field():
    fixture = PerturbedDeltaField(DeltaFamily(0.5), 0.1)
    assert isinstance(fixture, DeltaField)
    assert (fixture.delta, fixture.eps) == (0.5, 0.1)
    assert fixture.closed_form_partials


# --- each check has one home --------------------------------------------------

def table_field():  # alpha = 2, beta = 0 on the unit square
    return GridTableField([0.0, 1.0], [0.0, 1.0], np.full((2, 2), 2.0),
                          np.zeros((2, 2)))


@pytest.mark.parametrize("make", [
    lambda: DeltaField(DeltaFamily(0.5)),
    lambda: DeltaField(DeltaFamily(0.5), 0.1),
    lambda: CallableField(lambda x, y: x * 0 + 2.0, lambda x, y: y * 0),
    table_field,
])
@pytest.mark.parametrize("x,y,shape", [
    (np.empty(0), np.empty(0), (0,)),
    (np.empty((1, 0)), np.full((2, 1), 0.5), (2, 0)),
])
def test_empty_inputs_give_empty_outputs(make, x, y, shape):
    # the finite-difference sample used to raise numpy's zero-size
    # reduction ValueError from its own finiteness gate
    field = make()
    lam = field.spectral(x, y)
    for v in (*field.values(x, y), *vars(field.sample(x, y)).values(),
              *([] if lam is None else [lam])):
        # the family's partials may keep x's or y's shape
        assert np.size(v) == 0 and np.broadcast_shapes(np.shape(v), shape) == shape


def test_grid_table_axes_follow_the_readers_rule():
    table = np.ones((2, 2))
    for xs, ys in (([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0])):
        with pytest.raises(ValueError, match="^lattice coordinates must be "
                                             "strictly increasing$"):
            GridTableField(xs, ys, table, table)
    # neighbours more than the largest float apart: compared, not subtracted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = GridTableField([0.0, 1.0], [-1.6e308, 1.6e308], table, table)
    assert field.region.as_tuple() == (0.0, 1.0, -1.6e308, 1.6e308)


def test_grid_table_interpolates_a_cell_wider_than_the_largest_float():
    # the cell's width overflows; its weight is formed at half scale
    alpha = np.array([[1.0, 1.0], [3.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = GridTableField([0.0, 1.0], [-1.6e308, 1.6e308], alpha, alpha)
        assert field.values(0.5, 0.0) == (2.0, 2.0)
        a, _ = field.values(np.array([0.0, 1.0, 0.5]),
                            np.array([-1.6e308, 1.6e308, 0.8e308]))
    assert a.tolist() == [1.0, 3.0, 2.5]
    # beside a wide cell, a narrow one keeps the plain quotient, bit for bit
    ys = np.array([-1.6e308, 0.0, 0.3, 1.6e308])
    table = np.arange(8.0).reshape(4, 2) ** 2
    field = GridTableField([0.0, 1.0], ys, table, table)
    y = np.linspace(0.0, 0.3, 7)
    t = (y - 0.0) / (0.3 - 0.0)
    want = (1 - t) * ((1 - 0.25) * table[1, 0] + 0.25 * table[1, 1]) \
        + t * ((1 - 0.25) * table[2, 0] + 0.25 * table[2, 1])
    assert field.values(0.25, y)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raise_non_finite_names_the_last_node(dtype, bad):
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(-1.0, 0.0, 4)
    grid = np.ones((4, 5), dtype=dtype)
    grid[-1, -1] = bad
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        fields._raise_non_finite(xs[None, :], ys[:, None],
                                 [("one", np.ones((4, 5))), ("g", grid)])
    err = excinfo.value
    assert (err.name, err.x, err.y) == ("g", 1.0, 0.0)
    assert str(err) == f"non-finite g = {grid[-1, -1].item()!r} at (x=1.0, y=0.0)"


def test_raise_non_finite_makes_no_grid_sized_temporary():
    grid = np.linspace(0.0, 1.0, 1 << 19).reshape(512, 1024)
    tracemalloc.start()
    try:
        fields._raise_non_finite(None, None, [("a", grid), ("b", grid)])
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used < grid.size // 16  # a mask would take grid.size bytes
