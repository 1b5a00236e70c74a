import numpy as np
import pytest

from rigidpde.analysis import burgers_residual
from rigidpde.errors import DomainError, StencilOutOfDomain
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    PerturbedDeltaField,
    Point,
    Region,
    aligned_gridspec,
    grid_axes,
    grid_points,
    numeric_partials,
    write_field_csv,
)


def test_point_rejects_degenerate_half_plane():
    with pytest.raises(DomainError):
        Point(-1.5, 0.0)
    with pytest.raises(DomainError):
        Point(-1.0, 0.0)
    with pytest.raises(DomainError):
        Point(-1.0 + 1e-13, 0.0)  # inside the guard margin
    Point(-0.999, 3.0)  # fine


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
    via_point = numeric_partials(bare, Point(0.0, 0.0), h=1e-4)
    assert via_point.alpha_x == fd.alpha_x


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
    field = CallableField(lambda x, y: 1.0 + 0.0 * np.asarray(x, float),
                          lambda x, y: 0.0 * np.asarray(x, float),
                          region=Region(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(StencilOutOfDomain):
        numeric_partials(field, 0.0, 0.5, h=1e-3)
    numeric_partials(field, 0.5, 0.5, h=1e-3)  # interior is fine


def test_grid_points_unit_square_corners():
    pts = grid_points(Region(0, 1, 0, 1), GridSpec(2, 2))
    np.testing.assert_array_equal(pts, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_grid_points_reference_window_4x5():
    pts = grid_points(REFERENCE_WINDOW, GridSpec(4, 5))
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
        pts = grid_points(region, grid)
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
        CallableField(lambda x, y: x * 0 + 2.0, lambda x, y: y * 0,
                      region=Region(0.0, 1.0, 0.0, 1.0)),
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


def test_grid_table_rejects_non_finite_entries():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    alpha = np.array([[1.0, 1.0], [np.inf, 1.0]])
    with pytest.raises(ValueError):
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
    for eps in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps"):
            PerturbedDeltaField(fam, eps)
    assert DeltaField(fam).eps == 0.0


def test_perturbed_delta_field_is_a_delta_field():
    fixture = PerturbedDeltaField(DeltaFamily(0.5), 0.1)
    assert isinstance(fixture, DeltaField)
    assert (fixture.delta, fixture.eps) == (0.5, 0.1)
    assert fixture.closed_form_partials
