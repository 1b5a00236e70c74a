import re

import numpy as np
import pytest

from rigidpde.analysis import (
    TABLE_DELTAS,
    RegionScanReport,
    beltrami_coefficient,
    burgers_residual,
    condition_number,
    degeneration_table,
    discriminant,
    obstruction,
    scan_region,
    spectral_parameter,
    structure_sample,
)
from rigidpde.errors import (
    DegenerateStructure,
    DomainError,
    InvalidBranch,
    NonFiniteCoefficient,
    NotElliptic,
    StencilOutOfDomain,
)
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    CoefficientSample,
    DeltaFamily,
    DeltaField,
    GridSpec,
    GridTableField,
    PerturbedDeltaField,
    Region,
    aligned_gridspec,
)


def sample_at(delta, x, y):
    return DeltaField(DeltaFamily(delta)).sample(x, y)


def k_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-0.5, 1.0, n), rng.uniform(-1.0, 1.0, n))


# --- discriminant -----------------------------------------------------------

def test_discriminant_family_values():
    assert discriminant(sample_at(1.0, 0.0, 0.0)) == pytest.approx(4.0, rel=1e-14)
    assert discriminant(sample_at(1e-2, 1.0, 0.0)) == pytest.approx(1e-4, rel=1e-12)


def test_discriminant_parabolic_boundary():
    cs = CoefficientSample(alpha=1.0, beta=2.0, alpha_x=0.0, alpha_y=0.0,
                           beta_x=0.0, beta_y=0.0)
    with pytest.raises(NotElliptic) as excinfo:
        discriminant(cs)
    assert excinfo.value.value == 0.0


# --- spectral parameter -----------------------------------------------------

def test_spectral_parameter_purely_imaginary_at_origin():
    for delta in (1.0, 0.25, 2.0):
        lam = spectral_parameter(sample_at(delta, 0.0, 0.0))
        assert lam == pytest.approx(1j * delta, rel=1e-14)


def test_spectral_parameter_closed_form():
    x, y = k_samples(2000, seed=1)
    for delta in (1.0, 0.3):
        lam = spectral_parameter(sample_at(delta, x, y))
        np.testing.assert_allclose(lam, (y + 1j * delta) / (1.0 + x), rtol=1e-12)


def test_spectral_parameter_at_1_2():
    # independent evaluation of (y + i*delta)/(1+x) at delta=1, (1,2)
    lam = spectral_parameter(sample_at(1.0, 1.0, 2.0))
    assert lam == pytest.approx(1.0 + 0.5j, abs=1e-15)


def test_branch_invariant_upper_half_plane():
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.99, 9.0, 5000)
    y = rng.uniform(-9.0, 9.0, 5000)
    for delta in (1.0, 1e-2):
        lam = spectral_parameter(sample_at(delta, x, y))
        assert np.all(lam.imag > 0.0)
        assert np.all(np.abs(beltrami_coefficient(lam)) < 1.0)


# --- Beltrami coefficient ---------------------------------------------------

def test_beltrami_standard_structure():
    assert beltrami_coefficient(1j) == 0.0


def test_beltrami_origin_modulus():
    # |mu(0,0)| = |1 - delta| / (1 + delta)
    for delta, expect in ((0.5, 1.0 / 3.0), (1.0, 0.0), (2.0, 1.0 / 3.0)):
        lam = spectral_parameter(sample_at(delta, 0.0, 0.0))
        assert abs(beltrami_coefficient(lam)) == pytest.approx(expect, abs=1e-14)


def test_mu_squared_closed_form_identity():
    x, y = k_samples(5000, seed=3)
    rng = np.random.default_rng(4)
    deltas = rng.uniform(0.1, 2.0, 5000)
    inv = 1.0 / (1.0 + x)
    lam = (y + 1j * deltas) * inv
    mu2 = np.abs(beltrami_coefficient(lam)) ** 2
    closed = (y**2 + (deltas - 1 - x) ** 2) / (y**2 + (deltas + 1 + x) ** 2)
    np.testing.assert_allclose(mu2, closed, rtol=0, atol=1e-12)


def test_mu_squared_spec_point():
    # delta = 0.1 at (1, 1): |mu|^2 = (1 + 3.61)/(1 + 4.41)
    lam = spectral_parameter(sample_at(0.1, 1.0, 1.0))
    assert abs(beltrami_coefficient(lam)) ** 2 == pytest.approx(
        (1 + 3.61) / (1 + 4.41), rel=1e-12)


def test_beltrami_rejects_lower_half_plane():
    with pytest.raises(InvalidBranch):
        beltrami_coefficient(0.3 - 0.2j)
    with pytest.raises(InvalidBranch):
        beltrami_coefficient(1.0 + 0.0j)


@pytest.mark.parametrize("lam", [complex(np.nan, 1.0), complex(np.inf, 1.0),
                                 complex(0.5, np.nan)])
def test_beltrami_rejects_a_non_finite_lambda(lam):
    # NaN fails Im(lambda) <= 0 as well, so the branch test let it through
    with pytest.raises(NonFiniteCoefficient,
                       match=rf"^non-finite lambda = {re.escape(repr(lam))}$"):
        beltrami_coefficient(lam)
    with pytest.raises(NonFiniteCoefficient, match="lambda"):
        beltrami_coefficient(np.array([1j, lam, 2j]))


# --- condition number -------------------------------------------------------

def test_condition_number_values():
    assert condition_number(0.0) == 1.0
    assert condition_number(0.9235481) == pytest.approx(633.04, rel=1e-4)
    with pytest.raises(DegenerateStructure):
        condition_number(1.0)
    with pytest.raises(DegenerateStructure):
        condition_number(-0.1)


# --- obstruction ------------------------------------------------------------

def test_obstruction_family_vanishes_identically():
    x, y = k_samples(10**5, seed=5)
    for delta in (1.0, 1e-3, 1e-6):
        a, b = obstruction(sample_at(delta, x, y))
        assert np.abs(a).max() < 1e-10
        assert np.abs(b).max() < 1e-10


def test_obstruction_perturbed_fixture_frozen_point():
    # hand/oracle value at delta=0.5, eps=0.1, (x,y)=(0,1):
    # A = -eps*y/(delta^2 + eps*(1+x)^2) = -2/7, B = +2/7
    field = PerturbedDeltaField(DeltaFamily(0.5), eps=0.1)
    a, b = obstruction(field.sample(0.0, 1.0))
    assert a == pytest.approx(-2.0 / 7.0, rel=1e-12)
    assert b == pytest.approx(2.0 / 7.0, rel=1e-12)


def test_obstruction_constant_field_is_zero():
    cs = CoefficientSample(alpha=1.0, beta=0.0, alpha_x=0.0, alpha_y=0.0,
                           beta_x=0.0, beta_y=0.0)
    assert obstruction(cs) == (0.0, 0.0)


def test_structure_sample_bundles_consistently():
    ss = structure_sample(sample_at(0.5, 0.2, -0.7))
    assert ss.disc > 0
    assert ss.lam.imag == pytest.approx(np.sqrt(ss.disc) / 2, rel=1e-14)
    assert ss.abs_mu == pytest.approx(abs(ss.mu), rel=0)
    np.testing.assert_allclose(ss.mu, (ss.lam - 1j) / (ss.lam + 1j), rtol=1e-14)


# --- Burgers residual -------------------------------------------------------

def test_burgers_family_closed_form_is_roundoff():
    x, y = k_samples(10**4, seed=6)
    for delta in (1.0, 1e-3, 1e-6):
        r = burgers_residual(DeltaField(DeltaFamily(delta)), (x, y))
        assert np.abs(r).max() < 1e-14


def test_burgers_family_fd_small():
    field = DeltaField(DeltaFamily(1.0))
    bare = CallableField(lambda x, y: field.values(x, y)[0],
                         lambda x, y: field.values(x, y)[1])
    x, y = k_samples(500, seed=7)
    r = burgers_residual(bare, (x, y), h=1e-4)
    assert np.abs(r).max() < 1e-6


def test_burgers_fixture_matches_analytic_value():
    # residual of the perturbed fixture is i*eps/((1+x)*sqrt(delta^2/(1+x)^2+eps))
    fam = DeltaFamily(0.5)
    field = PerturbedDeltaField(fam, eps=0.1)
    x, y = k_samples(200, seed=8)
    r = burgers_residual(field, (x, y))
    btil = np.sqrt((0.5 / (1.0 + x)) ** 2 + 0.1)
    np.testing.assert_allclose(r, 1j * 0.1 / ((1.0 + x) * btil), rtol=1e-12)
    assert np.abs(r).min() > 1e-3  # bounded away from zero on the window


def test_rigidity_equivalence_of_the_two_detectors():
    # max(|A|,|B|) < tol iff |burgers residual| < tol', on both fixtures
    x, y = k_samples(2000, seed=9)
    family = DeltaField(DeltaFamily(0.5))
    broken = PerturbedDeltaField(DeltaFamily(0.5), eps=0.1)
    for field, expect_rigid in ((family, True), (broken, False)):
        a, b = obstruction(field.sample(x, y))
        ab_small = np.maximum(np.abs(a), np.abs(b)) < 1e-10
        r_small = np.abs(burgers_residual(field, (x, y))) < 1e-12
        assert np.all(ab_small == r_small)
        assert np.all(ab_small == expect_rigid)


def nan_quarter_field():
    """The family at delta = 0.1 with alpha NaN for x > 0.25, y > 0."""
    return CallableField(
        lambda x, y: np.where((x > 0.25) & (y > 0), np.nan,
                              (y * y + 1e-2) / ((1.0 + x) * (1.0 + x))),
        lambda x, y: -2.0 * y / (1.0 + x))


def test_burgers_fd_names_a_non_finite_coefficient():
    # lambda from values let NaN through: (0.5, 0.5) and (0.5, 0) gave nan+nanj
    field = nan_quarter_field()
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        burgers_residual(field, (0.5, 0.5))
    assert str(excinfo.value) == "non-finite alpha = nan at (x=0.5, y=0.5)"
    # a finite centre whose north foot is NaN: the foot is named, unchanged
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        burgers_residual(field, (0.5, 0.0))
    assert (excinfo.value.name, excinfo.value.x) == ("alpha", 0.5)
    assert excinfo.value.y == pytest.approx(1e-5, rel=1e-12)
    # array points: the first bad one in order
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        burgers_residual(field, (np.array([0.0, 0.1, 0.75, 0.5]),
                                 np.array([0.0, 0.5, 0.25, 0.5])))
    assert (excinfo.value.x, excinfo.value.y) == (0.75, 0.25)
    assert np.all(np.isfinite(burgers_residual(field, (np.array([0.0, 0.1]),
                                                       np.array([0.0, 0.5])))))


def test_burgers_fd_names_an_overflowing_lambda():
    field = CallableField(lambda x, y: x * 0 + 1e308, lambda x, y: y * 0)
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        burgers_residual(field, (0.5, 0.5))
    assert excinfo.value.name == "lambda"
    assert (excinfo.value.x, excinfo.value.y) == (0.5, 0.5)


def test_burgers_fd_not_elliptic_reaches_the_caller_with_the_point():
    # elliptic for x <= 0.5 only (disc 3 there, -0.6 beyond)
    field = CallableField(lambda x, y: np.where(x > 0.5, 0.1, 1.0),
                          lambda x, y: y * 0 + 1.0)
    with pytest.raises(NotElliptic) as excinfo:
        burgers_residual(field, (0.75, -0.25))
    assert (excinfo.value.x, excinfo.value.y) == (0.75, -0.25)
    with pytest.raises(NotElliptic) as excinfo:  # at the east foot
        burgers_residual(field, (0.5, 0.0))
    assert excinfo.value.x > 0.5


def test_burgers_fd_blames_the_centre_not_the_stencil():
    # alpha = 1, beta = 0 on the reference window
    field = GridTableField([-0.5, 1.0], [-1.0, 1.0], np.ones((2, 2)),
                           np.zeros((2, 2)))
    for p in ((2.0, 0.0), (np.nan, 0.0)):
        with pytest.raises(DomainError) as excinfo:
            burgers_residual(field, p)
        assert not isinstance(excinfo.value, StencilOutOfDomain)
    with pytest.raises(StencilOutOfDomain, match="stencil"):
        burgers_residual(field, (1.0, -0.5))  # a centre on the region's edge


def test_lambda_from_samples_names_non_finite_inputs():
    cs = CoefficientSample(alpha=np.array([1.0, np.nan]), beta=0.0,
                           alpha_x=0.0, alpha_y=0.0, beta_x=0.0, beta_y=0.0)
    for derive in (discriminant, spectral_parameter, structure_sample):
        with pytest.raises(NonFiniteCoefficient,
                           match=r"^non-finite alpha = nan$"):
            derive(cs)


# --- region scans -----------------------------------------------------------

def small_aligned(nominal=201):
    return aligned_gridspec(REFERENCE_WINDOW, nominal, nominal)


def test_scan_region_delta_one_row():
    report = scan_region(DeltaField(DeltaFamily(1.0)), REFERENCE_WINDOW,
                         small_aligned())
    assert report.inf_mu == 0.0  # attained exactly at the aligned (0,0) node
    assert report.sup_mu == pytest.approx(np.sqrt(1.25 / 3.25), rel=1e-12)
    assert report.kappa == pytest.approx(18.0, rel=0.05)
    assert report.rigid


def test_scan_region_delta_1e2_row():
    report = scan_region(DeltaField(DeltaFamily(1e-2)), REFERENCE_WINDOW,
                         small_aligned())
    assert report.inf_mu == pytest.approx(0.961, abs=2e-3)
    assert report.sup_mu == pytest.approx(0.992, abs=2e-3)
    assert report.kappa == pytest.approx(6.3e4, rel=0.05)


def test_scan_refinement_is_stable():
    field = DeltaField(DeltaFamily(0.1))
    r1 = scan_region(field, REFERENCE_WINDOW, small_aligned(201))
    r2 = scan_region(field, REFERENCE_WINDOW, small_aligned(401))
    assert abs(r1.inf_mu - r2.inf_mu) < 1e-3
    assert abs(r1.sup_mu - r2.sup_mu) < 1e-3


def test_scan_fixture_is_not_rigid():
    report = scan_region(PerturbedDeltaField(DeltaFamily(0.5), 0.1),
                         REFERENCE_WINDOW, small_aligned())
    assert not report.rigid
    assert max(report.max_abs_A, report.max_abs_B) > 1e-3


def test_scan_reports_not_elliptic_location():
    # alpha = 1, beta = 3 on the unit square
    hyper = GridTableField([0.0, 1.0], [0.0, 1.0], np.ones((2, 2)),
                           np.full((2, 2), 3.0))
    with pytest.raises(NotElliptic) as excinfo:
        scan_region(hyper, Region(0.2, 0.8, 0.2, 0.8), GridSpec(5, 5))
    assert excinfo.value.x is not None and excinfo.value.y is not None
    assert excinfo.value.value < 0


def test_compact_degeneration_monotone_in_delta():
    infs = [scan_region(DeltaField(DeltaFamily(d)), REFERENCE_WINDOW,
                        small_aligned()).inf_mu
            for d in (1.0, 0.1, 0.01, 0.001)]
    assert all(a < b for a, b in zip(infs, infs[1:]))


def test_kappa_scaling_slope():
    kappas = [scan_region(DeltaField(DeltaFamily(d)), REFERENCE_WINDOW,
                          small_aligned()).kappa
              for d in TABLE_DELTAS]
    slope = np.polyfit(np.log(TABLE_DELTAS), np.log(kappas), 1)[0]
    assert abs(slope + 2.0) < 0.1


def test_degeneration_table_rows_and_json():
    reports = degeneration_table(101, 101)
    assert [r.delta for r in reports] == list(TABLE_DELTAS)
    d = reports[0].to_dict()
    assert d["rigid"] is True
    assert d["grid"][1] == 101
    row = reports[0].to_csv_row()
    assert row.startswith("1,0,")
    assert RegionScanReport.CSV_HEADER == "delta,inf_mu,sup_mu,kappa"


def test_scan_report_invariants():
    for delta in (1.0, 1e-2):
        rep = scan_region(DeltaField(DeltaFamily(delta)), REFERENCE_WINDOW,
                          small_aligned(101))
        assert 0.0 <= rep.inf_mu <= rep.sup_mu < 1.0
        assert rep.kappa >= 1.0
        assert rep.rigid == (max(rep.max_abs_A, rep.max_abs_B) < rep.rigidity_tol)


def test_lambda_overflow_is_named_by_the_pointwise_api():
    # 4*alpha overflows: disc and Im(lambda) read inf, |mu| NaN
    cs = CoefficientSample(alpha=1e308, beta=0.0, alpha_x=0.0, alpha_y=0.0,
                           beta_x=0.0, beta_y=0.0)
    for derive in (discriminant, spectral_parameter, structure_sample):
        with pytest.raises(NonFiniteCoefficient,
                           match=r"^non-finite lambda = infj$") as excinfo:
            derive(cs)
        assert excinfo.value.name == "lambda"
        assert (excinfo.value.x, excinfo.value.y) == (None, None)


# --- the transport law G = lambda_x + lambda*lambda_y = A + lambda*B --------

def test_burgers_residual_is_a_plus_lambda_b_for_the_family_fixture():
    # G of DeltaField(family, eps) is i*eps/((1+x)*b), b = Im(lambda); it is
    # exactly 0 at eps = 0, even where disc = (2b)**2 underflows.  Subnormal
    # coordinates are left out: products of subnormals round on an absolute
    # grid, so the sample's two combinations no longer cancel exactly there
    # (|G| ~ 5e-324 at y = 2.2e-309)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ulp = np.finfo(float).eps

    @hyp.settings(max_examples=300, deadline=None, derandomize=True)
    @hyp.given(log_delta=st.floats(-12.0, 0.0),
               log_eps=st.one_of(st.none(), st.floats(-6.0, -1.0)),
               x=st.floats(REFERENCE_WINDOW.x_min, REFERENCE_WINDOW.x_max,
                           allow_subnormal=False),
               y=st.floats(REFERENCE_WINDOW.y_min, REFERENCE_WINDOW.y_max,
                           allow_subnormal=False))
    def check(log_delta, log_eps, x, y):
        eps = 0.0 if log_eps is None else 10.0 ** log_eps
        field = DeltaField(DeltaFamily(10.0 ** log_delta), eps)
        g = burgers_residual(field, (x, y))
        if eps == 0.0:
            assert g == 0.0
            return
        b = np.sqrt((field.delta / (1.0 + x)) ** 2 + eps)
        want = 1j * eps / ((1.0 + x) * b)
        alpha = field.values(x, y)[0]
        assert abs(g - want) <= 8.0 * ulp * (1.0 + alpha / eps) * abs(want)

    check()


def test_burgers_residual_is_zero_where_disc_underflows():
    field = DeltaField(DeltaFamily(1e-200))
    xs, ys = np.linspace(-0.5, 1.0, 31)[None, :], np.linspace(-1, 1, 21)[:, None]
    assert np.all((2.0 * field.spectral(xs, ys).imag) ** 2 == 0.0)
    assert np.all(burgers_residual(field, (xs, ys)) == 0.0)
