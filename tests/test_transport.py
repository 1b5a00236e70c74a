import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from rigidpde import fields
from rigidpde.analysis import spectral_lambda
from rigidpde.errors import NonFiniteCoefficient, StencilOutOfDomain
from rigidpde.fields import (
    REFERENCE_WINDOW,
    CallableField,
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    grid_axes,
    write_lattice_csv,
)
from rigidpde.transport import (
    ComplexField,
    ExpAffine,
    LambdaPower,
    Polynomial,
    RealPairField,
    characteristic_coordinate,
    field_header,
    format_complex,
    from_real_pair,
    parse_complex,
    parse_f0,
    read_complex_csv,
    read_real_pair_csv,
    solve_characteristic,
    system_residual,
    to_real_pair,
    transport_residual,
    write_complex_csv,
    write_field_header,
    write_real_pair_csv,
)

K = REFERENCE_WINDOW


def spectral(fam, x, y):
    return (y + 1j * fam.delta) / (1.0 + x)


# --- characteristic coordinate ----------------------------------------------

def test_zeta_on_initial_line_is_y():
    fam = DeltaFamily(0.7)
    ys = np.linspace(-2.0, 2.0, 41)
    zeta = characteristic_coordinate(fam, (np.zeros_like(ys), ys))
    np.testing.assert_array_equal(zeta, ys + 0j)


def test_zeta_point_value():
    assert characteristic_coordinate(DeltaFamily(1.0), (1.0, 0.0)) == -0.5j


def test_zeta_plus_i_delta_is_lambda():
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 3.0, 5000)
    y = rng.uniform(-3.0, 3.0, 5000)
    for delta in (1.0, 1e-3):
        fam = DeltaFamily(delta)
        zeta = characteristic_coordinate(fam, (x, y))
        np.testing.assert_allclose(zeta + 1j * delta, spectral(fam, x, y),
                                   rtol=0, atol=1e-14 * (1 + np.abs(y) / 0.1).max())


def test_zeta_constant_along_characteristic_curves():
    # along y = C*(1+x) the real part of zeta equals C
    fam = DeltaFamily(0.3)
    for c in (-0.75, 0.0, 0.4, 2.0):
        # power-of-two abscissas make the identity exact in floating point
        x = np.array([-0.5, 0.0, 1.0, 3.0])
        zeta = characteristic_coordinate(fam, (x, c * (1.0 + x)))
        np.testing.assert_array_equal(zeta.real, np.full_like(x, c))
        # generic abscissas agree to a few ulp
        xg = np.linspace(-0.4, 2.7, 57)
        zg = characteristic_coordinate(fam, (xg, c * (1.0 + xg)))
        np.testing.assert_allclose(zg.real, c, rtol=0, atol=1e-14 * max(1, abs(c)))


# --- initial data catalog ----------------------------------------------------

def test_polynomial_evaluate_and_derivative():
    f = Polynomial((1.0, 2.0, 3.0j))  # 1 + 2z + 3i z^2
    z = np.array([0.5 + 0.25j, -1.0 + 0j])
    value, der = f.value_and_derivative(z, 1.0)
    np.testing.assert_allclose(value, 1 + 2 * z + 3j * z**2)
    np.testing.assert_allclose(der, 2 + 6j * z)


def test_exp_affine_and_lambda_power():
    z = np.array([0.1 - 0.2j])
    f = ExpAffine(2.0, 1j)
    value, der = f.value_and_derivative(z, 0.5)
    np.testing.assert_allclose(value, np.exp(2 * z + 1j))
    np.testing.assert_allclose(der, 2 * np.exp(2 * z + 1j))
    value, der = LambdaPower(3).value_and_derivative(z, 0.5)
    np.testing.assert_allclose(value, (z + 0.5j) ** 3)
    np.testing.assert_allclose(der, 3 * (z + 0.5j) ** 2)
    assert np.all(LambdaPower(0).value_and_derivative(z, 0.5)[1] == 0)
    with pytest.raises(ValueError):
        LambdaPower(-1)


@pytest.mark.parametrize("text,expect", [
    ("3", 3 + 0j),
    ("-2.5", -2.5 + 0j),
    ("1+2i", 1 + 2j),
    ("1-2i", 1 - 2j),
    ("0.5i", 0.5j),
    ("i", 1j),
    ("-i", -1j),
    ("1e-3+2e4i", 1e-3 + 2e4j),
    ("4j", 4j),
])
def test_parse_complex(text, expect):
    assert parse_complex(text) == expect


def test_parse_complex_rejects_garbage():
    for bad in ("", "one", "1+2", "2i+1"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_initial_data_rejects_bad_descriptors():
    with pytest.raises(ValueError, match="^polynomial needs at least one coefficient$"):
        Polynomial(())
    with pytest.raises(ValueError, match=r"^exp takes c\[,d\], got '1,2,3'$"):
        parse_f0("exp:1,2,3")
    with pytest.raises(ValueError, match="^lpow takes a nonnegative integer, got 'x'$"):
        parse_f0("lpow:x")


def test_f0_descriptor_roundtrip():
    for f in (Polynomial((3.0,)), Polynomial((1 + 2j, -0.5j)),
              ExpAffine(1.0, 1j), LambdaPower(2)):
        assert parse_f0(f.descriptor()) == f
    assert parse_f0("exp:1") == ExpAffine(1.0, 0j)
    with pytest.raises(ValueError):
        parse_f0("nope:1")
    with pytest.raises(ValueError):
        parse_f0("poly")
    assert format_complex(1 - 0.5j) == "1.0-0.5i"


# --- characteristic solve -----------------------------------------------------

def test_solve_exp_affine_gives_exp_lambda():
    # f0(z) = exp(z + i*delta) transports to exp(lambda)
    fam = DeltaFamily(1.0)
    w = solve_characteristic(fam, ExpAffine(1.0, 1j * fam.delta), K,
                             GridSpec(65, 65))
    X, Y = np.meshgrid(w.xs, w.ys)
    np.testing.assert_allclose(w.values, np.exp(spectral(fam, X, Y)), rtol=1e-13)


def test_solve_constant_polynomial():
    fam = DeltaFamily(0.2)
    c = 3.0 - 1.5j
    w = solve_characteristic(fam, Polynomial((c,)), K, GridSpec(17, 9))
    assert np.all(w.values == c)


def test_solve_lambda_power_is_lambda_squared():
    fam = DeltaFamily(0.5)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(33, 33))
    X, Y = np.meshgrid(w.xs, w.ys)
    np.testing.assert_allclose(w.values, spectral(fam, X, Y) ** 2, rtol=1e-13)


def test_solve_initial_trace_is_exact():
    # nx = 7 places x = 0 on the grid; the trace there is f0(y) bit-exactly
    fam = DeltaFamily(0.9)
    f0 = ExpAffine(0.5, 0.25j)
    w = solve_characteristic(fam, f0, K, GridSpec(7, 23))
    ix = int(np.where(w.xs == 0.0)[0][0])
    np.testing.assert_array_equal(w.values[:, ix],
                                  f0.value_and_derivative(w.ys + 0j, fam.delta)[0])


def test_solve_metadata_records_choices():
    fam = DeltaFamily(1.0)
    w = solve_characteristic(fam, LambdaPower(1), K, GridSpec(5, 5))
    assert w.meta["delta"] == 1.0
    assert w.meta["f0"] == "lpow:1"
    assert w.meta["initial_line"] == "x=0"
    assert "full-rectangle" in w.meta["evaluation"]


def test_solve_cost_is_one_evaluation_regardless_of_delta(monkeypatch):
    calls = []

    class Counting(LambdaPower):
        def value_and_derivative(self, z, delta):
            calls.append(delta)
            return super().value_and_derivative(z, delta)

    for delta in (1.0, 1e-10):
        n0 = len(calls)
        solve_characteristic(DeltaFamily(delta), Counting(2), K, GridSpec(9, 9))
        assert len(calls) - n0 == 1

    # exp profiles take their derivative from the value: one exp per solve
    exps = []
    np_exp = np.exp

    def counting_exp(*args, **kwargs):
        exps.append(args[0].shape)
        return np_exp(*args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    for delta in (1.0, 1e-10):
        n0 = len(exps)
        solve_characteristic(DeltaFamily(delta), ExpAffine(0.5 + 0.5j, 0.1j), K,
                             GridSpec(9, 7))
        assert exps[n0:] == [(7, 9)]


# --- spectral identification --------------------------------------------------

def test_to_real_pair_of_lambda_squared_is_minus_coefficients():
    for delta in (1.0, 0.1, 0.01):
        fam = DeltaFamily(delta)
        w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(257, 257))
        uv = to_real_pair(fam, w)
        alpha, beta = DeltaField(fam).values(*np.meshgrid(uv.xs, uv.ys))
        assert np.abs(uv.u + alpha).max() < 1e-12
        assert np.abs(uv.v + beta).max() < 1e-12


def test_real_w_maps_to_vanishing_v():
    fam = DeltaFamily(0.5)
    xs, ys = grid_axes(K, GridSpec(11, 13))
    vals = np.outer(ys, np.ones_like(xs)) + 2.0 + 0j
    w = ComplexField(xs, ys, vals)
    uv = to_real_pair(fam, w)
    assert np.all(uv.v == 0.0)
    np.testing.assert_array_equal(uv.u, vals.real)
    # and back: v = 0 pins w = u
    w2 = from_real_pair(fam, uv)
    np.testing.assert_array_equal(w2.values, vals)


def test_roundtrips_are_identity():
    rng = np.random.default_rng(1)
    xs, ys = grid_axes(K, GridSpec(41, 37))
    for delta in (1.0, 1e-4, 1e-10):
        fam = DeltaFamily(delta)
        # real pair -> w -> real pair
        u = rng.standard_normal((ys.size, xs.size))
        v = rng.standard_normal((ys.size, xs.size))
        uv = RealPairField(xs, ys, u, v)
        back = to_real_pair(fam, from_real_pair(fam, uv))
        assert np.abs(back.u - u).max() < 1e-12
        assert np.abs(back.v - v).max() < 1e-12
        # solution field -> real pair -> w
        for f0 in (LambdaPower(2), ExpAffine(1.0, 1j * delta),
                   Polynomial((0.3, -1.0, 0.25))):
            w = solve_characteristic(fam, f0, K, GridSpec(41, 37))
            w2 = from_real_pair(fam, to_real_pair(fam, w))
            assert np.abs(w2.values - w.values).max() < 1e-12
        # data with an O(1) imaginary trace pushes the intermediate pair
        # to O(1/delta); the identity then holds at that scale
        w = solve_characteristic(fam, Polynomial((0.3, -1j, 0.25)),
                                 K, GridSpec(41, 37))
        uv = to_real_pair(fam, w)
        scale = max(1.0, np.abs(uv.u).max(), np.abs(uv.v).max())
        w2 = from_real_pair(fam, uv)
        assert np.abs(w2.values - w.values).max() < 1e-12 * scale


def test_non_finite_grids_name_the_grid_and_first_node():
    xs, ys = np.array([0.0, 0.5, 1.0]), np.array([-1.0, 1.0])
    u, v = np.zeros((2, 3)), np.zeros((2, 3))
    u[1, 0] = np.inf
    v[0, 2] = np.nan  # earlier in row-major order than u's entry
    with pytest.raises(NonFiniteCoefficient,
                       match=r"^non-finite v = nan at \(x=1\.0, y=-1\.0\)$"):
        RealPairField(xs, ys, u, v)
    with pytest.raises(NonFiniteCoefficient,
                       match=r"^non-finite u = inf at \(x=0\.0, y=1\.0\)$"):
        RealPairField(xs, ys, u, np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^non-finite w = infj at "
                       r"\(x=0\.5, y=1\.0\)$"):
        ComplexField(xs, ys, np.array([[0, 0, 0], [0, complex(0, np.inf), 0]]))


# --- residuals ----------------------------------------------------------------

def coefficient_pair(fam, grid):
    """The explicit solution pair (u, v) = (-alpha, -beta) with closed-form
    partial grids."""
    xs, ys = grid_axes(K, grid)
    cs = DeltaField(fam).sample(*np.meshgrid(xs, ys))
    return RealPairField(xs, ys, -cs.alpha, -cs.beta,
                         partials=(-cs.alpha_x, -cs.alpha_y,
                                   -cs.beta_x, -cs.beta_y))


def test_solution_grids_must_match_the_axes():
    xs, ys = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 2)
    with pytest.raises(ValueError, match=r"^grid shapes \(3, 3\) do not match \(2, 3\)$"):
        ComplexField(xs, ys, np.zeros((3, 3)))
    with pytest.raises(ValueError,
                       match=r"^grid shapes \(2, 3\)/\(3, 2\) do not match \(2, 3\)$"):
        RealPairField(xs, ys, np.zeros((2, 3)), np.zeros((3, 2)))


def test_partial_grids_must_match_the_axes():
    # unchecked, a partial grid of one row would be broadcast over every
    # row of a residual, and three or scalar partials would fail to unpack;
    # shapes are checked, values are not
    fam = DeltaFamily(0.5)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(5, 4))
    xs, ys, grid, row = w.xs, w.ys, np.zeros((4, 5)), np.zeros((1, 5))
    with pytest.raises(ValueError,
                       match=r"^grid shapes \(4, 5\)/\(1, 5\) do not match \(4, 5\)$"):
        ComplexField(xs, ys, w.values, wx=w.wx, wy=w.wy[:1])
    with pytest.raises(ValueError,
                       match=r"^grid shapes \(1, 5\) do not match \(4, 5\)$"):
        ComplexField(xs, ys, w.values, wx=w.wx[:1])
    four = r"\(4, 5\)/\(4, 5\)/\(4, 5\)/\(4, 5\)"
    for partials, got in [((grid, row, grid, grid), r"\(4, 5\)/\(1, 5\)/\(4, 5\)/\(4, 5\)"),
                          ((grid,) * 3, r"\(4, 5\)/\(4, 5\)/\(4, 5\)"),
                          ((grid,) * 5, four + r"/\(4, 5\)"),
                          (0.0, r"\(\)")]:
        with pytest.raises(ValueError, match=rf"^grid shapes {got} do not match {four}$"):
            RealPairField(xs, ys, grid, grid, partials=partials)
    # NaN partials build, and reach the maxima
    nan = np.full((4, 5), np.nan)
    pair = RealPairField(xs, ys, grid, grid, partials=[grid, grid, grid, nan])
    rep = system_residual(DeltaField(fam), pair, mode="analytic")
    assert np.isnan(rep.max_r1) and np.isnan(rep.max_r2)
    rep = transport_residual(DeltaField(fam),
                             ComplexField(xs, ys, w.values, wx=w.wx, wy=nan + 0j),
                             mode="analytic")
    assert np.isnan(rep.max_r1)


def test_residuals_reject_what_they_cannot_difference():
    fam = DeltaFamily(0.5)
    field = DeltaField(fam)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(9, 7))
    uv = to_real_pair(fam, w)
    bare = RealPairField(uv.xs, uv.ys, uv.u, uv.v)
    with pytest.raises(ValueError, match="^analytic mode needs a field carrying partial grids$"):
        system_residual(field, bare, mode="analytic")
    with pytest.raises(ValueError, match="^analytic mode needs a field carrying partial grids$"):
        transport_residual(field, ComplexField(w.xs, w.ys, w.values), mode="analytic")
    with pytest.raises(ValueError, match="^mode must be 'fd' or 'analytic', got 'spectral'$"):
        system_residual(field, uv, mode="spectral")
    xs = uv.xs.copy()
    xs[4] += 0.01 * (xs[1] - xs[0])
    with pytest.raises(ValueError, match="^finite differences require a uniformly spaced grid$"):
        system_residual(field, RealPairField(xs, uv.ys, uv.u, uv.v), mode="fd")
    for nx, ny in ((2, 7), (9, 2)):
        thin = solve_characteristic(fam, LambdaPower(2), K, GridSpec(nx, ny))
        with pytest.raises(StencilOutOfDomain, match=(
                rf"^grid \({ny}, {nx}\) too small for a stride \(1, 1\) stencil$")):
            transport_residual(field, thin, mode="fd")


def test_explicit_pair_analytic_residual_vanishes():
    for delta in (1.0, 0.01):
        fam = DeltaFamily(delta)
        uv = coefficient_pair(fam, GridSpec(65, 65))
        rep = system_residual(DeltaField(fam), uv, mode="analytic")
        assert rep.max_residual < 1e-12
        assert rep.mode == "analytic"


def test_constant_pair_fd_residual_is_zero():
    fam = DeltaFamily(1.0)
    xs, ys = grid_axes(K, GridSpec(21, 21))
    uv = RealPairField(xs, ys, np.full((21, 21), 2.5), np.zeros((21, 21)))
    rep = system_residual(DeltaField(fam), uv, mode="fd")
    assert rep.max_r1 == 0.0 and rep.max_r2 == 0.0
    assert rep.mode == "fd"  # one stencil rim excluded


def _shared_interior_max(values_by_level):
    """Max |residual| over the interior nodes of the coarsest grid, for a
    node-doubling refinement sequence."""
    out = []
    ny0, nx0 = values_by_level[0].shape
    for lev, r in enumerate(values_by_level):
        st = 2**lev
        out.append(np.abs(r[st - 1::st, st - 1::st][:ny0, :nx0]).max())
    return out


def test_system_residual_fd_second_order():
    fam = DeltaFamily(1.0)
    field = DeltaField(fam)
    grids = [GridSpec(151, 201), GridSpec(301, 401), GridSpec(601, 801)]
    rs = []
    for g in grids:
        w = solve_characteristic(fam, LambdaPower(3), K, g)
        uv = to_real_pair(fam, w)
        rep = system_residual(field, uv, mode="fd")
        rs.append(np.maximum(np.abs(rep.r1), np.abs(rep.r2)))
    maxima = _shared_interior_max(rs)
    slope = np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(maxima), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_transport_residual_exp_solution():
    fam = DeltaFamily(1.0)
    w = solve_characteristic(fam, ExpAffine(1.0, 1j), K, GridSpec(129, 129))
    analytic = transport_residual(DeltaField(fam), w, mode="analytic")
    assert analytic.max_r1 < 1e-12
    assert analytic.max_residual == analytic.max_r1
    assert analytic.r2 is None and analytic.relative is None
    fd = transport_residual(DeltaField(fam), w, mode="fd")
    hx = w.xs[1] - w.xs[0]
    # second-order truncation; the constant ~600 is set by the third
    # derivatives of exp(lambda) near the x = -0.5 edge
    assert fd.max_r1 < 1e3 * hx**2
    w2 = solve_characteristic(fam, ExpAffine(1.0, 1j), K, GridSpec(257, 257))
    ratio = fd.max_r1 / transport_residual(DeltaField(fam), w2, mode="fd").max_r1
    assert 3.0 < ratio < 5.0  # halving h quarters the residual


def test_transport_residual_constant_is_zero():
    fam = DeltaFamily(0.5)
    xs, ys = grid_axes(K, GridSpec(9, 9))
    w = ComplexField(xs, ys, np.full((9, 9), 1.0 - 2.0j))
    assert np.all(transport_residual(DeltaField(fam), w, mode="fd").r1 == 0.0)


def test_relative_residuals_divide_by_the_cancelled_terms():
    fam = DeltaFamily(1e-4)
    field = DeltaField(fam)
    w = solve_characteristic(fam, parse_f0("exp:0.5-0.5i,0"), K, GridSpec(65, 65))
    uv = to_real_pair(fam, w)
    rep = system_residual(field, uv, mode="fd")
    ux, uy = np.gradient(uv.u, uv.ys, uv.xs)[::-1]
    vx, vy = np.gradient(uv.v, uv.ys, uv.xs)[::-1]
    alpha, beta = field.values(uv.xs[None, :], uv.ys[:, None])
    inner = (slice(1, -1), slice(1, -1))
    scale_r1 = max(np.abs(ux[inner]).max(), np.abs((alpha * vy)[inner]).max())
    scale_r2 = max(np.abs(vx[inner]).max(), np.abs(uy[inner]).max(),
                   np.abs((beta * vy)[inner]).max())
    assert rep.max_r1 > 1.0 and rep.relative < 1e-2
    assert rep.relative == pytest.approx(max(rep.max_r1 / scale_r1,
                                             rep.max_r2 / scale_r2), rel=1e-12)
    assert system_residual(field, uv, mode="analytic").relative is None
    res = transport_residual(field, w)
    wx = np.gradient(w.values, w.xs, axis=1)[inner]
    assert res.relative == pytest.approx(
        np.abs(res.r1).max() / max(np.abs(wx).max(), np.abs(res.r1 - wx).max()),
        rel=1e-12)
    assert 0.0 < res.relative < 1e-2
    # u := 0 leaves r1 = -alpha*v_y, and v := 0 leaves r1 = u_x: all of
    # the term each cancels, so the relative residual is 1
    u = uv.u.copy()
    uv.u[:] = 0.0
    assert system_residual(field, uv).relative == 1.0
    uv.u[:], uv.v[:] = u, 0.0
    assert system_residual(field, uv).relative == 1.0
    # u := 0, v := x leaves r1 = 0 and r2 = v_x
    uv.u[:], uv.v[:] = 0.0, uv.xs[None, :]
    assert system_residual(field, uv).relative == 1.0
    # w := y leaves w_x + lambda*w_y = lambda*w_y
    y_only = ComplexField(w.xs, w.ys, np.broadcast_to(w.ys[:, None] + 0j,
                                                      w.values.shape))
    assert transport_residual(field, y_only).relative == 1.0
    # lpow:1 is u = 0, v = 1: its partials are all rounding noise, which
    # the rounding floor of each term keeps from reading as relative ~1
    fam = DeltaFamily(0.1)
    w1 = solve_characteristic(fam, parse_f0("lpow:1"), K, GridSpec(257, 257))
    rep1 = system_residual(DeltaField(fam), to_real_pair(fam, w1))
    assert 0.0 < rep1.max_residual < 1e-12 and rep1.relative < 1e-2
    # an exact zero residual is relative 0, even when its terms are all 0
    for u0 in (2.5, 0.0):
        const = RealPairField(uv.xs, uv.ys, np.full_like(uv.u, u0),
                              np.zeros_like(uv.v))
        assert system_residual(field, const).relative == 0.0
    for w0 in (1.0 - 2.0j, 0.0):
        flat = ComplexField(w.xs, w.ys, np.full_like(w.values, w0))
        assert transport_residual(field, flat).relative == 0.0
    # a NaN in the data makes the relative residual NaN, which no
    # threshold passes
    uv.u[5, 5] = np.nan
    assert np.isnan(system_residual(field, uv).relative)
    flat.values[5, 5] = np.nan
    assert np.isnan(transport_residual(field, flat).relative)


@pytest.mark.parametrize("shift", [1e3, 1e9])
def test_relative_residuals_ignore_a_constant_shift(shift):
    # adding a constant leaves every residual and every cancelled term
    # unchanged, so a non-solution stays relative 1-ish however large it is
    fam = DeltaFamily(1.0)
    field = DeltaField(fam)
    w = solve_characteristic(fam, parse_f0("lpow:2"), K, GridSpec(257, 257))
    uv = to_real_pair(fam, w)
    for u, v in ((uv.u, np.zeros_like(uv.v)), (uv.u, np.full_like(uv.v, shift)),
                 (uv.u + shift, np.zeros_like(uv.v))):
        bad = RealPairField(uv.xs, uv.ys, u, v)
        assert system_residual(field, bad).relative > 0.5
    # conj(lambda**2) fails the transport law at every node
    for c in (0.0, shift, 1j * shift):
        bad = ComplexField(w.xs, w.ys, np.conj(w.values) + c)
        assert transport_residual(field, bad).relative > 0.5


def test_transport_residual_detects_non_solution():
    # conj(lambda) fails transport: residual = 2*i*delta/(1+x)**2
    fam = DeltaFamily(1.0)
    xs, ys = grid_axes(K, GridSpec(199, 201))  # x = 0 lands on a node
    X, Y = np.meshgrid(xs, ys)
    w = ComplexField(xs, ys, np.conj(spectral(fam, X, Y)))
    res = transport_residual(DeltaField(fam), w, mode="fd").r1
    Xi = X[1:-1, 1:-1]
    np.testing.assert_allclose(res, 2j * fam.delta / (1.0 + Xi) ** 2,
                               rtol=2e-3)
    # frozen value at the origin node
    j, i = res.shape[0] // 2, np.argmin(np.abs(Xi[0]))
    assert abs(res[j, i] - 2j) < 1e-3


def test_equivalence_both_directions():
    fam = DeltaFamily(0.5)
    field = DeltaField(fam)
    for f0 in (LambdaPower(2), ExpAffine(1.0, 0.5j)):
        w = solve_characteristic(fam, f0, K, GridSpec(201, 201))
        uv = to_real_pair(fam, w)
        hx = w.xs[1] - w.xs[0]
        assert system_residual(field, uv, mode="fd").max_residual < 2e3 * hx**2
        # analytic partials propagate through the identification
        assert system_residual(field, uv, mode="analytic").max_residual < 1e-12
        w2 = from_real_pair(fam, uv)
        res = transport_residual(field, w2, mode="fd")
        assert res.max_r1 < 2e3 * hx**2


# --- reference: the full-meshgrid formulas -------------------------------------
# The kernels work on broadcast axes and build their grids in place; these
# are the meshgrid formulas they replaced, kept as the reference.  Real
# arithmetic is unchanged, so w, u and v must match bit for bit (signbit
# included).  NumPy rounds an in-place complex product differently from
# an out-of-place one, so the other grids are held to 4 ulps of their
# largest entry, compared kernel by kernel on identical inputs (chained,
# the ulp moves in wx are amplified by 1/delta in the cancelling vx).

def ref_solve(fam, f0, region, grid):
    xs, ys = grid_axes(region, grid)
    X, Y = np.meshgrid(xs, ys)
    inv = 1.0 / (1.0 + X)
    zeta = (Y - 1j * fam.delta * X) * inv
    w, df = f0.value_and_derivative(zeta, fam.delta)
    w, df = np.asarray(w, dtype=complex), np.asarray(df, dtype=complex)
    lam = (Y + 1j * fam.delta) * inv
    return ComplexField(xs, ys, w, wx=df * (-(lam * inv)), wy=df * inv)


def ref_lambda_parts(fam, xs, ys):
    X, Y = np.meshgrid(xs, ys)
    inv = 1.0 / (1.0 + X)
    return X, Y, inv, Y * inv, fam.delta * inv  # X, Y, inv, a, b


def ref_to_real_pair(fam, w):
    X, Y, inv, a, b = ref_lambda_parts(fam, w.xs, w.ys)
    p, q = w.values.real, w.values.imag
    ratio = a / b
    px, qx = w.wx.real, w.wx.imag
    py, qy = w.wy.real, w.wy.imag
    inv_delta = 1.0 / fam.delta
    partials = (px - ratio * qx,
                py - q * inv_delta - ratio * qy,
                (q + (1.0 + X) * qx) * inv_delta,
                (1.0 + X) * qy * inv_delta)
    return RealPairField(w.xs, w.ys, p - ratio * q, q / b, partials=partials)


def ref_from_real_pair(fam, uv):
    X, Y, inv, a, b = ref_lambda_parts(fam, uv.xs, uv.ys)
    return ComplexField(uv.xs, uv.ys, (uv.u + a * uv.v) + 1j * (b * uv.v))


def partial_grids(uv):
    """Whole (ux, uy, vx, vy) grids of a pair, assembled from the rows its
    ``partials`` gives for each block of fields.row_blocks (on the pool,
    as the analytic residual asks for them)."""
    blocks = fields.map_row_blocks(uv.xs.size, uv.ys.size, uv.partials)
    return [np.concatenate(rows) for rows in zip(*blocks)]


def ref_system_residual(field, xs, ys, ux, uy, vx, vy):
    alpha, beta = field.values(*np.meshgrid(xs, ys))
    return ux - alpha * vy, vx + uy - beta * vy


def ref_lambda(fam, xs, ys):
    X, Y = np.meshgrid(xs, ys)
    return (Y + 1j * fam.delta) / (1.0 + X)


def assert_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(np.ascontiguousarray(a).view(np.uint64),
                                  np.ascontiguousarray(b).view(np.uint64))


def assert_ulps(a, b, n=4, scale=None):
    scale = np.abs(b).max() if scale is None else scale
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= n * np.spacing(scale)


REF_F0 = ("poly:0.3,-1i,0.25", "poly:1.5-2i", "exp:0.5+0.5i,0.1-0.2i", "exp:1",
          "lpow:3", "lpow:0")


def central(f, hx, hy):
    """Interior central differences (stride 1) of a grid."""
    return ((f[1:-1, 2:] - f[1:-1, :-2]) / (2.0 * hx),
            (f[2:, 1:-1] - f[:-2, 1:-1]) / (2.0 * hy))


def check_against_reference(fam, f0, region, grid):
    field = DeltaField(fam)
    w = solve_characteristic(fam, f0, region, grid)
    w_ref = ref_solve(fam, f0, region, grid)
    assert_bits(w.values, w_ref.values)
    assert_ulps(w.wx, w_ref.wx)
    assert_ulps(w.wy, w_ref.wy)

    uv = to_real_pair(fam, w)
    chained = ref_to_real_pair(fam, w_ref)
    assert_bits(uv.u, chained.u)
    assert_bits(uv.v, chained.v)
    uv_ref = ref_to_real_pair(fam, w)
    for got, want in zip(partial_grids(uv), partial_grids(uv_ref),
                         strict=True):
        assert_ulps(got, want)

    w2 = from_real_pair(fam, uv)
    w2_ref = ref_from_real_pair(fam, uv)
    # equal values; the reference's 1j*(b*v) can flip the sign of a zero
    np.testing.assert_array_equal(w2.values, w2_ref.values)

    rep = system_residual(field, uv, mode="analytic")
    r1, r2 = ref_system_residual(field, uv.xs, uv.ys, *partial_grids(uv))
    assert_ulps(rep.r1, r1)
    assert_ulps(rep.r2, r2)
    assert rep.max_r1 == np.abs(r1).max() and rep.max_r2 == np.abs(r2).max()
    # the transport residual cancels; its rounding is on the scale of its terms
    res = transport_residual(DeltaField(fam), w, mode="analytic").r1
    assert_ulps(res, w.wx + ref_lambda(fam, w.xs, w.ys) * w.wy,
                scale=np.abs(w.wx).max())

    if min(grid.nx, grid.ny) >= 3:
        rep = system_residual(field, uv, mode="fd")
        ux, uy = central(uv.u, rep.hx, rep.hy)
        vx, vy = central(uv.v, rep.hx, rep.hy)
        r1, r2 = ref_system_residual(field, uv.xs[1:-1], uv.ys[1:-1],
                                     ux, uy, vx, vy)
        assert_ulps(rep.r1, r1)
        assert_ulps(rep.r2, r2)
        wx, wy = central(w.values, rep.hx, rep.hy)
        xi, yi = w.xs[1:-1], w.ys[1:-1]
        res = transport_residual(DeltaField(fam), w, mode="fd").r1
        assert_ulps(res, wx + ref_lambda(fam, xi, yi) * wy,
                    scale=np.abs(wx).max())
        res = transport_residual(field, w).r1
        lam = field.spectral(*np.meshgrid(xi, yi))
        assert_ulps(res, wx + lam * wy, scale=np.abs(wx).max())


def test_transport_residual_takes_lambda_from_any_field():
    # a field without closed-form lambda, NaN for x > 0.25, y > 0
    field = CallableField(
        lambda x, y: np.where((x > 0.25) & (y > 0), np.nan,
                              (y * y + 1e-2) / ((1.0 + x) * (1.0 + x))),
        lambda x, y: -2.0 * y / (1.0 + x))
    xs, ys = np.linspace(0.0, 1.0, 11), np.linspace(-0.5, 0.5, 11)
    w = ComplexField(xs, ys, np.full((11, 11), 1.0 - 2.0j))
    with pytest.raises(NonFiniteCoefficient) as excinfo:
        transport_residual(field, w)
    # the first interior node in row-major order with x > 0.25, y > 0
    assert (excinfo.value.name, excinfo.value.x, excinfo.value.y) == \
        ("alpha", xs[3], ys[6])
    w = ComplexField(xs[:4], ys, np.full((11, 4), 1.0 - 2.0j))
    assert np.all(transport_residual(field, w).r1 == 0.0)


@pytest.mark.parametrize("region,grid", [
    (K, GridSpec(7, 23)),                                   # aligned: 0 on both axes
    (K, GridSpec(65, 65)),
    (K, GridSpec(64, 63)),                                  # unaligned
    (Region(-0.3, 2.7, -1.3, 0.9), GridSpec(41, 29)),
])
@pytest.mark.parametrize("delta", [1.0, 0.3, 1e-3, 1e-6, 1e-10, 1e-12])
def test_kernels_match_meshgrid_reference(region, grid, delta):
    for f0 in REF_F0:
        check_against_reference(DeltaFamily(delta), parse_f0(f0), region, grid)


def test_kernels_match_meshgrid_reference_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(nx=st.integers(2, 48), ny=st.integers(2, 48),
               log_delta=st.floats(-12.0, 0.0), f0=st.sampled_from(REF_F0),
               x0=st.floats(-0.9, 1.0), y0=st.floats(-2.0, 1.0))
    def check(nx, ny, log_delta, f0, x0, y0):
        check_against_reference(DeltaFamily(10.0 ** log_delta), parse_f0(f0),
                                Region(x0, x0 + 1.5, y0, y0 + 2.0),
                                GridSpec(nx, ny))

    check()


# --- row blocks ---------------------------------------------------------------
# The kernels work through the grid in blocks of fields.chunk_rows rows.
# Every operation is pointwise and the maxima are exact, so no output may
# depend on the block size, down to the sign of a zero.

def in_blocks(rows, nx, fn, *args, **kwargs):
    """fn(*args, **kwargs) with blocks of ``rows`` rows of a grid nx wide."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "SCAN_CHUNK_NODES", rows * nx)
        return fn(*args, **kwargs)


def pipeline(fam, f0, region, grid):
    """Grids and residual maxima of solve -> (u, v) -> w -> residuals."""
    field = DeltaField(fam)
    w = solve_characteristic(fam, f0, region, grid)
    uv = to_real_pair(fam, w)
    w2 = from_real_pair(fam, uv)
    rep = system_residual(field, uv, mode="analytic")
    fd = system_residual(field, uv, mode="fd")
    tr = transport_residual(field, w, mode="analytic")
    tr_fd = transport_residual(field, w2, mode="fd")
    grids = [w.values, w.wx, w.wy, uv.u, uv.v, *partial_grids(uv), w2.values,
             rep.r1, rep.r2, fd.r1, fd.r2, tr.r1, tr_fd.r1]
    return grids, (rep.max_r1, rep.max_r2, fd.max_r1, fd.max_r2, fd.relative,
                   tr.max_r1, tr_fd.max_r1, tr_fd.relative)


def check_block_invariance(fam, f0, region, grid, rows):
    grids, maxima = in_blocks(rows, grid.nx, pipeline, fam, f0, region, grid)
    whole, whole_maxima = in_blocks(grid.ny, grid.nx, pipeline, fam, f0,
                                    region, grid)
    for got, want in zip(grids, whole):
        assert_bits(got, want)
    assert repr(maxima) == repr(whole_maxima)  # repr tells NaN and -0.0


@pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-10])
def test_kernels_independent_of_block_size(delta):
    grid = GridSpec(13, 10)  # 3-row blocks leave a last block of one row
    for f0 in REF_F0:
        for rows in range(1, grid.ny + 1):
            check_block_invariance(DeltaFamily(delta), parse_f0(f0), K, grid,
                                   rows)


def test_kernels_independent_of_block_size_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(nx=st.integers(3, 40), ny=st.integers(3, 40),
               log_delta=st.floats(-12.0, 0.0), f0=st.sampled_from(REF_F0),
               data=st.data())
    def check(nx, ny, log_delta, f0, data):
        rows = data.draw(st.integers(1, ny), label="rows")
        check_block_invariance(DeltaFamily(10.0 ** log_delta), parse_f0(f0),
                               K, GridSpec(nx, ny), rows)

    check()


def test_residual_maxima_keep_nan_across_blocks():
    fam = DeltaFamily(0.5)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(7, 9))
    uv = to_real_pair(fam, w)  # its partials read w's wx, wy when asked
    qy = w.wy.imag[4, 2]
    w.wy.imag[4, 2] = np.nan  # v_y (and u_y) in row 4; finite rows follow it
    for rows in (1, 2, 4, 9):
        rep = in_blocks(rows, 7, system_residual, DeltaField(fam), uv,
                        mode="analytic")
        assert np.isnan(rep.max_r1) and np.isnan(rep.max_r2)
        rep = in_blocks(rows, 7, transport_residual, DeltaField(fam), w,
                        mode="analytic")
        assert np.isnan(rep.max_r1) and np.isnan(rep.max_residual)
    # in fd mode, a NaN v in row 4 reaches both residuals through v_y
    uv.v[4, 2] = np.nan
    for rows in (1, 2, 4, 7):
        rep = in_blocks(rows, 5, system_residual, DeltaField(fam), uv, mode="fd")
        assert np.isnan(rep.max_r1) and np.isnan(rep.max_r2)
        assert np.isnan(rep.relative)
    # a NaN w_y.real reaches u_y only: r1 stays finite and r2 is NaN,
    # which max_residual keeps
    w.wy.imag[4, 2] = qy
    w.wy.real[4, 2] = np.nan
    rep = system_residual(DeltaField(fam), uv, mode="analytic")
    assert np.isfinite(rep.max_r1) and np.isnan(rep.max_residual)


# --- blocks on every CPU --------------------------------------------------------
# From two blocks up, fields.map_row_blocks shares the blocks between
# the calling thread and a pool.  The tests pin the worker
# count, so they take the same path on any machine.

def on_threads(workers, rows, nx, fn, *args, **kwargs):
    """fn(*args, **kwargs) with ``workers`` workers and ``rows``-row blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_WORKERS", workers)
        return in_blocks(rows, nx, fn, *args, **kwargs)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_row_blocks_returns_blocks_in_order(workers):
    def block(s):
        time.sleep(1e-2)  # long enough for every thread to take some
        return s, threading.get_ident()

    for ny in (1, 2, 3, 40):
        got = on_threads(workers, 1, 5, fields.map_row_blocks, 5, ny, block)
        assert [s for s, _ in got] == [slice(a, a + 1) for a in range(ny)]
        threads = {ident for _, ident in got}
        if workers == 1 or ny == 1:  # the serial loop
            assert threads == {threading.get_ident()}
        else:
            assert threading.get_ident() in threads and len(threads) > 1


@pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-10])
def test_kernels_on_threads_match_the_serial_loop(delta):
    grid = GridSpec(129, 48)
    for f0 in REF_F0:
        for rows in (1, 3):
            args = (DeltaFamily(delta), parse_f0(f0), K, grid)
            grids, maxima = on_threads(2, rows, grid.nx, pipeline, *args)
            serial, serial_maxima = on_threads(1, rows, grid.nx, pipeline, *args)
            for got, want in zip(grids, serial):
                assert_bits(got, want)
            assert repr(maxima) == repr(serial_maxima)


def test_first_failed_block_raises_on_threads():
    # alpha is NaN on two rows; the earlier one is slow, so the later one
    # fails first on the other thread, and the earlier one's error wins
    fam = DeltaFamily(0.5)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(9, 40))
    slow, late = w.ys[30], w.ys[35]
    failed = []

    def alpha(x, y):
        a = np.ones(np.broadcast(x, y).shape)
        for bad in (slow, late):
            if np.any(y == bad):
                if bad == slow:
                    time.sleep(0.2)
                failed.append(bad)
                a[np.broadcast_to(y == bad, a.shape)] = np.nan
        return a

    field = CallableField(alpha, lambda x, y: 0.0 * x * y)
    errors = []
    for workers in (1, 2):
        failed.clear()
        with pytest.raises(NonFiniteCoefficient) as excinfo:
            on_threads(workers, 1, 9, transport_residual, field, w,
                       mode="analytic")
        errors.append(str(excinfo.value))
        assert failed[-1] == slow
    assert failed == [late, slow]  # on threads the late row failed first
    assert errors[1] == errors[0]
    assert errors[0] == \
        f"non-finite alpha = nan at (x={float(w.xs[0])!r}, y={float(slow)!r})"


class SlowRows(np.ndarray):
    """An array whose reads take a millisecond, so every thread gets blocks."""

    def __getitem__(self, key):
        time.sleep(1e-3)
        return super().__getitem__(key)


def test_threads_keep_the_callers_errstate():
    # 1/b overflows at a subnormal delta, and 1/delta too for a numpy
    # float: the blocks ignore the warning and RealPairField names the
    # node; a worker thread must not warn
    for delta in (5e-324, np.float64(5e-324)):
        fam = DeltaFamily(delta)
        w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(9, 40))
        w.values = w.values.view(SlowRows)
        for workers in (1, 2):
            with pytest.raises(NonFiniteCoefficient, match=(
                    r"^non-finite u = -inf at \(x=-0\.5, y=-1\.0\)$")):
                on_threads(workers, 1, 9, to_real_pair, fam, w)


# Every block runs under np.errstate(all="ignore"), serial or pooled: the
# solution fields and the residual maxima name or keep what overflows.

@pytest.mark.parametrize("workers", [1, 2])
def test_blocks_run_under_the_engines_errstate(workers):
    def block(s):
        return np.float64(1e308) * 10.0, np.geterr()

    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = on_threads(workers, 1, 5, fields.map_row_blocks, 5, 4, block)
    assert len(got) == 4
    for value, state in got:
        assert value == np.inf and set(state.values()) == {"ignore"}
    assert np.geterr() == before  # the caller's own state is back


@pytest.mark.parametrize("workers", [1, 2])
def test_from_real_pair_names_the_first_node_where_w_overflows(workers):
    # u + a*v overflows where a = y/(1+x) > 0.3; the first such node in
    # row order is named, as NonFiniteCoefficient and not a warning
    fam = DeltaFamily(0.5)
    xs, ys = grid_axes(K, GridSpec(9, 40))
    shape = (ys.size, xs.size)
    uv = RealPairField(xs, ys, np.full(shape, 1.5e308), np.full(shape, 1e308))
    inv = 1.0 / (1.0 + xs[None, :])
    with np.errstate(over="ignore"):  # w = (u + a*v) + i*(b*v), as in the kernel
        want = (uv.u + ys[:, None] * inv * uv.v) + 1j * (fam.delta * inv * uv.v)
    assert np.isinf(want.real).any() and np.isfinite(want.imag).all()
    with pytest.raises(NonFiniteCoefficient) as whole:
        fields._raise_non_finite(xs[None, :], ys[:, None], [("w", want)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCoefficient) as excinfo:
            on_threads(workers, 1, 9, from_real_pair, fam, uv)
    assert str(excinfo.value) == str(whole.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_solution_fields_check_by_blocks_and_name_the_first_node(workers):
    # the bad values sit in rows 3, 5 and 30 of a 40-row grid: checked one
    # row at a time, the first node in row order is named as by a check of
    # the whole grid
    xs, ys = grid_axes(K, GridSpec(9, 40))
    u, v = np.zeros((40, 9)), np.zeros((40, 9))
    u[5, 1], v[3, 7], u[30, 0] = np.nan, np.inf, -np.inf
    with pytest.raises(NonFiniteCoefficient) as whole:
        fields._raise_non_finite(xs[None, :], ys[:, None],
                                 [("u", u), ("v", v)])
    for rows in (1, 2, 40):
        with pytest.raises(NonFiniteCoefficient) as excinfo:
            on_threads(workers, rows, 9, RealPairField, xs, ys, u, v)
        assert str(excinfo.value) == str(whole.value)
    w = np.zeros((40, 9), dtype=complex)
    w[30, 2], w[4, 8] = np.nan, complex(0.0, np.inf)
    with pytest.raises(NonFiniteCoefficient, match=(
            rf"^non-finite w = infj at \(x={float(xs[8])!r}, "
            rf"y={float(ys[4])!r}\)$")):
        on_threads(workers, 1, 9, ComplexField, xs, ys, w)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool():
    fam = DeltaFamily(0.5)
    args = (fam, LambdaPower(2), K, GridSpec(9, 40))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_WORKERS", 2)
        mp.setattr(fields, "SCAN_CHUNK_NODES", 9)
        want = solve_characteristic(*args).values  # starts the pool
        with warnings.catch_warnings():  # 3.12 warns of forking with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                got = solve_characteristic(*args).values
                code = 0 if (np.array_equal(got, want)
                             and fields._pool[0] == os.getpid()) else 2
            finally:
                os._exit(code)
    deadline = time.monotonic() + 60.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung in the kernel")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


# An empty grid has no row blocks: the engine calls nothing, and the
# solution fields build, as they did before their check joined the blocks.

@pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 0)])
def test_empty_grids_have_no_blocks(shape):
    ny, nx = shape
    assert fields.row_blocks(nx, ny) == []
    assert fields.map_row_blocks(nx, ny, lambda s: pytest.fail("called")) == []
    xs, ys = np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny)
    assert ComplexField(xs, ys, np.empty(shape, complex)).values.shape == shape
    uv = RealPairField(xs, ys, np.empty(shape), np.empty(shape))
    assert uv.u.shape == uv.v.shape == shape


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_fd_residuals_reject_an_empty_field(shape):
    ny, nx = shape
    field = DeltaField(DeltaFamily(0.5))
    xs, ys = np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny)
    match = rf"^grid \({ny}, {nx}\) too small for a stride \(1, 1\) stencil$"
    with pytest.raises(StencilOutOfDomain, match=match):
        system_residual(field, RealPairField(xs, ys, np.empty(shape), np.empty(shape)))
    with pytest.raises(StencilOutOfDomain, match=match):
        transport_residual(field, ComplexField(xs, ys, np.empty(shape, complex)))


@pytest.mark.parametrize("residual", ["system", "transport"])
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_analytic_residuals_reject_an_empty_field(shape, residual):
    ny, nx = shape
    fam = DeltaFamily(0.5)
    xs, ys = np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny)
    empty = np.empty(shape, complex)
    w = ComplexField(xs, ys, empty, wx=empty, wy=empty)
    with pytest.raises(ValueError, match=(
            rf"^grid \({ny}, {nx}\) has no node to take a residual at$")):
        if residual == "system":
            system_residual(DeltaField(fam), to_real_pair(fam, w), mode="analytic")
        else:
            transport_residual(DeltaField(fam), w, mode="analytic")


# The engine's first call in a process raises glibc's mmap and trim
# thresholds (fields._keep_freed_grids), so a freed grid stays on the heap
# for the next kernel instead of being unmapped and zero-filled anew.  The
# tests below replace ctypes.CDLL and make the engine's next call its first.

def first_call_with(mp, cdll):
    mp.setattr(fields, "_WORKERS", 1)  # no pool to start
    mp.setattr(fields, "_pool", (None, None))
    mp.setattr(fields.ctypes, "CDLL", cdll)


def _no_libc(name):
    raise OSError("no C library")


def _no_dlopen_null(name):  # Windows
    raise TypeError("LoadLibrary() argument 1 must be str, not None")


@pytest.mark.parametrize("cdll", [
    _no_libc,
    lambda name: SimpleNamespace(),  # macOS: a libc without mallopt
    _no_dlopen_null,
], ids=["no-libc", "no-mallopt", "no-dlopen-null"])
def test_kernels_run_without_mallopt(cdll):
    args = (DeltaFamily(1e-3), parse_f0(REF_F0[2]), K, GridSpec(129, 48))
    want, want_maxima = on_threads(1, 3, 129, pipeline, *args)
    with pytest.MonkeyPatch.context() as mp:
        first_call_with(mp, cdll)
        got, maxima = in_blocks(3, 129, pipeline, *args)
        assert fields._pool == (os.getpid(), None)  # the first call ran
    for g, w in zip(got, want):
        assert_bits(g, w)
    assert repr(maxima) == repr(want_maxima)


@pytest.mark.parametrize("refused,calls", [
    # the trim threshold follows the first mmap threshold glibc takes
    ((), [(-3, 1 << 30), (-1, 1 << 30)]),
    (((-3, 1 << 30),), [(-3, 1 << 30), (-3, 32 << 20), (-1, 32 << 20)]),
    # and is left alone when glibc takes none (musl's mallopt does nothing)
    (((-3, 1 << 30), (-3, 32 << 20)), [(-3, 1 << 30), (-3, 32 << 20)]),
], ids=["taken", "32-MiB-fallback", "none-taken"])
def test_trim_threshold_follows_an_accepted_mmap_threshold(refused, calls):
    asked = []

    def mallopt(param, value):
        asked.append((param, value))
        return int((param, value) not in refused)

    def cdll(name):
        assert name is None  # the process's own C library
        return SimpleNamespace(mallopt=mallopt)

    with pytest.MonkeyPatch.context() as mp:
        first_call_with(mp, cdll)
        fields.map_row_blocks(5, 4, lambda s: None)
        fields.map_row_blocks(5, 4, lambda s: None)  # not a first call
    assert fields.HEAP_KEEP_BYTES == 1 << 30
    assert asked == calls


KEEP_FREED_GRIDS = """
import resource
import numpy as np
from rigidpde.fields import REFERENCE_WINDOW, DeltaFamily, GridSpec, grid_axes
from rigidpde.transport import RealPairField, from_real_pair

xs, ys = grid_axes(REFERENCE_WINDOW, GridSpec(1449, 1449))
uv = RealPairField(xs, ys, np.ones((1449, 1449)), np.ones((1449, 1449)))
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    w = from_real_pair(DeltaFamily(0.5), uv)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del w
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
def test_a_freed_grid_above_32_mib_is_reused(tmp_path):
    # w of a 1449² pair is 33.6 MB, above glibc's largest dynamic mmap
    # threshold: without the policy each call maps and faults it anew.  A
    # subprocess, since the policy is process-wide.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(fields.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", KEEP_FREED_GRIDS], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, again = map(int, proc.stdout.split())
    assert again < first / 10, (first, again)


# The transport residual as it was formed before it joined the row blocks:
# whole-grid lambda*w_y + w_x, its maximum, and in fd mode the relative
# size over the largest maximum of the cancelled terms w_x and
# lambda*w_y, floored by the rounding of a central difference.  The
# report must match it bit for bit.

def ref_transport_residual(field, w, mode):
    if mode == "analytic":
        wx, wy, xs, ys = w.wx, w.wy, w.xs, w.ys
    else:
        hx, hy = float(np.mean(np.diff(w.xs))), float(np.mean(np.diff(w.ys)))
        wx, wy = central(w.values, hx, hy)
        xs, ys = w.xs[1:-1], w.ys[1:-1]
    res = spectral_lambda(field, xs[None, :], ys[:, None]) * wy
    res += wx
    max_res = float(np.abs(res).max())
    if mode == "analytic":
        return res, max_res, None
    rounding = (100.0 * np.finfo(float).eps * float(np.abs(w.values).max())
                / min(hx, hy))
    sizes = [np.abs(wx).max(), np.abs(res - wx).max(), rounding]
    return res, max_res, (max_res / float(np.max(sizes)) if max_res != 0.0
                          else 0.0)


@pytest.mark.parametrize("mode", ["analytic", "fd"])
@pytest.mark.parametrize("delta", [1.0, 1e-3, 1e-10])
def test_transport_report_matches_whole_grid_reference(delta, mode):
    fam = DeltaFamily(delta)
    field = DeltaField(fam)
    grid = GridSpec(65, 65)
    for f0 in REF_F0:
        w = solve_characteristic(fam, parse_f0(f0), K, grid)
        # and a non-solution, whose lambda*w_y does not cancel w_x
        bad = ComplexField(w.xs, w.ys, np.conj(w.values), wx=np.conj(w.wx),
                           wy=2.0 * w.wy)
        for data in (w, bad):
            r1, max_r1, relative = ref_transport_residual(field, data, mode)
            for rows in (1, 2, 7, grid.ny):
                rep = in_blocks(rows, grid.nx, transport_residual, field,
                                data, mode=mode)
                assert_bits(rep.r1, r1)
                assert repr((rep.max_r1, rep.relative)) == \
                    repr((max_r1, relative))
                assert rep.r2 is None and rep.max_r2 is None
                assert rep.max_residual == rep.max_r1


def test_kernel_memory_is_outputs_plus_blocks(monkeypatch):
    # Each kernel allocates its outputs once and forms its temporaries one
    # block at a time, on two threads here (a pinned worker count, so the
    # result does not depend on the machine's CPUs), and so does the
    # finiteness check of the fields it returns.  The budget beyond the
    # outputs is eight complex blocks; any one whole-grid float temporary
    # (8 or 16 bytes a node) exceeds it.
    monkeypatch.setattr(fields, "_WORKERS", 2)
    fam = DeltaFamily(1e-3)
    f0 = parse_f0(REF_F0[2])
    grid = GridSpec(1025, 1025)
    nodes = grid.nx * grid.ny
    budget = 8 * fields.chunk_rows(grid.nx, grid.ny) * grid.nx * 16
    solve_characteristic(fam, f0, K, GridSpec(9, 9))  # first-call set-up

    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    w, used = peak(solve_characteristic, fam, f0, K, grid)
    assert used <= 3 * 16 * nodes + budget  # w, wx, wy
    uv, used = peak(to_real_pair, fam, w)
    assert used <= 2 * 8 * nodes + budget   # u, v: no partial grid
    _, used = peak(from_real_pair, fam, uv)
    assert used <= 16 * nodes + budget
    _, used = peak(system_residual, DeltaField(fam), uv, mode="analytic")
    assert used <= 2 * 8 * nodes + budget   # r1, r2; partials by blocks
    _, used = peak(transport_residual, DeltaField(fam), w, mode="analytic")
    assert used <= 16 * nodes + budget      # r1
    # fd mode differences one block of rows at a time as well
    _, used = peak(system_residual, DeltaField(fam), uv, mode="fd")
    assert used <= 2 * 8 * nodes + budget   # r1, r2
    _, used = peak(transport_residual, DeltaField(fam), w, mode="fd")
    assert used <= 16 * nodes + budget      # r1


# --- serialization -------------------------------------------------------------

def test_csv_writer_memory_is_a_few_rows(tmp_path):
    # The writer formats one grid row at a time, so its peak is a few rows
    # of text: not a copy of the grids (4 MB at 513**2) nor the whole
    # lattice as Python lists (about 20 MB with that copy).
    n = 513
    xs, ys = grid_axes(K, GridSpec(n, n))
    rng = np.random.default_rng(0)
    grids = [rng.standard_normal((n, n)) for _ in range(2)]
    path = tmp_path / "lattice.csv"
    header = ["x", "y", "a", "b"]
    write_lattice_csv(path, header, xs[:3], ys[:3], [g[:3, :3] for g in grids])
    tracemalloc.start()
    try:
        write_lattice_csv(path, header, xs, ys, grids)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert used <= 8 * path.stat().st_size / n


def test_csv_reader_memory_is_values_plus_blocks(tmp_path):
    # A file in the writer's row order is parsed SCAN_CHUNK_NODES lines at a
    # time into one array of the node values, so the peak is those values
    # plus a few blocks of the parse table (the parse itself can double its
    # block): not the whole table with its sorted copies (5 MB at 257**2),
    # nor separate re and im grids beside the complex one.
    n = 257
    fam = DeltaFamily(1e-3)
    w = solve_characteristic(fam, ExpAffine(0.5, 0.5j), K, GridSpec(n, n))
    up, wp = tmp_path / "uv.csv", tmp_path / "w.csv"
    write_real_pair_csv(to_real_pair(fam, w), up)
    write_complex_csv(w, wp)
    read_real_pair_csv(up)  # first-call set-up
    budget = 16 * n * n + 3 * 4 * 8 * fields.SCAN_CHUNK_NODES
    for read, path in [(read_real_pair_csv, up), (read_complex_csv, wp)]:
        tracemalloc.start()
        try:
            read(path)
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert used <= budget, read.__name__

def test_csv_roundtrip_bit_exact(tmp_path):
    fam = DeltaFamily(0.3)
    w = solve_characteristic(fam, ExpAffine(1.0, 0.1j), K, GridSpec(19, 11))
    uv = to_real_pair(fam, w)
    wp, up = tmp_path / "w.csv", tmp_path / "uv.csv"
    write_complex_csv(w, wp)
    write_real_pair_csv(uv, up)
    w2 = read_complex_csv(wp)
    uv2 = read_real_pair_csv(up)
    np.testing.assert_array_equal(w2.values, w.values)
    np.testing.assert_array_equal(w2.xs, w.xs)
    np.testing.assert_array_equal(uv2.u, uv.u)
    np.testing.assert_array_equal(uv2.v, uv.v)


def test_field_header_json(tmp_path):
    fam = DeltaFamily(0.3)
    w = solve_characteristic(fam, LambdaPower(2), K, GridSpec(9, 9))
    path = tmp_path / "w.json"
    write_field_header(w, path)
    header = json.loads(path.read_text())
    assert header["kind"] == "w"
    assert header["grid"] == [9, 9]
    assert header["f0"] == "lpow:2"
    assert header["region"] == list(K.as_tuple())
    assert field_header(w) == header


def test_csv_golden_bytes(tmp_path):
    # pins the on-disk contract: header, row-major with x fastest, shortest
    # repr decimals (signed zero, subnormal, huge), CRLF line ends
    xs = np.array([-0.5, 0.0, 0.1])
    ys = np.array([-1.0, 2.5])
    u = np.array([[-0.0, 5e-324, 1e300], [0.1, 1.0, -2.0]])
    v = np.array([[1e300, 0.1, -0.0], [5e-324, 3.0, 0.5]])
    path = tmp_path / "golden_uv.csv"
    write_real_pair_csv(RealPairField(xs, ys, u, v), path)
    assert path.read_bytes() == (
        b"x,y,u,v\r\n"
        b"-0.5,-1.0,-0.0,1e+300\r\n"
        b"0.0,-1.0,5e-324,0.1\r\n"
        b"0.1,-1.0,1e+300,-0.0\r\n"
        b"-0.5,2.5,0.1,5e-324\r\n"
        b"0.0,2.5,1.0,3.0\r\n"
        b"0.1,2.5,-2.0,0.5\r\n"
    )
    back = read_real_pair_csv(path)
    assert back.u.tobytes() == u.tobytes() and back.v.tobytes() == v.tobytes()


def test_read_rejects_malformed_csv(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,re\n0,0,1\n")
    with pytest.raises(ValueError):
        read_complex_csv(p)
    p2 = tmp_path / "ragged.csv"
    p2.write_text("x,y,u,v\n0,0,1,0\n1,0,1,0\n0.5,1,1,0\n1,1,1,0\n")
    with pytest.raises(ValueError):
        read_real_pair_csv(p2)
    for name, body, needle in [
        ("empty.csv", "", "no data rows"),
        ("short_row.csv", "0,0,1,0\n1,0,1\n", "columns"),
        ("short_rows.csv", "0,0,1\n1,0,1\n", "columns"),
        ("nan.csv", "0,0,1,0\n1,0,nan,0\n0,1,1,0\n1,1,1,0\n", "(1.0, 0.0)"),
    ]:
        path = tmp_path / name
        path.write_text("x,y,u,v\r\n" + body)
        with pytest.raises(ValueError) as exc:
            read_real_pair_csv(path)
        assert str(path) in str(exc.value) and needle in str(exc.value)
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('x,y,u,v\n0,0,"0.5",0\n1,0,1,0\n0,1,1,0\n1,1,1,"-2"\n')
    uv = read_real_pair_csv(quoted)
    assert uv.u[0, 0] == 0.5 and uv.v[1, 1] == -2.0
