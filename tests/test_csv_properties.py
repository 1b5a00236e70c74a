"""Property tests of the lattice CSV codec shared by solution fields and
coefficient tables: the writer emits the same bytes as a per-value
csv.writer loop, a write/read cycle returns every finite double
bit-exactly, for any lattice shape from 2x2 up, and the order of the data
rows does not change what is read."""

import csv

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rigidpde.fields import read_lattice_csv, write_lattice_csv  # noqa: E402
from rigidpde.transport import (  # noqa: E402
    ComplexField,
    RealPairField,
    read_complex_csv,
    read_real_pair_csv,
    write_complex_csv,
    write_real_pair_csv,
)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def axis(n):
    # distinct values (0.0 and -0.0 count as equal), increasing
    return st.lists(FINITE, min_size=n, max_size=n, unique=True).map(
        lambda v: np.array(sorted(v)))


@st.composite
def lattices(draw, max_columns=3):
    nx = draw(st.integers(2, 7))
    ny = draw(st.integers(2, 7))
    k = draw(st.integers(1, max_columns))
    grids = [np.array(draw(st.lists(FINITE, min_size=nx * ny,
                                    max_size=nx * ny))).reshape(ny, nx)
             for _ in range(k)]
    return draw(axis(nx)), draw(axis(ny)), grids


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def reference_write(path, header, xs, ys, grids):
    # one csv.writer row of repr strings per node, x varying fastest
    X, Y = np.meshgrid(xs, ys)
    cols = [X.ravel(), Y.ravel()] + [g.ravel() for g in grids]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])


@SETTINGS
@given(lattices())
def test_lattice_csv_matches_reference_writer(tmp_path, lattice):
    xs, ys, grids = lattice
    header = ["x", "y"] + [f"c{i}" for i in range(len(grids))]
    write_lattice_csv(tmp_path / "fast.csv", header, xs, ys, grids)
    reference_write(tmp_path / "ref.csv", header, xs, ys, grids)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@SETTINGS
@given(lattices())
def test_lattice_csv_roundtrip_bit_exact(tmp_path, lattice):
    xs, ys, grids = lattice
    header = ["x", "y"] + [f"c{i}" for i in range(len(grids))]
    path = tmp_path / "lattice.csv"
    write_lattice_csv(path, header, xs, ys, grids)
    xs2, ys2, values = read_lattice_csv(path, header)
    assert bits(xs2) == bits(xs) and bits(ys2) == bits(ys)
    assert [bits(g) for g in np.moveaxis(values, -1, 0)] == [bits(g) for g in grids]


@SETTINGS
@given(lattices(), st.data())
def test_lattice_csv_rows_in_any_order_read_back_the_same(tmp_path, lattice, data):
    # a file in the writer's order is read in blocks, any other order by
    # the whole parse: both give the same bits
    xs, ys, grids = lattice
    header = ["x", "y"] + [f"c{i}" for i in range(len(grids))]
    path, shuffled = tmp_path / "lattice.csv", tmp_path / "shuffled.csv"
    write_lattice_csv(path, header, xs, ys, grids)
    first, *rows = path.read_bytes().splitlines(keepends=True)
    shuffled.write_bytes(first + b"".join(data.draw(st.permutations(rows))))
    xs2, ys2, values = read_lattice_csv(path, header)
    xs3, ys3, values3 = read_lattice_csv(shuffled, header)
    assert bits(xs3) == bits(xs2) and bits(ys3) == bits(ys2)
    assert bits(values3) == bits(values)


@SETTINGS
@given(lattices(max_columns=2))
@example((np.array([0.0, 1.0]), np.array([0.0, 1.0]),
          [np.array([[-0.0, 1.0], [0.0, 2.0]]), np.array([[0.0, -0.0], [1.0, 2.0]])]))
def test_solution_field_csv_roundtrip_bit_exact(tmp_path, lattice):
    xs, ys, grids = lattice
    a, b = grids if len(grids) == 2 else (grids[0], -grids[0])
    up, wp = tmp_path / "uv.csv", tmp_path / "w.csv"
    write_real_pair_csv(RealPairField(xs, ys, a, b), up)
    values = a.astype(complex)
    values.imag = b
    w = ComplexField(xs, ys, values)
    write_complex_csv(w, wp)
    uv = read_real_pair_csv(up)
    w2 = read_complex_csv(wp)
    assert bits(uv.u) == bits(a) and bits(uv.v) == bits(b)
    assert w2.values.tobytes() == w.values.tobytes()
