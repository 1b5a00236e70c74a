import argparse
import dataclasses
import hashlib
import json
import re
import warnings

import numpy as np
import pytest

from rigidpde import analysis, bench as bench_mod, cli, fields
from rigidpde.cli import _VALUE_OPTS, build_parser, main
from rigidpde.fields import (
    REFERENCE_WINDOW,
    DeltaFamily,
    DeltaField,
    GridSpec,
    PerturbedDeltaField,
    Region,
    write_field_csv,
)
from rigidpde.transport import (
    read_complex_csv,
    read_real_pair_csv,
    write_complex_csv,
    write_real_pair_csv,
)

TABLE_GOLDEN = """delta,inf_mu,sup_mu,kappa
1,0,0.620174,18.195
0.1,0.666667,0.923548,633.038
0.01,0.960784,0.992032,62508
0.001,0.996008,0.9992,6.25001e+06
0.0001,0.9996,0.99992,6.25e+08
"""

BENCH_HEADER = "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- analyze -----------------------------------------------------------------

def test_analyze_family_is_rigid(capsys):
    code, out, _ = run(capsys, "analyze", "--delta", "1",
                       "--region", "-0.5,1,-1,1", "--grid", "41,41")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,inf_mu,sup_mu,kappa"
    assert lines[1].startswith("1,0,")
    assert "rigid: true" in lines[2]


def test_analyze_bad_region_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "--delta", "1",
                       "--region", "-2,1,-1,1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", [
    ["analyze", "--delta", "1", "--grid", "9,9"],
    ["solve", "--delta", "1", "--f0", "lpow:1", "--grid", "9,9", "--out"],
    ["bench", "--deltas", "1", "--grid", "9,9", "--repetitions", "1"],
])
@pytest.mark.parametrize("region", ["-0.5,inf,-1,1", "-0.5,1,-1.7e308,1.7e308"])
def test_a_region_that_is_not_finite_exits_1_without_warnings(
        command, region, tmp_path, capsys):
    # an infinite bound, or a side longer than the largest float: once an
    # uncaught OverflowError, once a numpy warning and a node never given
    argv = command + [str(tmp_path / "s")] if command[-1] == "--out" else command
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, f"--region={region}")
    bounds = tuple(float(v) for v in region.split(","))
    assert code == 1 and out == ""
    assert err == (f"error: region {bounds} is not finite or has a side "
                   "longer than the largest float\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("opt, value, message", [
    ("--region", "0,1,2", "region must be x_min,x_max,y_min,y_max, got '0,1,2'"),
    ("--grid", "3,3,3", "grid must be nx,ny, got '3,3,3'"),
])
def test_region_and_grid_need_their_count_of_numbers(capsys, opt, value, message):
    code, out, err = run(capsys, "analyze", "--delta", "1", opt, value)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "analyze", "--region", "0,1,0,1")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--delta", "1",
                       "--field-csv", "x.csv", "--region", "0,1,0,1")
    assert code == 1


def test_analyze_field_csv_detects_broken_rigidity(tmp_path, capsys):
    fixture = PerturbedDeltaField(DeltaFamily(0.5), eps=0.1)
    path = tmp_path / "perturbed.csv"
    # pad the table beyond the scan window so fd stencils stay inside
    write_field_csv(fixture, Region(-0.6, 1.1, -1.1, 1.1),
                    GridSpec(343, 441), path)
    code, out, _ = run(capsys, "analyze", "--field-csv", str(path),
                       "--region", "-0.4,0.9,-0.9,0.9", "--grid", "41,41",
                       "--json")
    assert code == 0
    report = json.loads(out)
    assert report["rigid"] is False
    assert report["partials"] == "finite-difference"
    assert max(report["max_abs_A"], report["max_abs_B"]) > 1e-3


# stdout of analyze, recorded before its --align/--no-align/--rigidity-tol
# options were removed: the grid is snapped and the tolerance follows the
# field's partials
ANALYZE_GOLDEN = """{
  "delta": 0.001,
  "region": [
    -0.5,
    1.0,
    -1.0,
    1.0
  ],
  "grid": [
    103,
    101
  ],
  "inf_mu": 0.996007984031936,
  "sup_mu": 0.9992003203836415,
  "kappa": 6250008.000002322,
  "max_abs_A": 0.0,
  "max_abs_B": 0.0,
  "rigid": true,
  "rigidity_tol": 1e-10,
  "partials": "closed-form"
}
"""
ANALYZE_TABLE_GOLDEN = """{
  "delta": null,
  "region": [
    -0.5,
    1.0,
    -1.0,
    1.0
  ],
  "grid": [
    49,
    51
  ],
  "inf_mu": 0.2494348293263986,
  "sup_mu": 0.7953997721176609,
  "kappa": 77.0034361491138,
  "max_abs_A": 0.7692183702448279,
  "max_abs_B": 0.5929259637535909,
  "rigid": false,
  "rigidity_tol": 0.0001,
  "partials": "finite-difference"
}
"""


def test_analyze_json_is_byte_identical_to_golden(capsys):
    code, out, _ = run(capsys, "analyze", "--delta", "1e-3",
                       "--grid", "101,101", "--json")
    assert code == 0
    assert out == ANALYZE_GOLDEN


def test_analyze_field_csv_json_is_byte_identical_to_golden(tmp_path, capsys):
    # a 61^2 table of the family, padded so the fd stencils stay inside;
    # its fd obstruction reads O(1) (the fd verdict defect), pinned as is
    path = tmp_path / "fam.csv"
    write_field_csv(DeltaField(DeltaFamily(0.3)), Region(-0.6, 1.1, -1.1, 1.1),
                    GridSpec(61, 61), path)
    code, out, _ = run(capsys, "analyze", "--field-csv", str(path),
                       "--grid", "51,51", "--json")
    assert code == 0
    assert out == ANALYZE_TABLE_GOLDEN


def test_analyze_field_csv_unpadded_names_the_stencil(tmp_path, capsys):
    # the table covers the scan window exactly, so the first centre on its
    # east edge has a foot outside; the message names step and points
    path = tmp_path / "window.csv"
    write_field_csv(DeltaField(DeltaFamily(0.3)), REFERENCE_WINDOW,
                    GridSpec(61, 61), path)
    code, _, err = run(capsys, "analyze", "--field-csv", str(path),
                       "--grid", "51,51")
    assert code == 1
    assert "np.float64(" not in err and " h " not in err
    assert err == (
        "error: stencil of half-width 2e-05 centred at (x, y) = (1.0, -1.0) "
        "leaves the field's domain: point (x, y) = (1.00002, -1.0) outside "
        "the field's region (-0.5, 1.0, -1.0, 1.0)\n")


def test_analyze_not_elliptic_exits_2(tmp_path, capsys):
    path = tmp_path / "hyperbolic.csv"
    with open(path, "w") as fh:
        fh.write("x,y,alpha,beta\n")
        for x in (0.0, 0.5, 1.0):
            for y in (0.0, 0.5, 1.0):
                fh.write(f"{x},{y},1.0,3.0\n")  # discriminant 4 - 9 < 0
    code, _, err = run(capsys, "analyze", "--field-csv", str(path),
                       "--region", "0.2,0.8,0.2,0.8", "--grid", "5,5")
    assert code == 2
    assert "not elliptic" in err


# --- table1 ------------------------------------------------------------------

def test_table1_csv_golden(capsys):
    # extrema sit on aligned nodes, so the table is resolution-independent
    code, out, _ = run(capsys, "table1", "--grid", "201,201")
    assert code == 0
    assert out == TABLE_GOLDEN


# sha256 of `table1 --grid 201,201 --json`, recorded before every report
# went through one emission rule
TABLE_JSON_GOLDEN = "f710d6194a05e83452a68a25339856acd695ea0e5e05f39d34e432e15bf4c7a3"


def test_table1_json_is_byte_identical_to_golden(capsys):
    code, out, _ = run(capsys, "table1", "--grid", "201,201", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_JSON_GOLDEN
    assert [r["delta"] for r in json.loads(out)] == list(analysis.TABLE_DELTAS)


def test_table1_kappa_delta_scaling(capsys):
    code, out, _ = run(capsys, "table1", "--grid", "201,201")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    deltas = np.array([float(r[0]) for r in rows])
    infs = np.array([float(r[1]) for r in rows])
    kappas = np.array([float(r[3]) for r in rows])
    assert np.all(np.diff(infs) > 0)  # inf|mu| climbs as delta shrinks
    slope = np.polyfit(np.log(deltas), np.log(kappas), 1)[0]
    assert abs(slope + 2.0) < 0.1
    # in the asymptotic rows kappa*delta**2 is constant to ~10%
    scaled = kappas[1:] * deltas[1:] ** 2
    assert scaled.max() / scaled.min() < 1.1


def test_solve_writes_only_the_declared_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.iterdir())
    code, _, _ = run(capsys, "solve", "--delta", "1", "--f0", "poly:2",
                     "--grid", "9,9", "--out", str(tmp_path / "s"))
    assert code == 0
    created = {p.name for p in set(tmp_path.iterdir()) - before}
    assert created == {"s_w.csv", "s_uv.csv", "s.json"}


# --- solve / verify ----------------------------------------------------------

@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    base = tmp_path_factory.mktemp("solve") / "lpow2"
    code = main(["solve", "--delta", "1", "--f0", "lpow:2", "--out", str(base)])
    assert code == 0
    return base


def test_solve_writes_field_files(solved):
    header = json.loads((solved.parent / "lpow2.json").read_text())
    assert header["kind"] == "w"
    assert header["f0"] == "lpow:2"
    assert header["grid"] == [257, 257]
    uv = read_real_pair_csv(f"{solved}_uv.csv")
    assert uv.grid == GridSpec(257, 257)


# sha256 of the _w.csv and _uv.csv files; exp profiles are left out, as
# libm's exp may differ in the last ulp from one platform to another
SOLVE_GOLDEN = {
    ("1", "lpow:3"): (
        "75ad68e5b176077fea6cd8b86b3c8c1d7fe572a829eb7e181574daca9a22f3d5",
        "85861186b04a10013e58db171a679b9468abf05d536fbee4d8210f8b06f88dd3"),
    ("1e-10", "poly:0.3,-1i,0.25"): (
        "50001dac0b16a0dae8d3c4faa8aedf179a01e77ef0380425150e6ed6bf4a5796",
        "9fc9984c7129df65fdee6ad907a6a5cf910c219fc9cee0e0f6a824bc62e2a070"),
}


@pytest.mark.parametrize("delta,f0", sorted(SOLVE_GOLDEN))
def test_solve_files_are_byte_identical_to_golden(delta, f0, tmp_path, capsys):
    base = tmp_path / "s"
    code, _, _ = run(capsys, "solve", "--delta", delta, "--f0", f0,
                     "--grid", "33,17", "--out", str(base))
    assert code == 0
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("s_w.csv", "s_uv.csv"))
    assert got == SOLVE_GOLDEN[delta, f0]


def test_solve_identifies_values_without_partials(tmp_path, capsys,
                                                  monkeypatch):
    # no file holds partials, so solve drops w's before identifying (u, v)
    seen = []
    identify = cli.to_real_pair

    def spy(fam, w):
        seen.append(w.has_partials)
        return identify(fam, w)

    monkeypatch.setattr(cli, "to_real_pair", spy)
    code, _, _ = run(capsys, "solve", "--delta", "1", "--f0", "lpow:2",
                     "--grid", "9,9", "--out", str(tmp_path / "s"))
    assert code == 0 and seen == [False]


def test_solve_rejects_bad_f0(capsys):
    code, _, err = run(capsys, "solve", "--delta", "1", "--f0", "nope:1",
                       "--out", "/tmp/never")
    assert code == 1
    assert "poly:" in err  # grammar help in the message


def test_solve_names_the_first_non_finite_node(tmp_path, capsys):
    # exp(400*zeta) overflows where 400*y/(1+x) > 709: first at the corner
    # x = -0.5, y = 1 of the window's last grid row
    code, _, err = run(capsys, "solve", "--delta", "1", "--f0", "exp:400,0",
                       "--grid", "9,9", "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == "error: non-finite w = (-inf-infj) at (x=-0.5, y=1.0)\n"
    assert list(tmp_path.iterdir()) == []


def test_solve_at_a_subnormal_delta_names_the_node_without_warnings(tmp_path, capsys):
    # 1/b overflows at delta = 1e-310; pytest turns a numpy warning into an
    # error, so this also checks that none is printed
    code, _, err = run(capsys, "solve", "--delta", "1e-310", "--f0", "lpow:2",
                       "--grid", "9,9", "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == "error: non-finite u = -inf at (x=-0.5, y=-1.0)\n"
    assert list(tmp_path.iterdir()) == []


def test_solve_names_the_same_node_in_blocks_of_two_rows(tmp_path, capsys,
                                                        monkeypatch):
    # a 9x9 solve is one block of rows by default; in blocks of two rows
    # (the last one ragged) both failures above read the same
    monkeypatch.setattr(fields, "SCAN_CHUNK_NODES", 2 * 9)
    test_solve_names_the_first_non_finite_node(tmp_path, capsys)
    test_solve_at_a_subnormal_delta_names_the_node_without_warnings(tmp_path, capsys)


def test_verify_solution_passes(solved, capsys):
    code, out, _ = run(capsys, "verify", "--delta", "1",
                       "--uv-csv", f"{solved}_uv.csv")
    assert code == 0
    assert "pass" in out


def test_verify_w_file_passes(solved, capsys):
    code, out, _ = run(capsys, "verify", "--delta", "1",
                       "--w-csv", f"{solved}_w.csv")
    assert code == 0
    assert "w_x + lambda*w_y" in out


def test_verify_corrupted_field_fails(solved, tmp_path, capsys):
    uv = read_real_pair_csv(f"{solved}_uv.csv")
    uv.v[:] = 0.0  # breaks r1 = u_x - alpha*v_y
    bad = tmp_path / "bad_uv.csv"
    write_real_pair_csv(uv, bad)
    code, out, _ = run(capsys, "verify", "--delta", "1", "--uv-csv", str(bad))
    assert code == 2
    assert "FAIL" in out


def test_verify_constants_residual_zero(tmp_path, capsys):
    path = tmp_path / "const_uv.csv"
    with open(path, "w") as fh:
        fh.write("x,y,u,v\n")
        for y in (0.0, 0.5, 1.0):
            for x in (0.0, 0.5, 1.0):
                fh.write(f"{x},{y},2.5,0.0\n")
    code, out, _ = run(capsys, "verify", "--delta", "1", "--uv-csv", str(path))
    assert code == 0
    assert "max |r1| = 0" in out


@pytest.mark.parametrize("option,header", [("--uv-csv", "x,y,u,v"),
                                           ("--w-csv", "x,y,re,im")])
def test_verify_rejects_an_axis_wider_than_the_largest_float(
        tmp_path, capsys, option, header):
    # y spans 3.2e308: its steps are finite, but the span and their mean
    # overflow, so no step could be reported (filterwarnings = error)
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for y in (-1.6e308, 0.0, 1.6e308):
            for x in (0.0, 0.5, 1.0):
                fh.write(f"{x},{y},1.0,2.0\n")
    code, out, err = run(capsys, "verify", "--delta", "1", option, str(path))
    assert (code, out) == (1, "")
    assert err == ("error: finite differences require axes no longer than "
                   "the largest float\n")


@pytest.mark.parametrize("delta,f0", [("1e-4", "exp:0.5-0.5i,0"),
                                      ("1", "lpow:3"), ("0.1", "lpow:1")])
def test_verify_passes_exact_solutions_by_relative_residual(
        tmp_path, capsys, delta, f0):
    # max |r1| is 16.7 at delta = 1e-4 and 0.081 at delta = 1: an absolute
    # 0.05 rejects both, while each is ~4e-4 of the terms it cancels.
    # lpow:1 (u = 0, v = 1) has partials of rounding size only, which read
    # ~4e-3 of their rounding floor
    base = tmp_path / "s"
    assert main(["solve", "--delta", delta, "--f0", f0, "--out", str(base)]) == 0
    capsys.readouterr()
    for kind in ("uv", "w"):
        code, out, _ = run(capsys, "verify", "--delta", delta,
                           f"--{kind}-csv", f"{base}_{kind}.csv")
        assert code == 0, out
        rel = [line for line in out.splitlines()
               if line.startswith("relative residual = ")]
        assert len(rel) == 1 and float(rel[0].split()[3]) < 1e-2
        # every "max |...| = value" line is a residual maximum
        maxima = re.findall(r"^max \|.*\| = (\S+)$", out, re.M)
        assert len(maxima) == (2 if kind == "uv" else 1)
        assert out.splitlines()[-1] == "threshold 0.05: pass"


def test_verify_threshold_bounds_the_relative_residual(tmp_path, capsys):
    base = tmp_path / "s"
    assert main(["solve", "--delta", "1e-4", "--f0", "exp:0.5-0.5i,0",
                 "--out", str(base)]) == 0
    capsys.readouterr()
    _, out, _ = run(capsys, "verify", "--delta", "1e-4", "--uv-csv",
                    f"{base}_uv.csv")
    assert "max |r1| = 16.7361" in out
    rel = float(re.search(r"^relative residual = (\S+) ", out, re.M).group(1))
    for threshold, code, verdict in ((rel / 2, 2, "FAIL"), (rel * 2, 0, "pass")):
        got, out, _ = run(capsys, "verify", "--delta", "1e-4", "--uv-csv",
                          f"{base}_uv.csv", "--threshold", repr(threshold))
        assert got == code
        assert out.splitlines()[-1] == f"threshold {threshold:.6g}: {verdict}"


def test_verify_rejects_a_shifted_non_solution(tmp_path, capsys):
    # criterion 10's v := 0 file, with v := 1000 instead: the shift leaves
    # r1 = u_x, so it must not hide behind the size of v
    base = tmp_path / "lp2"
    assert main(["solve", "--delta", "1", "--f0", "lpow:2", "--out", str(base)]) == 0
    capsys.readouterr()
    uv = read_real_pair_csv(f"{base}_uv.csv")
    uv.v[:] = 1000.0
    write_real_pair_csv(uv, tmp_path / "bad_uv.csv")
    code, out, _ = run(capsys, "verify", "--delta", "1", "--uv-csv",
                       str(tmp_path / "bad_uv.csv"))
    assert code == 2 and out.splitlines()[-1] == "threshold 0.05: FAIL"
    # conj(w) + 1e6 fails the transport law everywhere
    w = read_complex_csv(f"{base}_w.csv")
    w.values[:] = np.conj(w.values) + 1e6
    write_complex_csv(w, tmp_path / "bad_w.csv")
    code, out, _ = run(capsys, "verify", "--delta", "1", "--w-csv",
                       str(tmp_path / "bad_w.csv"))
    assert code == 2 and out.splitlines()[-1] == "threshold 0.05: FAIL"


# Central differences cannot see an odd-even pattern: (-1)**j differenced
# over two nodes is 0.  Added at the size of the data to the files of
# `solve --delta 1e-3 --f0 exp:0.5+0.5i --grid 257,257`, it reads relative
# 2.35e-4 on u and 3.07e-4 on w, and both pass.  These xfails pin the
# blind spot until verify can fail such files.

@pytest.fixture(scope="module")
def exp_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("oddeven") / "s"
    assert main(["solve", "--delta", "1e-3", "--f0", "exp:0.5+0.5i",
                 "--grid", "257,257", "--out", str(base)]) == 0
    return base


@pytest.mark.xfail(strict=True, reason="verify is blind to odd-even errors")
def test_verify_fails_an_odd_even_error_in_u(exp_files, tmp_path, capsys):
    uv = read_real_pair_csv(f"{exp_files}_uv.csv")
    size = max(np.abs(uv.u).max(), np.abs(uv.v).max())  # 2285
    uv.u += size * (-1.0) ** np.arange(uv.xs.size)
    write_real_pair_csv(uv, tmp_path / "bad_uv.csv")
    code, out, _ = run(capsys, "verify", "--delta", "1e-3", "--uv-csv",
                       str(tmp_path / "bad_uv.csv"))
    assert code == 2, out


@pytest.mark.xfail(strict=True, reason="verify is blind to odd-even errors")
def test_verify_fails_an_odd_even_error_in_w(exp_files, tmp_path, capsys):
    w = read_complex_csv(f"{exp_files}_w.csv")
    sign_x = (-1.0) ** np.arange(w.xs.size)
    sign_y = (-1.0) ** np.arange(w.ys.size)[:, None]
    w.values += np.abs(w.values).max() * (sign_x + 1j * sign_y)
    write_complex_csv(w, tmp_path / "bad_w.csv")
    code, out, _ = run(capsys, "verify", "--delta", "1e-3", "--w-csv",
                       str(tmp_path / "bad_w.csv"))
    assert code == 2, out


# stdout of verify for `solve --delta 1e-4 --f0 lpow:2`, recorded before
# verify's --h option was removed
VERIFY_GOLDEN = {
    "uv": """mode: fd (hx=0.00585938, hy=0.0078125, boundary rim excluded)
max |r1| = 0.00408215
max |r2| = 0.00104056
relative residual = 0.000268314 (over the largest cancelled term)
threshold 0.05: pass
""",
    "w": """mode: fd (transport residual, boundary rim excluded)
max |w_x + lambda*w_y| = 0.00408215
relative residual = 0.000268314 (over the largest cancelled term)
threshold 0.05: pass
""",
}


def test_verify_stdout_is_byte_identical_to_golden(tmp_path, capsys):
    base = tmp_path / "s"
    assert main(["solve", "--delta", "1e-4", "--f0", "lpow:2",
                 "--out", str(base)]) == 0
    capsys.readouterr()
    for kind, golden in VERIFY_GOLDEN.items():
        code, out, _ = run(capsys, "verify", "--delta", "1e-4",
                           f"--{kind}-csv", f"{base}_{kind}.csv")
        assert code == 0
        assert out == golden


# stdout and exit code of verify for `solve --delta 1e-3 --f0
# poly:0.3,-1i,0.25 --grid 129,97`, against a 65x49 table of the same
# field (lambda interpolated between table nodes) and against delta 0.5,
# recorded before the transport residual became a ResidualReport
VERIFY_TABLE_GOLDEN = {
    ("table", "w"): (0, """mode: fd (transport residual, boundary rim excluded)
max |w_x + lambda*w_y| = 0.155279
relative residual = 0.0299822 (over the largest cancelled term)
threshold 0.05: pass
"""),
    ("table", "uv"): (0, """mode: fd (hx=0.0117188, hy=0.0208333, boundary rim excluded)
max |r1| = 5.50384
max |r2| = 2.00811
relative residual = 0.00150087 (over the largest cancelled term)
threshold 0.05: pass
"""),
    ("0.5", "w"): (2, """mode: fd (transport residual, boundary rim excluded)
max |w_x + lambda*w_y| = 2.6353
relative residual = 0.453634 (over the largest cancelled term)
threshold 0.05: FAIL
"""),
    ("0.5", "uv"): (2, """mode: fd (hx=0.0117188, hy=0.0208333, boundary rim excluded)
max |r1| = 954.264
max |r2| = 0.000981051
relative residual = 0.206821 (over the largest cancelled term)
threshold 0.05: FAIL
"""),
}


def test_verify_table_and_mismatch_stdout_is_byte_identical_to_golden(
        tmp_path, capsys):
    base = tmp_path / "s"
    assert main(["solve", "--delta", "1e-3", "--f0", "poly:0.3,-1i,0.25",
                 "--grid", "129,97", "--out", str(base)]) == 0
    capsys.readouterr()
    table = tmp_path / "table.csv"
    write_field_csv(DeltaField(DeltaFamily(1e-3)), REFERENCE_WINDOW,
                    GridSpec(65, 49), table)
    for (source, kind), golden in VERIFY_TABLE_GOLDEN.items():
        coeffs = (["--field-csv", str(table)] if source == "table"
                  else ["--delta", source])
        got = run(capsys, "verify", *coeffs, f"--{kind}-csv",
                  f"{base}_{kind}.csv")[:2]
        assert got == golden


def test_verify_needs_exactly_one_solution_file(solved, capsys):
    for files in ([], ["--uv-csv", f"{solved}_uv.csv", "--w-csv", f"{solved}_w.csv"]):
        code, out, err = run(capsys, "verify", "--delta", "1", *files)
        assert code == 1 and out == ""
        assert err == "error: give exactly one of --uv-csv or --w-csv\n"


@pytest.mark.parametrize("threshold, shown", [
    ("nan", "nan"), ("inf", "inf"), ("0", "0.0"), ("-1", "-1.0")])
def test_verify_threshold_must_be_finite_and_positive(solved, capsys,
                                                      threshold, shown):
    # a bad argument, not a verdict: nan would read as FAIL (exit 2), 0 and
    # -1 could never pass, and inf would pass any file
    code, out, err = run(capsys, "verify", "--delta", "1", "--uv-csv",
                         f"{solved}_uv.csv", "--threshold", threshold)
    assert code == 1 and out == ""
    assert err == f"error: threshold must be finite and > 0, got {shown}\n"


def test_verify_malformed_csv_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.csv"
    path.write_text("x,y,u\n0,0,1\n")
    code, _, err = run(capsys, "verify", "--delta", "1", "--uv-csv", str(path))
    assert code == 1


# --- beltrami ----------------------------------------------------------------

def test_beltrami_zero_budget(capsys):
    code, out, _ = run(capsys, "beltrami", "--delta", "1", "--n", "32",
                       "--max-iter", "0")
    assert code == 0
    assert "max-iter-reached after 0 iterations" in out


def test_beltrami_bad_n_exits_1(capsys):
    code, _, err = run(capsys, "beltrami", "--delta", "1", "--n", "100")
    assert code == 1
    assert "power of two" in err


def test_beltrami_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "beltrami", "--delta", "1", "--n", "64",
                       "--out", str(trace))
    assert code == 0
    assert "verdict: converged" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,residual"
    assert len(lines) > 2


# trace CSV sha256 and descriptor of `beltrami --delta 0.1 --n 256`, recorded
# from the full-grid fft2/ifft2 sweep (before observed_rate was reported)
BELTRAMI_GOLDEN_CSV = "6b72da54f6cec9addcc085e431ef70edd997a2a976bd6e5999cb76ae91a07f8d"
BELTRAMI_GOLDEN_DESCRIPTOR = {
    "n": 256, "L": 4.0, "delta": 0.1, "margin": 0.4, "tol": 1e-10,
    "max_iter": 300, "sup_mu": 0.9235481451827985, "verdict": "converged",
    "iterations": 146}


def test_beltrami_trace_and_descriptor_are_byte_identical_to_golden(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "beltrami", "--delta", "0.1", "--n", "256",
                       "--out", str(trace))
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == BELTRAMI_GOLDEN_CSV
    descriptor = json.loads(out.splitlines()[0])
    rate = descriptor.pop("observed_rate")
    assert descriptor == BELTRAMI_GOLDEN_DESCRIPTOR
    # the last ten ratios of the trace, read back from the 6-digit CSV
    r = [float(line.split(",")[1]) for line in trace.read_text().splitlines()[-11:]]
    assert rate == pytest.approx((r[-1] / r[0]) ** 0.1, rel=1e-5)
    assert f"near-divergent; observed rate {rate:.6g})" in out


def test_beltrami_verdict_lines_are_byte_identical_to_golden(capsys):
    # recorded while the estimate came from contraction_estimate(sup_mu)
    code, out, _ = run(capsys, "beltrami", "--delta", "0.1", "--n", "256",
                       "--out", "-")
    assert code == 0
    assert out.splitlines()[-2:] == [
        "sup|mu| = 0.923548 (L2 contraction estimate 0.923548, "
        "near-divergent; observed rate 0.90807)",
        "verdict: converged after 146 iterations"]


def test_beltrami_one_sweep_has_no_observed_rate(capsys):
    code, out, _ = run(capsys, "beltrami", "--delta", "1", "--n", "32",
                       "--max-iter", "1")
    assert code == 0
    assert json.loads(out.splitlines()[-3])["observed_rate"] is None
    assert "observed rate n/a" in out


# --- bench -------------------------------------------------------------------

def test_bench_csv_header_and_na(capsys):
    code, out, _ = run(capsys, "bench", "--deltas", "1,1e-4",
                       "--grid", "64,64", "--repetitions", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    assert all(line.endswith(",NA,NA") for line in lines[1:])


def test_bench_records_a_row_that_fails_and_goes_on(capsys):
    # at delta = 1e-310 the solve works but 1/b overflows in to_real_pair
    argv = ["bench", "--deltas", "1e-310,1", "--grid", "16,16",
            "--repetitions", "3"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and out.endswith("}\n")
    bad, good = json.loads(out)["rows"]
    assert bad["error"] == ("NonFiniteCoefficient: non-finite u = inf "
                            "at (x=-0.5, y=-1.0)")
    assert bad["kappa"] is None and bad["char_residual"] is None
    assert good["error"] is None and good["kappa"] > 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert re.fullmatch(r"1e-310,NA,\S+,NA,NA,NA", out.splitlines()[1])


def test_bench_rejects_a_delta_that_is_not_finite_and_positive(capsys):
    # NaN passed `d <= 0` and every row read NA, with exit status 0
    code, out, err = run(capsys, "bench", "--deltas", "nan,1", "--grid", "16,16",
                         "--repetitions", "3")
    assert code == 1 and out == ""
    assert err == "error: delta must be finite and > 0, got nan\n"


def test_bench_flags_override_only_what_they_set(monkeypatch, capsys):
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return bench_mod.BenchReport(config=cfg.to_dict())

    monkeypatch.setattr(bench_mod, "run_benchmark", fake_run)
    assert run(capsys, "bench")[0] == 0
    assert seen[-1] == bench_mod.BenchConfig()
    assert run(capsys, "bench", "--repetitions", "4", "--region",
               "-0.25,0.5,-0.5,0.5", "--beltrami")[0] == 0
    assert seen[-1] == bench_mod.BenchConfig(
        repetitions=4, region=Region(-0.25, 0.5, -0.5, 0.5),
        include_beltrami=True)


# each BenchConfig field, the bench flag that sets it, and a value away
# from the default
BENCH_FLAGS = {
    "deltas": ["--deltas", "1"],
    "region": ["--region", "-0.25,0.5,-0.5,0.5"],
    "grid": ["--grid", "16,16"],
    "f0": ["--f0", "lpow:2"],
    "repetitions": ["--repetitions", "3"],
    "include_beltrami": ["--beltrami"],
}


def test_each_bench_config_field_has_exactly_one_flag(monkeypatch, capsys):
    names = [f.name for f in dataclasses.fields(bench_mod.BenchConfig)]
    assert list(BENCH_FLAGS) == names
    assert {argv[0] for argv in BENCH_FLAGS.values()} == \
        set(OPTION_CENSUS["bench"]) - {"--json", "--out"}
    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        return bench_mod.BenchReport(config=cfg.to_dict())

    # each flag alone moves its own field and no other
    default = bench_mod.BenchConfig()
    with monkeypatch.context() as m:
        m.setattr(bench_mod, "run_benchmark", fake_run)
        for name, argv in BENCH_FLAGS.items():
            assert run(capsys, "bench", *argv)[0] == 0
            assert [n for n in names
                    if getattr(seen[-1], n) != getattr(default, n)] == [name]
    # all six at once, run for real, are recorded in the report's config
    code, out, _ = run(capsys, "bench", *sum(BENCH_FLAGS.values(), []), "--json")
    assert code == 0 and out.endswith("}\n")  # like every other report
    report = json.loads(out)
    assert report["config"] == {
        "deltas": [1.0], "region": [-0.25, 0.5, -0.5, 0.5], "grid": [16, 16],
        "f0": "lpow:2", "repetitions": 3, "include_beltrami": True}
    (row,) = report["rows"]
    assert row["error"] is None and row["beltrami_verdict"] == "converged"


def test_negative_value_tokens_parse_without_equals(capsys):
    # "--region -0.5,1,-1,1" as separate tokens must not be read as a flag
    from rigidpde.cli import _merge_negative_values
    merged = _merge_negative_values(
        ["analyze", "--delta", "1", "--region", "-0.5,1,-1,1"])
    assert "--region=-0.5,1,-1,1" in merged
    # unrelated tokens pass through untouched
    assert _merge_negative_values(["solve", "--out", "-"]) == ["solve", "--out", "-"]
    # a negative non-finite value merges too, in any spelling float() reads,
    # so the error names the value, not "expected one argument"
    for value in ("-inf", "-nan", "-Infinity", "-NaN"):
        assert _merge_negative_values(["--delta", value]) == [f"--delta={value}"]
        code, out, err = run(capsys, "analyze", "--delta", value)
        assert code == 1 and out == ""
        assert err == f"error: delta must be finite and > 0, got {float(value)}\n"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--delta", "1e-3", "--grd", "201,201"],
     "rigidpde: error: unrecognized arguments: --grd 201,201"),
    (["analyze", "--delta", "abc"],
     "rigidpde analyze: error: argument --delta: invalid float value: 'abc'"),
    (["bench", "--repetitions", "x"],
     "rigidpde bench: error: argument --repetitions: invalid int value: 'x'"),
    (["table1", "--csv"], "rigidpde: error: unrecognized arguments: --csv"),
    ([], "rigidpde: error: the following arguments are required: command"),
], ids=["typo", "bad-float", "bad-int", "retired-csv", "no-command"])
def test_usage_errors_exit_1_not_the_verdict_code(capsys, argv, message):
    # 2 is the negative verdict (analyze: not elliptic, verify: FAIL); a
    # typo is a bad argument, which exits 1 with argparse's own message
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: rigidpde")
    assert err.endswith(message + "\n")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["bench", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


# --- option census -----------------------------------------------------------
# Every option has a caller (a test, demo, benchmark workload or README
# line); adding or removing one means editing this census on purpose.
OPTION_CENSUS = {
    "analyze": ["--delta", "--field-csv", "--region", "--grid", "--json",
                "--out"],
    "table1": ["--grid", "--json", "--out"],
    "solve": ["--delta", "--f0", "--region", "--grid", "--out"],
    "verify": ["--delta", "--field-csv", "--uv-csv", "--w-csv", "--threshold"],
    "beltrami": ["--delta", "--n", "--max-iter", "--out"],
    "bench": ["--deltas", "--region", "--grid", "--f0", "--repetitions",
              "--beltrami", "--json", "--out"],
}


def _subparsers():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_options_match_the_census():
    got = {name: [o for a in p._actions for o in a.option_strings
                  if o not in ("-h", "--help")]
           for name, p in _subparsers().items()}
    assert got == OPTION_CENSUS
    assert sum(map(len, got.values())) == 31


def test_value_opts_are_value_taking_options():
    taking = {o for p in _subparsers().values() for a in p._actions
              if a.option_strings and a.nargs != 0 for o in a.option_strings}
    assert _VALUE_OPTS <= taking
