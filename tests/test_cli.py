import json
import re

import numpy as np
import pytest

from rigidpde.cli import main
from rigidpde.fields import (
    DeltaFamily,
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


def test_csv_flag_is_accepted(capsys):
    code, out, _ = run(capsys, "table1", "--grid", "101,101", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "delta,inf_mu,sup_mu,kappa"


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


def test_solve_rejects_bad_f0(capsys):
    code, _, err = run(capsys, "solve", "--delta", "1", "--f0", "nope:1",
                       "--out", "/tmp/never")
    assert code == 1
    assert "poly:" in err  # grammar help in the message


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


def test_beltrami_trace_csv(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "beltrami", "--delta", "1", "--n", "64",
                       "--out", str(trace))
    assert code == 0
    assert "verdict: converged" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,residual"
    assert len(lines) > 2


# --- bench -------------------------------------------------------------------

def test_bench_csv_header_and_na(capsys):
    code, out, _ = run(capsys, "bench", "--deltas", "1,1e-4",
                       "--grid", "64,64", "--repetitions", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    assert all(line.endswith(",NA,NA") for line in lines[1:])


def test_bench_config_file(tmp_path, capsys):
    cfg = {"deltas": [1.0], "region": [-0.5, 1, -1, 1], "grid": [64, 64],
           "f0": "lpow:2", "repetitions": 3, "include_beltrami": False,
           "scan_nominal": 101}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "bench", "--config", str(path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["f0"] == "lpow:2"
    assert report["rows"][0]["error"] is None


def test_negative_value_tokens_parse_without_equals():
    # "--region -0.5,1,-1,1" as separate tokens must not be read as a flag
    from rigidpde.cli import _merge_negative_values
    merged = _merge_negative_values(
        ["analyze", "--delta", "1", "--region", "-0.5,1,-1,1"])
    assert "--region=-0.5,1,-1,1" in merged
    # unrelated tokens pass through untouched
    assert _merge_negative_values(["solve", "--out", "-"]) == ["solve", "--out", "-"]
