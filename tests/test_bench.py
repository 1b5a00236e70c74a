import dataclasses
import json
import re

import pytest

from rigidpde.beltrami import delta_sweep
from rigidpde.bench import (
    CSV_HEADER,
    SCAN_NOMINAL,
    BenchConfig,
    BenchReport,
    BenchRow,
    run_benchmark,
)
from rigidpde.analysis import condition_number, scan_region
from rigidpde.fields import (
    DeltaFamily,
    DeltaField,
    GridSpec,
    Region,
    aligned_gridspec,
)


def small_config(**overrides):
    base = dict(deltas=(1.0, 1e-4), grid=GridSpec(64, 64), repetitions=3)
    base.update(overrides)
    return BenchConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(deltas=())
    with pytest.raises(ValueError):
        BenchConfig(deltas=(1.0, -1.0))
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError,
                           match=f"^delta must be finite and > 0, got {bad!r}$"):
            BenchConfig(deltas=(1.0, bad))
    with pytest.raises(ValueError):
        BenchConfig(repetitions=2)


def test_config_dict_roundtrip():
    # every field, set away from its default, is recorded as a plain JSON
    # value in field order, and survives JSON text unchanged
    cfg = BenchConfig(deltas=(0.5, 1e-3), region=Region(-0.25, 0.5, -0.5, 0.75),
                      grid=GridSpec(33, 17), f0="exp:0.5+0.5i,0",
                      repetitions=4, include_beltrami=True)
    defaults = BenchConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(BenchConfig))
    expected = {"deltas": [0.5, 1e-3], "region": [-0.25, 0.5, -0.5, 0.75],
                "grid": [33, 17], "f0": "exp:0.5+0.5i,0", "repetitions": 4,
                "include_beltrami": True}
    assert cfg.to_dict() == expected
    text = json.dumps(cfg.to_dict())
    assert text == json.dumps(expected)
    assert json.loads(text) == expected


def test_run_benchmark_rows_and_cross_module_kappa():
    cfg = small_config()
    report = run_benchmark(cfg)
    assert [r.delta for r in report.rows] == [1.0, 1e-4]
    for row in report.rows:
        assert row.error is None
        assert row.char_time_s > 0
        assert row.char_residual > 0
        assert row.beltrami_iters is None and row.beltrami_verdict is None
        # kappa agrees exactly with a fresh scan at the same resolution
        scan = scan_region(DeltaField(DeltaFamily(row.delta)), cfg.region,
                           aligned_gridspec(cfg.region, SCAN_NOMINAL,
                                            SCAN_NOMINAL))
        assert row.kappa == condition_number(scan.sup_mu)


def test_run_benchmark_kappa_span():
    report = run_benchmark(small_config())
    kappas = [r.kappa for r in report.rows]
    assert kappas[1] / kappas[0] > 1e7  # >= 8 orders over {1, 1e-4} combined


def test_benchmark_with_beltrami_columns():
    cfg = small_config(deltas=(1.0,), include_beltrami=True)
    report = run_benchmark(cfg)
    row = report.rows[0]
    assert row.beltrami_verdict == "converged"
    assert row.beltrami_iters > 0
    # the baseline is the one fixed Neumann configuration of delta_sweep
    trace = delta_sweep((1.0,))[1.0]
    assert (row.beltrami_iters, row.beltrami_verdict) == \
        (trace.iterations, trace.verdict)


def test_emit_csv_header_and_na_cells():
    report = BenchReport(config={}, rows=[
        BenchRow(delta=1.0, kappa=18.0, char_time_s=0.001,
                 char_residual=1e-4),
    ])
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",NA,NA")


def test_json_roundtrip_is_lossless():
    report = run_benchmark(small_config(deltas=(0.5,)))
    again = json.loads(json.dumps(report.to_dict()))
    assert again["config"] == report.config
    assert again["rows"] == [dataclasses.asdict(r) for r in report.rows]


def test_per_row_failures_are_recorded():
    # a region outside the table's domain cannot occur for the built-in
    # family, and a malformed f0 fails in run_benchmark before any row;
    # per-row capture is exercised through an f0 whose exp overflows, which
    # the solve rejects naming w and its first bad node, without a warning
    cfg = small_config(deltas=(1.0,), f0="exp:1e308,0")
    report = run_benchmark(cfg)
    row = report.rows[0]
    assert re.match(r"NonFiniteCoefficient: non-finite w = .* at \(x=\S+, y=\S+\)$",
                    row.error)
    assert report.to_csv().splitlines()[1].startswith("1,")


def test_a_failing_delta_fails_only_its_own_row():
    # exp(2000i * lambda) overflows at delta 1 but not at delta 1e-4
    report = run_benchmark(small_config(grid=GridSpec(33, 33), f0="exp:2000i,0"))
    bad, good = report.rows
    assert re.match(r"NonFiniteCoefficient: non-finite w = .* at \(x=\S+, y=\S+\)$",
                    bad.error)
    assert (bad.kappa, bad.char_time_s, bad.char_residual) == (None, None, None)
    assert good.error is None
    assert good.char_time_s > 0.0 and good.kappa > 1e8
