import dataclasses
import json

import pytest

from rigidpde.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchReport,
    BenchRow,
    emit_report,
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
    base = dict(deltas=(1.0, 1e-4), grid=GridSpec(64, 64), repetitions=3,
                scan_nominal=101)
    base.update(overrides)
    return BenchConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(deltas=())
    with pytest.raises(ValueError):
        BenchConfig(deltas=(1.0, -1.0))
    with pytest.raises(ValueError):
        BenchConfig(repetitions=2)


def test_config_dict_roundtrip():
    cfg = small_config(f0="lpow:2", include_beltrami=True)
    again = BenchConfig.from_dict(cfg.to_dict())
    assert again.deltas == cfg.deltas
    assert again.grid == cfg.grid
    assert again.f0 == "lpow:2"
    assert again.include_beltrami is True
    # every field set away from its default survives the round trip,
    # through JSON text too
    cfg = BenchConfig(deltas=(0.5, 1e-3), region=Region(-0.25, 0.5, -0.5, 0.75),
                      grid=GridSpec(33, 17), f0="exp:0.5+0.5i,0",
                      repetitions=4, include_beltrami=True, scan_nominal=51,
                      beltrami_n=64, beltrami_L=3.0, beltrami_tol=1e-8,
                      beltrami_max_iter=17)
    defaults = BenchConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in dataclasses.fields(BenchConfig))
    assert BenchConfig.from_dict(cfg.to_dict()) == cfg
    assert BenchConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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
                           aligned_gridspec(cfg.region, 101, 101))
        assert row.kappa == condition_number(scan.sup_mu)


def test_run_benchmark_kappa_span():
    report = run_benchmark(small_config())
    kappas = [r.kappa for r in report.rows]
    assert kappas[1] / kappas[0] > 1e7  # >= 8 orders over {1, 1e-4} combined


def test_benchmark_with_beltrami_columns():
    cfg = small_config(deltas=(1.0,), include_beltrami=True, beltrami_n=64,
                       beltrami_max_iter=200)
    report = run_benchmark(cfg)
    row = report.rows[0]
    assert row.beltrami_verdict == "converged"
    assert row.beltrami_iters > 0


def test_emit_csv_header_and_na_cells():
    report = BenchReport(config={}, rows=[
        BenchRow(delta=1.0, kappa=18.0, char_time_s=0.001,
                 char_residual=1e-4),
    ])
    text = emit_report(report, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "delta,kappa,char_time_s,char_residual,beltrami_iters,beltrami_verdict"
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith(",NA,NA")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_json_roundtrip_is_lossless():
    report = run_benchmark(small_config(deltas=(0.5,)))
    again = BenchReport.from_json(report.to_json())
    assert again.config == report.config
    assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in report.rows]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_per_row_failures_are_recorded():
    # a region outside the table's domain cannot occur for the built-in
    # family, but a nonsensical f0 power fails at config parse time;
    # per-row capture is exercised through an extreme delta overflowing exp
    cfg = small_config(deltas=(1.0,), f0="exp:1e308,0")
    report = run_benchmark(cfg)
    row = report.rows[0]
    assert row.error is not None
    text = emit_report(report, "csv")
    assert text.splitlines()[1].startswith("1,")
