import dataclasses
import json
import re

import pytest

from rigidpde.beltrami import delta_sweep
from rigidpde.bench import (
    CSV_HEADER,
    SCAN_NOMINAL,
    _CONFIG_TYPES,
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
                      repetitions=4, include_beltrami=True)
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


def test_config_from_dict_names_unknown_keys():
    # a typo, and a field that configs could set before the baseline was fixed
    for key in ("beltrami_tl", "beltrami_tol"):
        with pytest.raises(ValueError, match=f"unknown bench config keys: {key}$"):
            BenchConfig.from_dict({"deltas": [1.0], key: 1e-3})
    with pytest.raises(ValueError, match="must be a JSON object"):
        BenchConfig.from_dict([1.0])


def test_every_config_field_has_a_json_type():
    assert list(_CONFIG_TYPES) == [f.name for f in dataclasses.fields(BenchConfig)]


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
    again = json.loads(report.to_json())
    assert again["config"] == report.config
    assert again["rows"] == [dataclasses.asdict(r) for r in report.rows]


def test_per_row_failures_are_recorded():
    # a region outside the table's domain cannot occur for the built-in
    # family, but a nonsensical f0 power fails at config parse time;
    # per-row capture is exercised through an f0 whose exp overflows, which
    # the solve rejects naming w and its first bad node, without a warning
    cfg = small_config(deltas=(1.0,), f0="exp:1e308,0")
    report = run_benchmark(cfg)
    row = report.rows[0]
    assert re.match(r"NonFiniteCoefficient: non-finite w = .* at \(x=\S+, y=\S+\)$",
                    row.error)
    text = emit_report(report, "csv")
    assert text.splitlines()[1].startswith("1,")
