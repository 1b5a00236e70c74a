"""Smoke test: the benchmark in perfbench/ still binds to the package.

perfbench/ imports names from rigidpde and routes the cli module's calls
through its own span wrappers; this checks those names and routes without
running a timed op (except one small roundtrip_io op and a solve_large
op on a small grid).
"""

import pathlib
import sys

import pytest

from rigidpde import cli
from rigidpde.analysis import scan_region
from rigidpde.fields import (
    REFERENCE_WINDOW,
    DeltaFamily,
    GridSpec,
    PerturbedDeltaField,
)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
        yield workloads, tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def test_layers_bind_with_and_without_tracer(bench):
    workloads, tracing = bench
    plain = workloads.Layers(None)
    traced = workloads.Layers(tracing.Tracer())
    assert plain.transport_residual is cli.transport_residual
    with traced.cli_traced():
        assert cli.transport_residual is traced.transport_residual
        assert cli.system_residual is traced.residual_fd
        assert cli.read_complex_csv is traced.read_complex_csv
    assert cli.transport_residual is plain.transport_residual


@pytest.mark.parametrize("name", ["triage", "solve_large", "roundtrip_io",
                                  "baseline"])
def test_workloads_construct_and_draw_a_period(bench, name, tmp_path):
    workloads, _ = bench
    wl = workloads.WORKLOADS[name](1001, str(tmp_path),
                                   workloads.Layers(None))
    ops = [wl.params(i) for i in range(wl.period)]
    assert len(ops) == wl.period and len(wl.warm_up_ops()) >= 1


def test_traced_field_scans_like_the_bare_field(bench):
    _, tracing = bench
    field = PerturbedDeltaField(DeltaFamily(0.1), 0.01)
    traced = tracing.TracedField(field, tracing.Tracer())
    grid = GridSpec(21, 21)
    assert repr(scan_region(traced, REFERENCE_WINDOW, grid).to_dict()) == \
        repr(scan_region(field, REFERENCE_WINDOW, grid).to_dict())


def test_roundtrip_io_op_verifies_through_the_traced_routes(bench, tmp_path):
    workloads, tracing = bench
    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS["roundtrip_io"](1001, str(tmp_path),
                                            workloads.Layers(tracer))
    op = wl.params(0)
    result = wl.run(op)
    assert wl.check(op, result, first=True) in (
        workloads.OK, workloads.DEFECT_VERIFY_THRESHOLD)
    names = {span["name"] for span in tracer.spans}
    assert {"cli.verify", "transport.transport_residual"} <= names


@pytest.mark.parametrize("traced", [False, True])
def test_solve_large_op_checks_through_both_layers(bench, tmp_path, traced):
    # the op's analytic residual asks (u, v) for its partials block by
    # block, through the traced field and the traced wrappers too
    workloads, tracing = bench
    tracer = tracing.Tracer() if traced else None
    wl = workloads.WORKLOADS["solve_large"](1001, str(tmp_path),
                                           workloads.Layers(tracer))
    wl.grid = GridSpec(65, 65)
    op = wl.params(0)
    result = wl.run(op)
    assert wl.check(op, result, first=True) == workloads.OK
    if traced:
        spans = {span["name"]: span for span in tracer.spans}
        assert {"transport.solve", "transport.to_real_pair",
                "transport.system_residual_analytic",
                "fields.values"} <= spans.keys()
        assert spans["transport.solve"]["bytes"] == 3 * 16 * 65 * 65
