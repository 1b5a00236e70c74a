"""Every library knob has a caller.

The constructor and config values below are each set by a CLI path, a
demo, a benchmark workload or a README line; everything else is a module
constant.  Adding or removing a knob means editing this census on
purpose, as the option census in test_cli does for CLI options.
"""

import dataclasses
import inspect

from rigidpde.beltrami import BeltramiProblem, TorusGrid
from rigidpde.bench import BenchConfig
from rigidpde.fields import (CallableField, CoefficientField, DeltaField,
                             PerturbedDeltaField)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_bench_config_fields_match_the_census():
    assert names(BenchConfig) == ["deltas", "region", "grid", "f0",
                                  "repetitions", "include_beltrami"]


def test_beltrami_fields_match_the_census():
    assert names(TorusGrid) == ["n"]
    assert names(BeltramiProblem) == ["mu", "grid", "max_iter"]


def test_callable_field_parameters_match_the_census():
    params = inspect.signature(CallableField).parameters
    assert list(params) == ["alpha_fn", "beta_fn"]


def test_check_domain_parameters_match_the_census():
    params = inspect.signature(CoefficientField.check_domain).parameters
    assert list(params) == ["self", "x", "y"]


def test_the_fixtures_old_name_is_the_family_class():
    assert PerturbedDeltaField is DeltaField
