"""The exported surface: every name in an ``__all__`` resolves, and names
removed from the library stay gone rather than lingering as stale exports."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import gjb
import gjb.cli
import gjb.io
import gjb.testing

MODULES = [gjb] + [
    importlib.import_module(f"gjb.{info.name}") for info in pkgutil.iter_modules(gjb.__path__)
]
EXPORTS = [
    (module.__name__, name) for module in MODULES for name in getattr(module, "__all__", ())
]

REMOVED = [
    ("gjb", "half_normal_moments"),
    ("gjb", "standard_normal_moments"),
    ("gjb.distributions", "half_normal_moments"),
    ("gjb.distributions", "standard_normal_moments"),
    ("gjb.distributions", "HALF_NORMAL_MEAN"),
    ("gjb.testing", "_campaign"),
    ("gjb.rng", "_usable_cores"),
    ("gjb", "CampaignResult"),
    ("gjb.testing", "CampaignResult"),
    ("gjb.distributions", "fill_sn"),
    ("gjb", "simulate_true_model"),
    ("gjb", "estimate_alpha_with_flag"),
    ("gjb", "legacy_influence_polynomials"),
]


@pytest.mark.parametrize("module,name", EXPORTS)
def test_export_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", [m.__name__ for m in MODULES if hasattr(m, "__all__")])
def test_exports_are_listed_once(module):
    names = importlib.import_module(module).__all__
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module,name", REMOVED)
def test_removed_name_is_gone(module, name):
    mod = importlib.import_module(module)
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", ())


def test_report_has_no_settable_schema_version():
    assert not hasattr(gjb.io.Report, "from_dict")
    assert "schema_version" not in {f.name for f in dataclasses.fields(gjb.io.Report)}
    report = gjb.io.Report(command="x", payload={})
    assert report.to_dict()["schema_version"] == gjb.io.SCHEMA_VERSION


@pytest.mark.parametrize(
    "cls,name,instance,value",
    [
        (gjb.testing.DecisionOutcome, "duplication_factor",
         gjb.testing.DecisionOutcome(
             "inconclusive", 1.0, 0.6, 2.0, False,
             gjb.testing.run_test([0.0, 1.0, 3.0], 0.0, duplication_factor=3)), 3),
        (gjb.testing.SizeSearchResult, "capped",
         gjb.testing.SizeSearchResult(n=None), True),
        (gjb.testing.SizeSearchResult, "capped",
         gjb.testing.SizeSearchResult(n=40), False),
        (gjb.io.SampleFile, "parsed_rows",
         gjb.io.SampleFile(values=np.zeros(3), skipped_rows=1), 3),
        # read off the sample's own size, not the 15000 values of its copies
        (gjb.testing.DecisionOutcome, "ci_method",
         gjb.testing.DecisionOutcome(
             "inconclusive", 1.0, 0.6, 2.0, False,
             gjb.testing.run_test([0.0, 1.0, 3.0], 0.0, duplication_factor=5000)),
         "bootstrap"),
    ],
)
def test_derived_value_is_a_property_not_a_field(cls, name, instance, value):
    # stored once: the value is read off the object's own data
    assert name not in {f.name for f in dataclasses.fields(cls)}
    assert getattr(instance, name) == value
    with pytest.raises(AttributeError):
        setattr(instance, name, value)


def test_cli_imports_no_private_library_name():
    # the CLI is a client of the library's public surface
    tree = ast.parse(Path(gjb.cli.__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("gjb"))
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []
