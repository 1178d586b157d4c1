"""The names the benchmark harness looks up in ``gjb`` must keep resolving.

``bench/tracing.py`` wraps each name in its ``ENTRY_POINTS`` with
``getattr``, ``bench/run.py`` calls ``gjb.rng.worker_count()`` on every
run and the harness's self-tests trace through ``gjb.testing.substream``,
so removing one of them breaks the benchmark rather than the library's own
tests. The tracer's counters also read arguments and results by name, so
the parameters and fields they read are pinned too. The harness module is
only loaded here, never modified or run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import gjb.io
import gjb.rng
import gjb.testing

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("gjb_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module,name",
    [(m, n) for m, names in load_tracing().ENTRY_POINTS.items() for n in names],
)
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"gjb.{module}"), name))


def test_testing_binds_substream():
    # bench/tests/test_bench.py traces through this binding
    assert gjb.testing.substream is gjb.rng.substream


def test_worker_count_is_int():
    assert isinstance(gjb.rng.worker_count(), int)


def test_bootstrap_counter_binds_sample_and_resamples():
    # the tracer sizes the bootstrap as resamples * len(sample)
    bound = inspect.signature(gjb.testing.duplication_decision).bind(np.zeros(4))
    bound.apply_defaults()
    assert bound.arguments["resamples"] * np.size(bound.arguments["sample"]) == 4000


def test_campaign_config_has_replications():
    fields = {f.name for f in dataclasses.fields(gjb.testing.CampaignConfig)}
    assert "replications" in fields


def test_read_sample_csv_reports_parsed_rows(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("value\n1.0\n2.5\n-3.0\n")
    assert gjb.io.read_sample_csv(str(path)).parsed_rows == 3
