"""The names the benchmark harness looks up in ``gjb`` must keep resolving.

``bench/tracing.py`` wraps each name in its ``ENTRY_POINTS`` with
``getattr``, ``bench/run.py`` calls ``gjb.rng.worker_count()`` on every
run and the harness's self-tests trace through ``gjb.testing.substream``,
so removing one of them breaks the benchmark rather than the library's own
tests. The harness module is only loaded here, never modified or run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gjb.rng

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
    import gjb.testing

    assert gjb.testing.substream is gjb.rng.substream


def test_worker_count_is_int():
    assert isinstance(gjb.rng.worker_count(), int)
