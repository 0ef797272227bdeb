"""The benchmark's patch points still exist on the package.

perfbench/spans.py times layers by rebinding names that one module imported
from another, and skips a name that is gone, so a renamed function would
silently drop its metrics from a traced run.  perfbench/worker.py reads
worker_count from two modules without a guard.  This test reads spans.py
without writing anything next to it and checks every such name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_spans_patch_points_exist(spans):
    points = [(mod, attr) for mod, attr, _, _ in spans.PATCHES]
    points += [("montecarlo", "_replicate_map"), ("montecarlo", "worker_count"),
               ("epskeys", "worker_count")]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in points
        if not hasattr(importlib.import_module(f"epsentropy.{mod}"), attr)
    ]
    assert missing == []
