"""The benchmark's patch points still exist on the package, and no more.

perfbench/spans.py times layers by rebinding names that one module imported
from another, and skips a name that is gone, so a renamed function would
silently drop its metrics from a traced run.  perfbench/worker.py reads
worker_count from two modules without a guard.  This test reads spans.py
without writing anything next to it and checks every such name.  A module
that no longer calls such a name keeps it as an unused import marked
"# noqa: F401 ... perfbench"; every such import must name a point the
benchmark reads, so the set can be deleted together when the bench moves.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# the names spans.traced and perfbench/worker.py read besides PATCHES
WORKER_POINTS = [("montecarlo", "_replicate_map"), ("montecarlo", "worker_count"),
                 ("epskeys", "worker_count")]


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
    points = [(mod, attr) for mod, attr, _, _ in spans.PATCHES] + WORKER_POINTS
    missing = [
        f"{mod}.{attr}"
        for mod, attr in points
        if not hasattr(importlib.import_module(f"epsentropy.{mod}"), attr)
    ]
    assert missing == []


def _bench_shims():
    """(module, name) of every import under src/ marked unused for perfbench."""
    found = []
    for path in sorted((ROOT / "src" / "epsentropy").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                line = lines[node.lineno - 1]
                if "noqa: F401" in line and "perfbench" in line:
                    found += [(path.stem, alias.asname or alias.name) for alias in node.names]
    return found


def test_bench_shims_are_exactly_patch_points(spans):
    shims = _bench_shims()
    assert ("estimators", "close_pairs") in shims
    points = {(mod, attr) for mod, attr, _, _ in spans.PATCHES} | set(WORKER_POINTS)
    assert [shim for shim in shims if shim not in points] == []
