"""The traced benchmark run ends in one strict JSON result.

perfbench/run.py is read by whatever compares two checkouts, which parses
only its last stdout line.  A run that exits 0 but ends in anything else
(a warning, a summary line, a NaN metric) cannot be compared, so this test
runs every workload traced for the shortest possible time and checks that
line.  It runs with PYTHONDONTWRITEBYTECODE=1 and checks that nothing under
perfbench/ was written: the run's own work directory lives under the
git-ignored .perfbench_work/ and run.py removes it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.stat().st_mtime_ns for p in path.rglob("*")}


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def test_traced_run_ends_in_a_strict_json_result():
    before = _tree(PERFBENCH)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]
    bad = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if isinstance(m["value"], bool)
        or not isinstance(m["value"], (int, float))
        or not math.isfinite(m["value"])
    }
    assert bad == {}
    assert _tree(PERFBENCH) == before
