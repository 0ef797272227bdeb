"""Benchmark of the epsentropy CLI: estimate, simulate and keys, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

The program is imported from src/ of the checkout that holds this directory.
Each workload is a closed loop with one caller (see workloads.py).  With
--workload all each workload in turn gets the full T seconds.

--trace 0 starts one fresh process that sets up (imports numpy and
epsentropy, writes the inputs from the seed) and then invokes the CLI
in-process for T seconds.  Between invocations it runs SETUP_SAMPLES - 1
set-up-only processes, one at a time and spread over the T seconds.
Reported: wall_ref_s, the median over invocations of the wall time;
peak_rss_mb, the getrusage peak of the measuring process; setup_s, the
median over all SETUP_SAMPLES processes.  Both times are scaled to the
reference machine speed by the speed probe of worker.py (REF_PROBE_S), as
this shared host's speed drifts by a third or more between runs; their unscaled
medians are printed beside them.
fail_ratio (invocations that exit non-zero or fail the output check, over
invocations attempted) is printed too; the final line carries it as
`failed` / `attempted`.

--trace 1 runs one process that alternates untraced and traced invocations
for T seconds and reports the per-layer metrics of spans.py, the tracing
overhead, and for simulate_small_reps the RENYI_THREADS=1 versus 2 speed-up.

Every output is checked by oracle.py, which uses neither scipy nor the
program.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the full record,
including the machine facts.  golden.json holds the outputs recorded at the
golden seed on the commit that added this benchmark; it is data, not
regenerated by any option here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracle import OutputChecker, self_check  # noqa: E402
from workloads import GOLDEN_SEED, NOTES, WORKLOADS, input_table  # noqa: E402

SETUP_SAMPLES = 21
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _spawn_worker(root, workdir, workload, seed, seconds, trace, setups, deadline) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workdir", workdir, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace), "--setups", str(setups)]
    # its own process group, so a timeout also ends the set-up-only children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=root, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _check_outputs(rec, checker) -> tuple[int, int, list[str]]:
    failed = 0
    problems: list[str] = []
    for path, code in zip(rec["outputs"], rec["exit_codes"]):
        found = [f"exit code {code}"] if code != 0 else []
        if not found:
            try:
                with open(path) as fh:
                    found = checker.check(json.load(fh))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable result: {exc!r}"]
        if found:
            failed += 1
            problems.extend(f"{os.path.basename(path)}: {p}" for p in found[:5])
    return len(rec["outputs"]), failed, problems


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = 0 if trace else SETUP_SAMPLES - 1
        rec = _spawn_worker(root, workdir, workload, seed, seconds, trace, setups, deadline)
        checker = OutputChecker(workload, seed, input_table(workload, seed))
        attempted, failed, problems = _check_outputs(rec, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "facts": rec["facts"],
        "walls": rec["walls"],
        "setups": rec["setups"],
        "walls_ref": rec.get("walls_ref"),
        "setups_ref": rec.get("setups_ref"),
        "peak_rss_mb": rec["peak_rss_mb"],
        "notes": NOTES[workload],
    }
    if trace:
        result["traced_walls"] = rec["traced_walls"]
        result["spans"] = rec["spans"]
        result["metrics"] = {name: {"value": v, "unit": u}
                             for name, (v, u) in sorted(rec["layers"].items())}
    else:
        result["metrics"] = {
            "wall_ref_s": {"value": statistics.median(rec["walls_ref"]), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(rec["setups_ref"]), "unit": "s"},
        }
    return result


def _timing_note(values: list[float]) -> str:
    # the highest percentile reported is one with ten samples beyond it
    v, n = sorted(values), len(values)
    if n < 20:
        return f"median of {n}; too few samples for a higher percentile"
    return f"median of {n}; p{100 * (1 - 10 / n):.4g} {v[n - 11]:.6g} s"


def _print_summary(res: dict) -> None:
    print(f"{res['workload']}  seed {res['seed']}  {res['attempted']} invocations checked")
    for name, m in res["metrics"].items():
        note = f"  ({_timing_note(res['walls_ref'])})" if name == "wall_ref_s" else ""
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}{note}")
    if "wall_ref_s" in res["metrics"]:
        for name, raw in (("wall_s", res["walls"]), ("setup_s", res["setups"])):
            print(f"  {name + ' (unscaled)':<40} {statistics.median(raw):.6g} s  "
                  f"({_timing_note(raw)})")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<40} {ratio:.6g} ({res['failed']}/{res['attempted']})")
    for p in res["problems"]:
        print(f"  check failed: {p}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be nonnegative")

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "epsentropy", "cli.py")):
        print(f"error: {root} holds no src/epsentropy; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        selfcheck = self_check()
        for p in selfcheck:
            print(f"oracle self-check failed: {p}", file=sys.stderr)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
        results = [run_workload(root, w, args.seed, args.seconds, args.trace, deadline)
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for res in results:
        _print_summary(res)
    print(json.dumps({"record": results, "oracle_self_check": selfcheck or "ok"}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and not selfcheck, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
