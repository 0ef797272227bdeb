"""One fresh process: set up, then run one workload through epsentropy.cli.main.

    python3 perfbench/worker.py --root R --workdir D --workload W --seed S \
        --seconds T --trace 0|1 [--setups K]

Set-up is timed from the top of this file: importing numpy and epsentropy and
writing the workload's inputs from the seed.  Then the worker invokes the CLI
in a closed loop, starting an invocation only while the longest one so far
would still end within T seconds; each result goes to its own file under D.
Each invocation sits between two speed probes (see REF_PROBE_S).  Between
invocations it runs K set-up-only copies of itself, one after another and
spread evenly over the T seconds, so the set-up samples span the run.
T = 0 stops after set-up.  With --trace 1 it alternates an untraced and a
traced invocation instead (at least one pair), and for simulate_small_reps
also times untraced invocations at RENYI_THREADS=1 and 2.  The last line of stdout
is one JSON record for run.py; run.py checks the result files.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

SETUP_TIMEOUT_S = 60.0

# Speed probe.  On a shared host each vCPU slows down by up to 1.7x, on its
# own, for seconds to minutes at a time, and CPU time slows with it, so raw
# times of the same code drift by a third between runs.  A fixed kernel of
# the program's kind of work (a Python loop of wide-integer bit operations,
# as in the lagged-triple path), timed on the calling thread's CPU just
# before and just after each timed step, tracks that drift; it never changes
# with the program.  REF_PROBE_S is its time on an uncontended 2-vCPU Xeon
# KVM guest with Python 3.11, so a scaled time reads as seconds on that
# machine.
REF_PROBE_S = 0.0080


def speed_probe(np):
    """A function that times the fixed kernel on the calling thread's CPU, in s."""
    rng = np.random.default_rng(0)
    pairs = list(zip(rng.integers(0, 3_000, 40_000).tolist(),
                     rng.integers(0, 3_000, 40_000).tolist()))

    def kernel() -> int:
        masks = [0] * 3_000
        for a, b in pairs:
            masks[a] |= 1 << b
        return sum(m.bit_count() for m in masks)

    def probe() -> float:
        kernel()
        t0 = time.perf_counter()
        kernel()
        kernel()
        return (time.perf_counter() - t0) / 2

    return probe


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import epsentropy
    import epsentropy.cli

    where = os.path.realpath(epsentropy.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"epsentropy was imported from {where}, not from {src}")
    return epsentropy


def thread_speedup(invoke) -> float:
    """Wall at RENYI_THREADS=1 over wall at 2, from the order 1, 2, 2, 1."""
    saved = os.environ.get("RENYI_THREADS")
    walls = {"1": 0.0, "2": 0.0}
    try:
        for threads in ("1", "2", "2", "1"):
            os.environ["RENYI_THREADS"] = threads
            walls[threads] += invoke()
    finally:
        if saved is None:
            os.environ.pop("RENYI_THREADS", None)
        else:
            os.environ["RENYI_THREADS"] = saved
    return walls["1"] / walls["2"]


def setup_only(args) -> float:
    """Set-up time of a fresh copy of this worker that stops after set-up."""
    workdir = os.path.join(args.workdir, "setup")
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--root", args.root, "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setups", type=int, default=0)
    args = ap.parse_args()

    import numpy as np

    pkg = _import_program(args.root)
    from workloads import build_inputs, cli_argv

    files = build_inputs(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - _T0

    from spans import Tracer, layer_metrics, summary, traced

    workers: dict[str, int] = {}
    for mod in ("montecarlo", "epskeys"):
        module = getattr(pkg, mod)
        original = module.worker_count

        def recording(n_tasks, _mod=mod, _original=original):
            workers[_mod] = _original(n_tasks)
            return workers[_mod]

        module.worker_count = recording

    outputs: list[str] = []
    codes: list[int] = []

    def invoke() -> float:
        out = os.path.join(args.workdir, f"out-{os.getpid()}-{len(outputs)}.json")
        argv = cli_argv(args.workload, files, out)
        gc.collect()
        t0 = time.perf_counter()
        code = pkg.cli.main(argv)
        wall = time.perf_counter() - t0
        outputs.append(out)
        codes.append(code)
        return wall

    record = {"setup_s": setup_s, "setups": [setup_s], "walls": []}
    start = time.perf_counter()

    def time_left(step: float) -> bool:
        # start another step only if it should end within the time budget
        return time.perf_counter() - start + step <= args.seconds

    def setups_due() -> bool:
        # the k-th set-up-only copy is due once k / (K + 1) of the run has passed
        done = len(record["setups"])
        return done <= args.setups and (
            time.perf_counter() - start >= args.seconds * done / (args.setups + 1))

    if not args.trace and args.seconds > 0:
        probe = speed_probe(np)
        probes = [probe()]
        record.update(walls_ref=[], setups_ref=[setup_s * REF_PROBE_S / probes[0]])

        def timed(step, raw: list, ref: list) -> None:
            # scaled by the mean of the probes just before and just after the step
            t = step()
            probes.append(probe())
            raw.append(t)
            ref.append(t * REF_PROBE_S * 2 / (probes[-2] + probes[-1]))

        def set_up() -> None:
            timed(lambda: setup_only(args), record["setups"], record["setups_ref"])

        while time_left(max(record["walls"], default=0.0)):
            timed(invoke, record["walls"], record["walls_ref"])
            while setups_due():
                set_up()
        while len(record["setups"]) <= args.setups:
            set_up()
    elif args.trace:
        tracer = Tracer()
        traced_walls, cpu = [], 0.0
        while not traced_walls or time_left(record["walls"][-1] + traced_walls[-1]):
            record["walls"].append(invoke())
            with traced(pkg, tracer):
                c0 = time.process_time()
                traced_walls.append(invoke())
                cpu += time.process_time() - c0
    workers_used = dict(workers)

    if args.trace:
        k = len(traced_walls)
        layers = layer_metrics(tracer.spans, k, tracer.patched)
        layers["proc.cpu_s"] = (cpu / k, "s")
        layers["proc.cpu_util"] = (cpu / sum(traced_walls), "ratio")
        layers["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(record["walls"]), "s")
        layers["montecarlo.workers"] = (workers_used.get("montecarlo", 0), "count")
        layers["montecarlo.speedup_2v1"] = (
            thread_speedup(invoke) if args.workload == "simulate_small_reps" else 0.0, "ratio")
        record["traced_walls"] = traced_walls
        record["spans"] = summary(tracer.spans)
        record["layers"] = layers

    record.update(
        outputs=outputs,
        exit_codes=codes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        facts={
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "RENYI_THREADS": os.environ.get("RENYI_THREADS"),
            "montecarlo_workers": workers_used.get("montecarlo"),
            "epskeys_workers": workers_used.get("epskeys"),
        },
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
