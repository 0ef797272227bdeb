"""Spans around the calls one epsentropy module makes into another.

The program carries no tracing of its own, so the bench times each layer
from outside: for the traced invocation it rebinds the names a module
imported from another module (for example `epsentropy.estimators.close_pairs`)
to timing wrappers, and puts the originals back afterwards.  Nothing under
`src/` changes and untraced invocations run the original functions.

A span records its name, its parent span, its thread, wall time and thread
CPU time (`time.thread_time`).  Wall minus CPU is the span's wait, which is
how time spent waiting for the interpreter lock shows.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name, hit counter or None).  A module that no
# longer has the attribute is skipped, so its metrics are absent, not zero.
PATCHES = (
    ("estimators", "count_close_pairs", "paircount.count_close_pairs", lambda r: r.n_pairs_close),
    ("estimators", "close_pairs", "paircount.close_pairs", lambda r: len(r[0])),
    ("estimators", "_adjacency_masks", "paircount.adjacency", None),
    ("estimators", "_uh_count_from_masks", "paircount.triples", None),
    ("epskeys", "count_close_pairs", "paircount.count_close_pairs", lambda r: r.n_pairs_close),
    ("asymptotics", "min_interpoint_distance", "paircount.min_interpoint_distance", None),
    ("cli", "estimate_report", "estimators.estimate_report", None),
    ("montecarlo", "estimate_report", "estimators.estimate_report", None),
    ("cli", "read_sample_csv", "core.read_sample_csv", lambda r: r.n),
    ("cli", "exp_pivot_ci", "asymptotics.exp_pivot_ci", None),
    ("cli", "_emit", "cli.emit", None),
    ("montecarlo", "generate", "processes.generate", None),
    ("montecarlo", "ks_test", "montecarlo.ks_test", None),
    ("epskeys", "evaluate_subset", "epskeys.evaluate_subset", None),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    wall: float
    cpu: float
    hits: int | None


class Tracer:
    """In-memory span store; parents follow a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.patched: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def current(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def wrap(self, name, fn, hits=None, parent_of=None):
        """fn timed as a span; parent_of() names the parent for pool threads."""

        def timed(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else (parent_of() if parent_of else None)
            span_id = next(self._ids)
            stack.append(span_id)
            w0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall, cpu = time.perf_counter() - w0, time.thread_time() - c0
                stack.pop()
            span = Span(span_id, parent, name, threading.get_ident(), wall, cpu,
                        None if hits is None else int(hits(result)))
            with self._lock:
                self.spans.append(span)
            return result

        return timed


@contextmanager
def traced(package, tracer: Tracer):
    """Rebind PATCHES (plus the replicate task) on the imported package."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for mod_name, attr, name, hits in PATCHES:
            module = getattr(package, mod_name)
            if hasattr(module, attr):
                rebind(module, attr, tracer.wrap(name, getattr(module, attr), hits))
                tracer.patched.add(name)
        mc = package.montecarlo
        if hasattr(mc, "_replicate_map"):
            original_map = mc._replicate_map

            def replicate_map(n_sim, base_seed, task):
                # replicates run on pool threads, whose stacks start empty
                caller = tracer.current()
                return original_map(
                    n_sim, base_seed,
                    tracer.wrap("montecarlo.replicate", task, parent_of=lambda: caller),
                )

            rebind(mc, "_replicate_map", replicate_map)
            tracer.patched.add("montecarlo.replicate")
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def summary(spans) -> dict:
    """Per span name: calls, summed wall and CPU seconds, distinct threads."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "threads": set()})
        row["calls"] += 1
        row["wall_s"] += s.wall
        row["cpu_s"] += s.cpu
        row["threads"].add(s.thread)
    for row in out.values():
        row["threads"] = len(row["threads"])
    return dict(sorted(out.items()))


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


def _total(spans, name):
    return sum(s.wall for s in _by_name(spans, name))


def _quantile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, invocations: int, patched: set[str]) -> dict[str, tuple[float, str]]:
    """Per-invocation layer numbers from the spans of `invocations` traced runs.

    Layers the workload does not reach read 0; layers whose patch point no
    longer exists in the program (names not in `patched`) are left out.
    """
    k = invocations
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, needs=None):
        if needs is None or needs in patched:
            out[name] = (value, unit)

    def per_call(span_name, metric, with_hits):
        s = _by_name(spans, span_name)
        put(f"{metric}_s", _total(spans, span_name) / k, "s", span_name)
        put(f"{metric}.calls", len(s) // k, "count", span_name)
        if with_hits:
            put(f"{metric}.hits", sum(x.hits for x in s) // k, "count", span_name)

    per_call("paircount.count_close_pairs", "paircount.count_close_pairs", True)
    per_call("paircount.close_pairs", "paircount.close_pairs", True)
    put("paircount.adjacency_s", _total(spans, "paircount.adjacency") / k, "s", "paircount.adjacency")
    put("paircount.triples_s", _total(spans, "paircount.triples") / k, "s", "paircount.triples")
    put("paircount.min_interpoint_distance_s",
        _total(spans, "paircount.min_interpoint_distance") / k, "s",
        "paircount.min_interpoint_distance")

    reports = _by_name(spans, "estimators.estimate_report")
    report_ids = {s.id for s in reports}
    pair_calls_in_reports = sum(
        1 for s in spans
        if s.parent in report_ids
        and s.name in ("paircount.count_close_pairs", "paircount.close_pairs")
    )
    put("paircount.calls_per_report",
        pair_calls_in_reports / len(reports) if reports else 0.0, "calls/report",
        "estimators.estimate_report")
    report_wall = sum(s.wall for s in reports)
    paircount_child_wall = sum(
        s.wall for s in spans if s.parent in report_ids and s.name.startswith("paircount.")
    )
    put("estimators.estimate_report_s", report_wall / k, "s", "estimators.estimate_report")
    put("estimators.estimate_report.self_s", (report_wall - paircount_child_wall) / k, "s",
        "estimators.estimate_report")
    put("estimators.estimate_report.calls", len(reports) // k, "count", "estimators.estimate_report")

    reps = [s.wall for s in _by_name(spans, "montecarlo.replicate")]
    # replicates are pooled over the traced invocations: four or more, of 100 each,
    # leave at least 10 samples beyond the 97.5th percentile
    put("montecarlo.replicate_s.p50", statistics.median(reps) if reps else 0.0, "s",
        "montecarlo.replicate")
    put("montecarlo.replicate_s.p97.5", _quantile(reps, 0.975), "s", "montecarlo.replicate")
    put("montecarlo.wait_s",
        sum(s.wall - s.cpu for s in _by_name(spans, "montecarlo.replicate")) / k, "s",
        "montecarlo.replicate")
    put("montecarlo.ks_test_s", _total(spans, "montecarlo.ks_test") / k, "s", "montecarlo.ks_test")

    subsets = _by_name(spans, "epskeys.evaluate_subset")
    sub_walls = [s.wall for s in subsets]
    put("epskeys.evaluate_subset_s.p50", statistics.median(sub_walls) if sub_walls else 0.0, "s",
        "epskeys.evaluate_subset")
    put("epskeys.evaluate_subset_s.max", max(sub_walls, default=0.0), "s", "epskeys.evaluate_subset")
    put("epskeys.subsets", len(subsets) // k, "count", "epskeys.evaluate_subset")
    put("epskeys.wait_s", sum(s.wall - s.cpu for s in subsets) / k, "s", "epskeys.evaluate_subset")

    put("processes.generate_s", _total(spans, "processes.generate") / k, "s", "processes.generate")
    put("processes.generate.calls", len(_by_name(spans, "processes.generate")) // k, "count",
        "processes.generate")

    reads = _by_name(spans, "core.read_sample_csv")
    read_wall = sum(s.wall for s in reads)
    put("core.read_sample_csv_s", read_wall / k, "s", "core.read_sample_csv")
    put("core.read_sample_csv.rows_per_s",
        sum(s.hits for s in reads) / read_wall if read_wall > 0 else 0.0, "1/s",
        "core.read_sample_csv")
    put("asymptotics.exp_pivot_ci_s", _total(spans, "asymptotics.exp_pivot_ci") / k, "s",
        "asymptotics.exp_pivot_ci")
    put("cli.emit_s", _total(spans, "cli.emit") / k, "s", "cli.emit")
    return out
