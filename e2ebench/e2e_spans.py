"""Span tracing for the benchmark's traced run, installed from outside.

:class:`Tracer` wraps public functions of each layer of the program — by
rebinding them on their class or in every ``repro`` module that imported
them — so that each call records a span: name, start, end, the span that
caused it, and the id of the pass or request it served.  Count targets
record one event per call without a span, so they do not split the self
time of their caller.

Spans live in memory.  A process forked from the traced one (the
supervised sweep worker) starts with an empty buffer and appends its spans
to ``<span_dir>/spans-<pid>.jsonl`` whenever a root span ends, because a
worker can be torn down without running exit hooks.  The daemon launcher
flushes when the daemon returns.  All times are ``time.perf_counter``,
which is the system-wide monotonic clock on Linux, so spans of different
processes share one time base.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, class or None, attribute, span name).  A ``None`` class names a
#: module-level function, rebound wherever a ``repro`` module imported it.
SPAN_TARGETS = (
    ("repro.core.pipeline", "CoDesignPipeline", "prepare", "workloads.prepare"),
    ("repro.workloads.tracegen", "TraceGenerator", "take_packed", "workloads.tracegen"),
    ("repro.common.trace", "PackedTrace", "fetch_events", "trace.geometry"),
    ("repro.common.trace", "PackedTrace", "mem_lines", "trace.geometry"),
    ("repro.sim.simulator", "SystemSimulator", "warm_up", "cpu.warmup"),
    ("repro.sim.simulator", "SystemSimulator", "run", "cpu.replay"),
    ("repro.sim.simulator", None, "run_lockstep", "cpu.lockstep"),
    ("repro.experiments.store", None, "run_key", "store.key"),
    ("repro.experiments.store", "ResultStore", "load_run", "store.read"),
    ("repro.experiments.store", "ResultStore", "save_run", "store.write"),
    ("repro.api.session", "Session", "plan", "api.plan"),
    ("repro.api.session", "Session", "run", "api.run"),
    ("repro.api.session", "Session", "execute", "api.execute"),
    ("repro.api.session", "Session", "sweep_checkpointed", "sweep.pass"),
    ("repro.experiments.sweep", "SweepJournal", "record", "sweep.journal"),
    ("repro.experiments.runner", "BenchmarkRunner", "run_resolved", "runner.unit"),
    ("repro.server.journal", "SubmissionJournal", "record", "server.journal"),
    ("repro.client", "ReproClient", "submit", "client.submit"),
)

#: (module, class or None, attribute, count name): calls counted, not timed.
COUNT_TARGETS = (
    ("repro.sim.simulator", None, "run_packed_vector", "cpu.vector_replays"),
    ("repro.cpu.core", "CoreModel", "run", "cpu.scalar_replays"),
    ("repro.client", "RetryPolicy", "backoff", "client.retries"),
)

#: Modules imported before patching, so every binding to rebind exists.
_PRELOAD = (
    "repro.api.session",
    "repro.experiments.runner",
    "repro.experiments.sweep",
    "repro.server.jobs",
    "repro.server.submission",
    "repro.cli.main",
    "repro.client",
)


def _instructions(args, kwargs) -> int:
    """Work of a ``take_packed(count)`` call: the instructions generated."""
    return int(kwargs.get("count", args[1] if len(args) > 1 else 0))


def _instructions_replayed(args, kwargs) -> int:
    """Work of a ``SystemSimulator.warm_up/run(trace)`` call."""
    trace = kwargs.get("trace", args[1] if len(args) > 1 else ())
    return len(trace)


def _plan_tag(args, kwargs):
    """Request id of a daemon-side ``Session.execute(plan)``: its workload.

    Every served submission names one interleave token with a seed unique
    to the request, so the token identifies the request.
    """
    plan = kwargs.get("plan", args[1] if len(args) > 1 else None)
    return plan.requests[0].benchmark if plan is not None and plan.requests else None


#: Extra per-span data: work done (instructions) and how to tag an op.
_WORK = {
    "workloads.tracegen": _instructions,
    "cpu.warmup": _instructions_replayed,
    "cpu.replay": _instructions_replayed,
}
_TAGS = {"api.execute": _plan_tag}


class Tracer:
    """Records spans around the program's public functions (see module)."""

    def __init__(self, span_dir: Path | str):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self.records: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []
        os.register_at_fork(after_in_child=self._forked)

    # ---------------------------------------------------------- lifecycle
    def install(self) -> "Tracer":
        for module in _PRELOAD:
            importlib.import_module(module)
        for module, owner, attribute, name in SPAN_TARGETS:
            self._patch(module, owner, attribute, self._span_wrapper(name))
        for module, owner, attribute, name in COUNT_TARGETS:
            self._patch(module, owner, attribute, self._count_wrapper(name))
        return self

    def uninstall(self) -> None:
        for target, attribute, original, owned in reversed(self._patches):
            if owned:
                setattr(target, attribute, original)
            else:
                delattr(target, attribute)
        self._patches.clear()

    def _patch(self, module_name, owner_name, attribute, make) -> None:
        module = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(module, owner_name)
            original = getattr(owner, attribute)
            self._patches.append(
                (owner, attribute, original, attribute in owner.__dict__)
            )
            setattr(owner, attribute, make(original))
            return
        original = getattr(module, attribute)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for bound, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, bound, original, True))
                    setattr(loaded, bound, wrapper)

    def _forked(self) -> None:
        self.records = []
        self._local.stack = []

    # ------------------------------------------------------------- ops
    @contextmanager
    def op(self, op_id: str):
        """Attribute every span this thread records inside to ``op_id``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    # -------------------------------------------------------- wrappers
    def _span_wrapper(self, name: str):
        work = _WORK.get(name)
        tag = _TAGS.get(name)
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                local = tracer._local
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                op = getattr(local, "op", None)
                tagged = op is None and tag is not None
                if tagged:
                    op = local.op = tag(args, kwargs)
                parent = stack[-1] if stack else 0
                span_id = next(tracer._ids)
                stack.append(span_id)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    if tagged:
                        local.op = None
                    tracer.records.append(
                        {
                            "pid": os.getpid(),
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "op": op,
                            "work": work(args, kwargs) if work else 0,
                        }
                    )
                    if not stack and os.getpid() != tracer.owner:
                        tracer.flush()

            return wrapper

        return make

    def _count_wrapper(self, name: str):
        tracer = self

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.records.append(
                    {
                        "pid": os.getpid(),
                        "name": name,
                        "count": 1,
                        "op": getattr(tracer._local, "op", None),
                    }
                )
                return original(*args, **kwargs)

            return wrapper

        return make

    # ----------------------------------------------------------- output
    def flush(self) -> None:
        """Append this process's buffered records to its span file."""
        records, self.records = self.records, []
        if not records:
            return
        path = self.span_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict]:
        """Every record: this process's buffer plus every flushed file."""
        records = list(self.records)
        for path in sorted(self.span_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
        return records


# ===================================================================== analysis
class SpanSummary:
    """Totals over a set of records: durations, self times, counts, work."""

    def __init__(self, records: list[dict]):
        spans = [record for record in records if "start" in record]
        child_time: dict[tuple, float] = defaultdict(float)
        for span in spans:
            if span["parent"]:
                child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.root_total: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for span in spans:
            duration = span["end"] - span["start"]
            name = span["name"]
            self.total[name] += duration
            self.self_time[name] += duration - child_time[(span["pid"], span["id"])]
            self.calls[name] += 1
            self.work[name] += span.get("work", 0)
            self.durations[name].append(duration)
            if not span["parent"]:
                self.root_total[name] += duration
        self.counts: dict[str, int] = defaultdict(int)
        for record in records:
            if "count" in record:
                self.counts[record["name"]] += record["count"]

    def own(self, *names: str) -> float:
        return sum(self.self_time[name] for name in names)
