#!/usr/bin/env python3
"""End-to-end benchmark of the TRRIP reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload cold_sweep --seed 1 --seconds 22 --trace 0

Workloads (see ``e2ebench/README.md`` for why each was chosen):

* ``cold_sweep``  — ``Session.sweep_checkpointed(jobs=1)`` over the whole
  catalog x srrip, trrip-1, lru, ship into a fresh dir-backend store;
* ``warm_rerun``  — a fresh ``Session.run`` of the same grid over a store
  filled during set-up (every point a store hit);
* ``served_cold`` — two closed-loop clients sending distinct cold
  interleave submissions to a fresh ``repro serve`` daemon.

Times are reported in reference seconds: each operation's wall time scaled
by a fixed interpreter kernel timed beside it (``e2e_clock``), so that the
shared host's changing speed cancels; every run also prints its unscaled
wall times.  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
runs the same work untraced and then traced, prints the per-stage
self-time table and every per-layer metric, and checks the workload's
design invariants.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail the
correctness gate prints it with ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from e2e_clock import NOMINAL_S, Sampler, inline_kernel_s, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The paper's headline figures (TRRIP-1 over SRRIP, geomean).
PAPER_L2I_MPKI_REDUCTION_PCT = 26.5
PAPER_SPEEDUP_PCT = 3.9

#: Fixed nominal costs that turn ``--seconds`` into whole passes/requests.
#: They never adapt to the host: every run of one length does the same work.
#: They sit near the slow end of the measured range, so a run stays within
#: its time budget on a slow host.
COLD_PASS_S = 18.0
WARM_PASS_S = 0.25
SERVED_ROUND_S = 10.0

#: Set-ups repeated per run; the median is reported as ``setup_s``.
COLD_SETUP_REPEATS = 9
SERVED_SETUP_REPEATS = 9

#: Client poll interval, well below a served job's ~1 s.
POLL_S = 0.05
CLIENTS = 2
SERVE_WORKERS = 2
REQUEST_TIMEOUT_S = 90.0
#: Served requests re-simulated in-process after the timed window.
VERIFY_SAMPLE = 1
#: p90 is reported only with at least this many samples (ten beyond it).
P90_MIN_SAMPLES = 100

END_TO_END = (
    ("setup_s", "s"),
    ("sim_kips", "kinst/s"),
    ("points_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

PER_LAYER = (
    ("workloads.prepare_s", "s"),
    ("workloads.prepare_calls", "count"),
    ("workloads.tracegen_s", "s"),
    ("workloads.tracegen_ns_per_inst", "ns/inst"),
    ("trace.geometry_s", "s"),
    ("cpu.warmup_s", "s"),
    ("cpu.replay_s", "s"),
    ("cpu.lockstep_s", "s"),
    ("cpu.replay_ns_per_inst", "ns/inst"),
    ("cpu.vector_replays", "count"),
    ("cpu.scalar_replays", "count"),
    ("cpu.lockstep_groups", "count"),
    ("model.l2i_mpki.srrip", "mpki"),
    ("model.l2i_mpki.trrip-1", "mpki"),
    ("model.ipc.srrip", "ipc"),
    ("model.ipc.trrip-1", "ipc"),
    ("model.l2i_mpki_reduction_pct", "%"),
    ("model.speedup_pct", "%"),
    ("store.key_s", "s"),
    ("store.read_s", "s"),
    ("store.write_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("api.plan_s", "s"),
    ("api.self_s", "s"),
    ("sweep.journal_s", "s"),
    ("supervisor.unit_s", "s"),
    ("supervisor.overhead_s", "s"),
    ("supervisor.retries", "count"),
    ("server.queue_wait_ms", "ms"),
    ("server.execute_ms", "ms"),
    ("server.busy_ratio", "ratio"),
    ("server.journal_s", "s"),
    ("server.dedup_ratio", "ratio"),
    ("server.store_hit_ratio", "ratio"),
    ("server.rejected", "count"),
    ("client.submit_ms", "ms"),
    ("client.poll_lag_ms", "ms"),
    ("client.retries", "count"),
    ("tracing.overhead_s", "s"),
)


# ====================================================================== helpers
def order_stat(values, q: float) -> float:
    """The ``q`` quantile as a plain order statistic (nearest rank)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return order_stat(values, 0.5)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Outcome:
    """What one run measured and whether its outputs checked out."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []

    def op(self, problems: list[str], label: str) -> None:
        """Count one operation, failed when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in problems)

    def check(self, holds: bool, what: str) -> None:
        """A design check of the traced run; a violation fails the run."""
        if not holds:
            self.problems.append(f"design check failed: {what}")

    @property
    def correct(self) -> bool:
        return not self.problems


class Context:
    def __init__(self, args, work: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))


def isolate_heap() -> None:
    """Collect garbage and freeze what survives before a timed pass.

    The pass then runs with the cyclic GC on, but the GC no longer scans
    the benchmark's own bookkeeping (expected results, earlier samples),
    so a pass costs what it would in a fresh ``repro`` process rather than
    depending on how much the harness happens to hold.
    """
    gc.collect()
    gc.freeze()


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_metrics(points) -> tuple[float, float]:
    """(L2I MPKI reduction %, speedup %) of TRRIP-1 over SRRIP, geomean."""
    from repro.sim.results import geomean_reduction, geomean_speedup

    benchmarks = sorted({benchmark for benchmark, _ in points})
    pairs = [(points[(b, "srrip")], points[(b, "trrip-1")]) for b in benchmarks]
    reduction = geomean_reduction(
        [trrip.mpki_reduction_over(srrip)[0] for srrip, trrip in pairs]
    )
    speedup = geomean_speedup([trrip.speedup_over(srrip) for srrip, trrip in pairs])
    return reduction, 100.0 * speedup


def end_to_end(
    outcome: Outcome,
    setup_s: float,
    wall_s: float,
    points: dict,
    repeats: int,
    latencies_s: list[float],
    rss_mb: float,
    latency_of: str,
    unscaled: str,
) -> None:
    """Fill ``outcome.metrics`` with every end-to-end metric.

    ``points`` were delivered ``repeats`` times (once per pass) within the
    timed ``wall_s``.  Times are reference seconds (``e2e_clock``);
    ``unscaled`` describes the same run in plain wall time.
    """
    delivered = repeats * len(points)
    kinst = repeats * sum(result.instructions for result in points.values()) / 1000.0
    n = len(latencies_s)
    values = {
        "setup_s": setup_s,
        "sim_kips": kinst / wall_s,
        "points_per_s": delivered / wall_s,
        "latency_p50_ms": 1000.0 * median(latencies_s),
        "peak_rss_mb": rss_mb,
        "success_rate": ratio(outcome.attempted - outcome.failed, outcome.attempted),
    }
    outcome.metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in outcome.metrics.items():
        note = f"  (n={n}, {latency_of})" if name == "latency_p50_ms" else ""
        outcome.lines.append(f"{name:<24} {value:14.4f} {unit}{note}")
    outcome.lines.append(
        f"# times above are reference seconds (kernel {NOMINAL_S * 1000:g} ms); "
        f"unscaled wall: {unscaled}"
    )
    if n >= P90_MIN_SAMPLES:
        p90 = 1000.0 * order_stat(latencies_s, 0.9)
        outcome.lines.append(f"{'latency_p90_ms':<24} {p90:14.4f} ms  (n={n})")
    else:
        outcome.lines.append(
            f"# latency_p90_ms not reported: n={n} < {P90_MIN_SAMPLES} samples"
        )
    model_lines(outcome, points)


def model_lines(outcome: Outcome, points: dict) -> None:
    """Print the model's TRRIP-1 over SRRIP figures beside the paper's."""
    reduction, speedup = model_metrics(points)
    outcome.lines.append(
        f"{'l2i_mpki_reduction_pct':<24} {reduction:14.4f} %  "
        f"(paper {PAPER_L2I_MPKI_REDUCTION_PCT}; TRRIP-1 over SRRIP, geomean "
        f"over {len({benchmark for benchmark, _ in points})} workloads)"
    )
    outcome.lines.append(
        f"{'speedup_pct':<24} {speedup:14.4f} %  (paper {PAPER_SPEEDUP_PCT})"
    )
    outcome.lines.append(
        "# the model is not validated against hardware: the paper figures are "
        "printed for orientation, with no error bar"
    )


# ======================================================================= tracing
STAGES = (
    ("prepare", ("workloads.prepare",)),
    ("trace generation", ("workloads.tracegen",)),
    ("geometry", ("trace.geometry",)),
    ("warm-up replay", ("cpu.warmup",)),
    ("measured replay", ("cpu.replay",)),
    ("lockstep replay", ("cpu.lockstep",)),
    ("store key+read/write", ("store.key", "store.read", "store.write")),
    ("planning", ("api.plan",)),
    ("session self", ("api.run", "api.execute")),
    ("sweep journal", ("sweep.journal",)),
    ("worker unit self", ("runner.unit",)),
    ("serve journal", ("server.journal",)),
    ("client submit", ("client.submit",)),
)


def layer_metrics(outcome: Outcome, summary, harness, extra: dict, points) -> None:
    """Fill ``outcome.metrics`` with every per-layer metric.

    ``summary`` covers every traced process, ``harness`` only this one;
    ``extra`` carries what comes from counters and snapshots rather than
    spans.  Metrics of a layer the workload does not reach are 0.
    """
    own = summary.own
    tracegen_work = summary.work["workloads.tracegen"]
    replay_work = summary.work["cpu.replay"]
    # Worker-side unit time: root spans of the forked sweep worker only.
    unit_s = summary.root_total["runner.unit"] - harness.root_total["runner.unit"]
    hits, misses = extra.get("store_hits", 0), extra.get("store_misses", 0)
    values = {
        "workloads.prepare_s": own("workloads.prepare"),
        "workloads.prepare_calls": summary.calls["workloads.prepare"],
        "workloads.tracegen_s": own("workloads.tracegen"),
        "workloads.tracegen_ns_per_inst": 1e9 * ratio(own("workloads.tracegen"), tracegen_work),
        "trace.geometry_s": own("trace.geometry"),
        "cpu.warmup_s": own("cpu.warmup"),
        "cpu.replay_s": own("cpu.replay"),
        "cpu.lockstep_s": own("cpu.lockstep"),
        "cpu.replay_ns_per_inst": 1e9 * ratio(own("cpu.replay"), replay_work),
        "cpu.vector_replays": summary.counts["cpu.vector_replays"],
        "cpu.scalar_replays": summary.counts["cpu.scalar_replays"],
        "cpu.lockstep_groups": summary.calls["cpu.lockstep"],
        "store.key_s": own("store.key"),
        "store.read_s": own("store.read"),
        "store.write_s": own("store.write"),
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_ratio": ratio(hits, hits + misses),
        "api.plan_s": own("api.plan"),
        "api.self_s": own("api.run", "api.execute"),
        "sweep.journal_s": own("sweep.journal"),
        "supervisor.unit_s": unit_s,
        "supervisor.overhead_s": (
            harness.total["sweep.pass"] - unit_s - harness.total["store.read"]
            if harness.calls["sweep.pass"]
            else 0.0
        ),
        "supervisor.retries": extra.get("retries", 0),
        "server.queue_wait_ms": extra.get("queue_wait_ms", 0.0),
        "server.execute_ms": extra.get("execute_ms", 0.0),
        "server.busy_ratio": extra.get("busy_ratio", 0.0),
        "server.journal_s": own("server.journal"),
        "server.dedup_ratio": extra.get("dedup_ratio", 0.0),
        "server.store_hit_ratio": extra.get("server_store_hit_ratio", 0.0),
        "server.rejected": extra.get("rejected", 0),
        "client.submit_ms": (
            1000.0 * median(summary.durations["client.submit"])
            if summary.durations["client.submit"]
            else 0.0
        ),
        "client.poll_lag_ms": extra.get("poll_lag_ms", 0.0),
        "client.retries": summary.counts["client.retries"],
        "tracing.overhead_s": extra["overhead_s"],
    }
    for policy in ("srrip", "trrip-1"):
        chosen = [result for (_, p), result in points.items() if p == policy]
        values[f"model.l2i_mpki.{policy}"] = (
            sum(r.l2_inst_mpki for r in chosen) / len(chosen) if chosen else 0.0
        )
        values[f"model.ipc.{policy}"] = (
            sum(r.ipc for r in chosen) / len(chosen) if chosen else 0.0
        )
    (
        values["model.l2i_mpki_reduction_pct"],
        values["model.speedup_pct"],
    ) = model_metrics(points)
    outcome.metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    traced_wall = extra["traced_wall_s"]
    rows = [(stage, own(*names)) for stage, names in STAGES]
    if harness.calls["sweep.pass"]:
        rows.append(("supervisor overhead", values["supervisor.overhead_s"]))
    for stage, key in (("queue wait", "queue_wait_total_s"), ("execute", "execute_total_s")):
        if key in extra:
            rows.append((stage, extra[key]))
    outcome.lines.append(
        f"# stage self times, traced wall {traced_wall:.3f} s"
        + (" (served stages overlap across workers and clients)" if "execute_total_s" in extra else "")
    )
    outcome.lines.append(f"{'stage':<24} {'self_s':>10} {'share':>8}")
    for stage, seconds in rows:
        outcome.lines.append(
            f"{stage:<24} {seconds:10.4f} {100.0 * ratio(seconds, traced_wall):7.2f}%"
        )
    outcome.lines.append("# per-layer metrics")
    for name, (value, unit) in outcome.metrics.items():
        outcome.lines.append(f"{name:<32} {value:16.6f} {unit}")


def traced_summaries(tracer, ops):
    """Summaries of every traced process, and of this harness alone.

    Harness records count only inside the traced passes or requests
    (``ops``); the forked sweep worker and the daemon do nothing else.
    """
    from e2e_spans import SpanSummary

    me = os.getpid()
    records = [
        record
        for record in tracer.collect()
        if record["pid"] != me or record.get("op") in ops
    ]
    harness = [record for record in records if record["pid"] == me]
    return SpanSummary(records), SpanSummary(harness)


# ==================================================================== cold sweep
_SESSION_PROBE = (
    "import sys, time\n"
    "from repro.api.session import Session\n"
    "from repro.experiments.store import ResultStore\n"
    "from repro.sim.config import SimulatorConfig\n"
    "Session(config=SimulatorConfig.scaled(), "
    "store=ResultStore(sys.argv[1], backend='dir'))\n"
    "print(time.perf_counter())\n"
)


def session_setup_span(ctx: Context, index: int) -> tuple[float, float]:
    """Interpreter start to a ready Session, in a fresh interpreter.

    Returns the ``perf_counter`` times of the start and of the ready
    Session; the clock is system-wide, so the child's reading compares.
    """
    store = ctx.work / f"probe-{index}"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SESSION_PROBE, str(store)],
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return start, float(done.stdout.split()[-1])


def run_cold_sweep(ctx: Context) -> Outcome:
    from e2e_gate import diff_results, pinned_problems
    from e2e_inputs import CATALOG, GRID_POLICIES, pass_count, pass_order
    from repro.api.session import Session
    from repro.experiments.store import ResultStore
    from repro.sim.config import SimulatorConfig

    outcome = Outcome()
    passes = pass_count(ctx.seconds, COLD_PASS_S)
    reference: dict = {}

    def sweep_pass(index: int, label: str, tracer=None):
        root = ctx.work / f"cold-{label}-{index}"
        session = Session(
            config=SimulatorConfig.scaled(), store=ResultStore(root, backend="dir")
        )
        scope = tracer.op(f"{label}-{index}") if tracer else nullcontext()
        isolate_heap()
        start = time.perf_counter()
        with scope:
            swept = session.sweep_checkpointed(
                benchmarks=pass_order(ctx.seed, index),
                policies=GRID_POLICIES,
                jobs=1,
            )
        end = time.perf_counter()
        report = swept.report
        problems = []
        if not report.complete or report.succeeded != len(swept.manifest):
            problems.append(report.summary_line())
        if report.retried:
            problems.append(f"{report.retried} unit(s) retried")
        points = {
            (benchmark, policy): result
            for benchmark, row in swept.sweep.results.items()
            for policy, result in row.items()
        }
        if not reference:
            problems.extend(pinned_problems(points))
            reference.update(points)
        else:
            problems.extend(diff_results(reference, points))
        outcome.op(problems, f"{label} pass {index}")
        stats = session.store.stats()
        shutil.rmtree(root, ignore_errors=True)
        return (start, end), stats, report.retried

    # The worker and the fresh interpreters run in other processes, so the
    # sampler gives their reference.  It runs through every pass, traced
    # passes too, so that both halves of a traced run share its load.
    with Sampler(ctx.work) as clock:
        setups = [session_setup_span(ctx, i) for i in range(COLD_SETUP_REPEATS)]
        spans = [sweep_pass(i, "run")[0] for i in range(passes)]
        if ctx.trace:
            from e2e_spans import Tracer

            tracer = Tracer(ctx.work / "spans").install()
            try:
                traced = [sweep_pass(i, "traced", tracer) for i in range(passes)]
            finally:
                tracer.uninstall()
    setup_s = clock.median_reference_s(setups)
    walls = [clock.reference_s(*span) for span in spans]
    raw = [end - start for start, end in spans]
    rss_mb = max(
        peak_rss_self_mb(),
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    )
    outcome.lines.append(
        f"# cold_sweep: {passes} pass(es) of sweep_checkpointed(jobs=1) over "
        f"{len(CATALOG)} workloads x {','.join(GRID_POLICIES)}"
    )
    if not ctx.trace:
        end_to_end(
            outcome,
            setup_s,
            sum(walls),
            reference,
            passes,
            walls,
            rss_mb,
            "per pass",
            f"passes {sum(raw):.3f} s, latency p50 {1000.0 * median(raw):.1f} ms",
        )
        return outcome

    summary, harness = traced_summaries(tracer, {f"traced-{i}" for i in range(passes)})
    traced_wall = sum(end - start for (start, end), _, _ in traced)
    extra = {
        "store_hits": sum(stats["hits"] for _, stats, _ in traced),
        "store_misses": sum(stats["misses"] for _, stats, _ in traced),
        "retries": sum(retried for _, _, retried in traced),
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - sum(raw),
    }
    layer_metrics(outcome, summary, harness, extra, reference)
    outcome.check(extra["store_hits"] == 0, "cold_sweep store.hits = 0")
    outcome.check(extra["retries"] == 0, "cold_sweep supervisor.retries = 0")
    return outcome


# ==================================================================== warm rerun
def _fill_store(conn, root: str) -> None:
    """Child side of the warm set-up: one cold Session.run of the grid."""
    from e2e_inputs import CATALOG, GRID_POLICIES
    from repro.api.scenario import Scenario
    from repro.api.session import Session
    from repro.experiments.store import ResultStore
    from repro.sim.config import SimulatorConfig

    session = Session(
        config=SimulatorConfig.scaled(), store=ResultStore(root, backend="dir")
    )
    artifacts = session.run(Scenario(benchmarks=CATALOG, policies=GRID_POLICIES))
    conn.send([artifact.result for artifact in artifacts])
    conn.close()


def fill_store(root: Path) -> list:
    """Fill the warm store in a forked child and return its results.

    The fill runs in its own process so the harness's peak RSS reflects the
    warm passes alone; fork is safe here because the harness has started no
    thread yet.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_fill_store, args=(send, str(root)))
    child.start()
    send.close()
    try:
        results = receive.recv()
    except BaseException:
        # Interrupted (SIGTERM) or the child died: do not wait out the fill.
        child.kill()
        raise
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"store fill exited with code {child.exitcode}")
    return results


def run_warm_rerun(ctx: Context) -> Outcome:
    from e2e_gate import by_point, diff_results, pinned_problems
    from e2e_inputs import CATALOG, GRID_POLICIES, pass_count, pass_order
    from repro.api.scenario import Scenario
    from repro.api.session import Session
    from repro.experiments.store import ResultStore
    from repro.sim.config import SimulatorConfig

    outcome = Outcome()
    root = ctx.work / "warm-store"
    # The fill runs in a child, so the sampler gives its reference.
    with Sampler(ctx.work) as clock:
        start = time.perf_counter()
        expected = by_point(fill_store(root))
        end = time.perf_counter()
    setup_s = clock.reference_s(start, end)
    outcome.op(pinned_problems(expected), "store fill")
    passes = pass_count(ctx.seconds, WARM_PASS_S)

    def warm_pass(index: int, label: str, tracer=None):
        scenario = Scenario(
            benchmarks=tuple(pass_order(ctx.seed, index)), policies=GRID_POLICIES
        )
        scope = tracer.op(f"{label}-{index}") if tracer else nullcontext()
        isolate_heap()
        start = time.perf_counter()
        with scope:
            session = Session(
                config=SimulatorConfig.scaled(), store=ResultStore(root, backend="dir")
            )
            artifacts = session.run(scenario)
        wall = time.perf_counter() - start
        # The pass ran here, so its reference is the kernel run right after.
        scaled = reference_s(wall, inline_kernel_s())
        problems = diff_results(expected, by_point(a.result for a in artifacts))
        if session.simulations_run:
            problems.append(f"{session.simulations_run} simulation(s) run")
        if session.store.misses:
            problems.append(f"{session.store.misses} store miss(es)")
        outcome.op(problems, f"{label} pass {index}")
        return scaled, wall, session.store.stats()

    untraced = [warm_pass(i, "run") for i in range(passes)]
    walls = [scaled for scaled, _, _ in untraced]
    raw = [wall for _, wall, _ in untraced]
    outcome.lines.append(
        f"# warm_rerun: {passes} pass(es), each a fresh Session.run over a filled "
        f"store of {len(CATALOG)} workloads x {','.join(GRID_POLICIES)}"
    )
    if not ctx.trace:
        end_to_end(
            outcome,
            setup_s,
            sum(walls),
            expected,
            passes,
            walls,
            peak_rss_self_mb(),
            "per pass",
            f"fill {end - start:.3f} s, passes {sum(raw):.3f} s, "
            f"latency p50 {1000.0 * median(raw):.1f} ms",
        )
        return outcome

    from e2e_spans import Tracer

    tracer = Tracer(ctx.work / "spans").install()
    try:
        traced = [warm_pass(i, "traced", tracer) for i in range(passes)]
    finally:
        tracer.uninstall()
    summary, harness = traced_summaries(tracer, {f"traced-{i}" for i in range(passes)})
    traced_wall = sum(wall for _, wall, _ in traced)
    extra = {
        "store_hits": sum(stats["hits"] for _, _, stats in traced),
        "store_misses": sum(stats["misses"] for _, _, stats in traced),
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - sum(raw),
    }
    layer_metrics(outcome, summary, harness, extra, expected)
    values = {name: value for name, (value, _) in outcome.metrics.items()}
    for name in ("cpu.warmup_s", "cpu.replay_s", "cpu.lockstep_s", "workloads.tracegen_s"):
        outcome.check(values[name] == 0, f"warm_rerun {name} = 0")
    outcome.check(values["store.hit_ratio"] == 1, "warm_rerun store.hit_ratio = 1")
    return outcome


# =================================================================== served cold
class Daemon:
    """A ``repro serve`` daemon started through the benchmark's launcher."""

    def __init__(self, ctx: Context, name: str, span_dir: "Path | None" = None):
        self.dir = ctx.work / f"serve-{name}"
        self.dir.mkdir(parents=True)
        ready = self.dir / "ready"
        command = [
            sys.executable,
            str(HERE / "serve_launcher.py"),
            str(span_dir) if span_dir is not None else "-",
            "serve",
            "--port", "0",
            "--workers", str(SERVE_WORKERS),
            "--store", str(self.dir / "store"),
            "--store-backend", "sqlite",
            "--ready-file", str(ready),
        ]
        self.log = open(self.dir / "daemon.log", "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=ctx.env, stdout=subprocess.DEVNULL, stderr=self.log
        )
        try:
            while True:
                text = ready.read_text(encoding="utf-8") if ready.exists() else ""
                if text.endswith("\n"):
                    break
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.process.returncode}")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("daemon not ready after 60 s")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.spawn = (start, time.perf_counter())
        self.url = text.strip()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in the daemon's /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def serve_window(url: str, stream, tracer=None) -> tuple[tuple[float, float], dict]:
    """Send ``stream`` through closed-loop clients; ``((start, end), outcomes)``.

    Each outcome is ``(start, end, payload or None, error or None,
    seen_at)``: ``start``/``end`` are ``perf_counter`` times, ``seen_at``
    the ``time.time()`` at which the result was in hand, comparable with
    the daemon's job timestamps.
    """
    from repro.client import ReproClient

    pending = list(stream)
    outcomes: dict[str, tuple] = {}
    lock = threading.Lock()

    def client_loop() -> None:
        client = ReproClient(url, timeout=60.0)
        while True:
            with lock:
                if not pending:
                    return
                request_id, submission = pending.pop(0)
            scope = tracer.op(request_id) if tracer else nullcontext()
            start = time.perf_counter()
            payload, error = None, None
            try:
                with scope:
                    payload = client.run(
                        submission, timeout=REQUEST_TIMEOUT_S, poll=POLL_S
                    )
            except Exception as failure:  # noqa: BLE001 - counted as a failed op
                error = f"{type(failure).__name__}: {failure}"
            end, seen_at = time.perf_counter(), time.time()
            with lock:
                outcomes[request_id] = (start, end, payload, error, seen_at)

    # Daemon threads: a client stuck on a broken daemon must not keep the
    # benchmark alive after it reports the failure.
    threads = [
        threading.Thread(target=client_loop, daemon=True) for _ in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("served window did not finish within 150 s")
    return (start, max(outcome[1] for outcome in outcomes.values())), outcomes


def run_served_cold(ctx: Context) -> Outcome:
    from e2e_gate import (
        by_point,
        diff_results,
        expected_run_keys,
        served_problems,
        served_results,
        submission_scenario,
    )
    from e2e_inputs import pass_count, served_stream
    from repro.api.session import Session
    from repro.client import ReproClient
    from repro.sim.config import SimulatorConfig

    outcome = Outcome()
    rounds = pass_count(ctx.seconds, SERVED_ROUND_S)
    stream = served_stream(ctx.seed, rounds)
    submissions = dict(stream)
    keys = {request_id: expected_run_keys(sub) for request_id, sub in stream}

    # Every timed span runs in the daemon, so the sampler gives the reference.
    with Sampler(ctx.work) as clock:
        setups = []
        for index in range(SERVED_SETUP_REPEATS - 1):
            spare = Daemon(ctx, f"setup-{index}")
            setups.append(spare.spawn)
            spare.stop()
        daemon = Daemon(ctx, "run")
        setups.append(daemon.spawn)
        try:
            window, outcomes = serve_window(daemon.url, stream)
            rss_mb = daemon.peak_rss_mb()
        finally:
            daemon.stop()

    def gate(outcomes, label: str) -> tuple[dict, list[str]]:
        points, passed = {}, []
        for request_id, _ in stream:
            _, _, payload, error, _ = outcomes[request_id]
            problems = [error] if error else served_problems(payload, keys[request_id])
            outcome.op(problems, f"{label} {request_id}")
            if not problems:
                points.update(served_results(payload))
                passed.append(request_id)
        return points, passed

    points, passed = gate(outcomes, "request")
    sample = random.Random(ctx.seed).sample(passed, min(VERIFY_SAMPLE, len(passed)))
    for request_id in sample:
        local = Session(config=SimulatorConfig.scaled()).run(
            submission_scenario(submissions[request_id])
        )
        problems = diff_results(
            served_results(outcomes[request_id][2]), by_point(a.result for a in local)
        )
        outcome.op(problems, f"re-simulated {request_id}")

    latencies = [clock.reference_s(start, end) for start, end, _, _, _ in outcomes.values()]
    raw = [end - start for start, end, _, _, _ in outcomes.values()]
    outcome.lines.append(
        f"# served_cold: {len(stream)} distinct cold interleave submissions x "
        f"srrip,trrip-1, {CLIENTS} closed-loop clients, poll {POLL_S} s, "
        f"daemon --workers {SERVE_WORKERS} --store-backend sqlite (journal on); "
        f"{len(sample)} request(s) re-simulated in-process"
    )
    if not ctx.trace:
        end_to_end(
            outcome,
            clock.median_reference_s(setups),
            clock.reference_s(*window),
            points,
            1,
            latencies,
            rss_mb,
            "submit to result",
            f"window {window[1] - window[0]:.3f} s, latency p50 {1000.0 * median(raw):.1f} ms",
        )
        return outcome

    from e2e_spans import Tracer

    span_dir = ctx.work / "spans"
    tracer = Tracer(span_dir).install()
    # The sampler runs here too, so both halves of the run share its load.
    with Sampler(ctx.work, "traced"):
        daemon = Daemon(ctx, "traced", span_dir)
        try:
            traced_window, traced = serve_window(daemon.url, stream, tracer)
            client = ReproClient(daemon.url)
            served = client.metrics()
            snapshots = [
                (client.status(payload["job"]), seen_at)
                for _, _, payload, _, seen_at in traced.values()
                if payload is not None
            ]
        finally:
            tracer.uninstall()
            daemon.stop()
    traced_points, _ = gate(traced, "traced request")

    summary, harness = traced_summaries(tracer, set(submissions))
    traced_wall = traced_window[1] - traced_window[0]
    execute = [s["finished_at"] - s["started_at"] for s, _ in snapshots]
    waits = [s["started_at"] - s["submitted_at"] for s, _ in snapshots]
    lags = [seen_at - s["finished_at"] for s, seen_at in snapshots]
    jobs, store = served["jobs"], served["store"]
    extra = {
        "store_hits": store["hits"],
        "store_misses": store["misses"],
        "queue_wait_ms": 1000.0 * median(waits),
        "queue_wait_total_s": sum(waits),
        "execute_ms": 1000.0 * median(execute),
        "execute_total_s": sum(execute),
        "busy_ratio": ratio(sum(execute), traced_wall * SERVE_WORKERS),
        "dedup_ratio": ratio(jobs["deduped"], jobs["submitted"]),
        "server_store_hit_ratio": ratio(store["hits"], store["hits"] + store["misses"]),
        "rejected": jobs["rejected"],
        "poll_lag_ms": 1000.0 * median(lags) if lags else 0.0,
        "traced_wall_s": traced_wall,
        "overhead_s": traced_wall - (window[1] - window[0]),
    }
    layer_metrics(outcome, summary, harness, extra, traced_points)
    outcome.lines.append(
        f"# server.*_ms and client.*_ms are p50s over n={len(snapshots)} jobs"
    )
    outcome.check(extra["dedup_ratio"] == 0, "served_cold server.dedup_ratio = 0")
    outcome.check(
        extra["server_store_hit_ratio"] == 0, "served_cold server.store_hit_ratio = 0"
    )
    outcome.check(extra["rejected"] == 0, "served_cold server.rejected = 0")
    return outcome


WORKLOADS = {
    "cold_sweep": run_cold_sweep,
    "warm_rerun": run_warm_rerun,
    "served_cold": run_served_cold,
}


# ========================================================================== main
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _terminate(signum, frame) -> None:  # noqa: ARG001 - signal signature
    """Turn SIGTERM into an exit that still stops the daemon and cleans up."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    # Only explicit arguments reach the program: no stray store, backend,
    # daemon URL or fault-injection setting from the environment.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    work = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-store")
    try:
        outcome = WORKLOADS[args.workload](Context(args, work))
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(
        f"# e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"# FAILED {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
