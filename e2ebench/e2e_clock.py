"""Host-speed reference of the end-to-end benchmark.

On a shared VM the CPU's speed moves by tens of percent from one second to
the next and from one minute to the next, and the process is not
descheduled while it does: its CPU time moves with its wall time.  A wall
time alone then measures the host as much as the program.  Every timed
operation is therefore paired with a fixed reference kernel run at the
same time, and reported in *reference seconds*: its wall time scaled to a
host on which one kernel takes :data:`NOMINAL_S`::

    reference seconds = wall seconds * NOMINAL_S / kernel seconds

A kernel is timed in the CPU time of its thread, so it measures how fast
the CPU runs, not how often it ran: a program that keeps every CPU busy
slices the sampler's time but does not lengthen its kernels.

The kernel is plain interpreter work owned by the benchmark (dicts, ints,
strings, a sort), close in kind to the program's own; no program code
runs in it, so a change to the program moves the scaled time exactly as
much as it moves the wall time.  Much of the host's slowing is in memory,
not arithmetic: an integer loop over a few ints did not follow the warm
passes' slowing, this kernel does.  The pairing is per operation, because
the host's speed changes faster than a run: scaling a run's median by the
run's median kernel time steadies nothing.

Two pairings, one per kind of operation:

* :func:`inline_kernel_s` runs the kernel in the harness right after an
  in-process operation (a ``warm_rerun`` pass), on the same CPU moments
  later;
* :class:`Sampler` runs the kernel every :data:`PERIOD_S` in a process of
  its own throughout a run, and an operation that runs in another process
  (the sweep worker, the daemon, a fresh interpreter) is scaled by the
  samples taken while it ran.  The sampler shares the machine with the
  program, so it follows only part of a slow phase, and the program's own
  load can slow it too (``e2ebench/README.md``, "Reference seconds").

Run as a script, this file is the sampler: ``python3 e2e_clock.py PERIOD``
prints ``<perf_counter start> <perf_counter end> <kernel seconds>`` per
sample until killed.  ``perf_counter`` is the system-wide monotonic clock
on Linux, so sample times compare with the harness's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

#: Kernel time of the reference host, the scale of every reported time.
#: A fixed constant, near the kernel's time on a 2.0 GHz Xeon vCPU.
NOMINAL_S = 0.015

#: Sampler period; one kernel per period is about a tenth of one CPU.
PERIOD_S = 0.1

#: Kernels per inline reference, so one reference spans a few time slices.
INLINE_REPEATS = 2


def kernel() -> int:
    """Fixed interpreter work: about 15 ms on the reference host."""
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + sorted(table.values())[0]


def inline_kernel_s() -> float:
    """Mean kernel time over :data:`INLINE_REPEATS` kernels run here now."""
    start = time.thread_time()
    for _ in range(INLINE_REPEATS):
        kernel()
    return (time.thread_time() - start) / INLINE_REPEATS


def reference_s(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` in reference seconds, given the kernel time beside it."""
    return wall_s * NOMINAL_S / kernel_s


class Sampler:
    """A process that times the kernel every :data:`PERIOD_S` until stopped.

    Samples go to a file in ``work`` (no reader thread in the harness, so
    the harness can still fork).  Use as a context manager; the process is
    stopped and reaped on every way out.
    """

    def __init__(self, work: Path, name: str = "run") -> None:
        self.path = work / f"clock-{name}.txt"
        self.process: "subprocess.Popen | None" = None
        self._samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "Sampler":
        self._out = open(self.path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(PERIOD_S)],
            stdout=self._out,
            stdin=subprocess.DEVNULL,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.process is not None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process = None
            self._out.close()

    def samples(self) -> list[tuple[float, float, float]]:
        """Every complete ``(start, end, kernel seconds)`` sample written so far."""
        with open(self.path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")[:-1]
        self._samples = [tuple(map(float, line.split())) for line in lines]
        return self._samples

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the samples that overlap ``[start, end]``.

        An operation shorter than a period that no sample overlaps takes
        the sample nearest to it.
        """
        samples = self._samples
        if not samples or samples[-1][1] < end:
            samples = self.samples()
        if not samples:
            raise RuntimeError("the reference sampler wrote no sample")
        during = [taken for begun, ended, taken in samples if begun < end and ended > start]
        if during:
            return sum(during) / len(during)
        middle = (start + end) / 2
        return min(samples, key=lambda sample: abs(sample[0] - middle))[2]

    def reference_s(self, start: float, end: float) -> float:
        """The operation that ran over ``[start, end]``, in reference seconds."""
        return reference_s(end - start, self.kernel_s(start, end))

    def median_reference_s(self, spans: list[tuple[float, float]]) -> float:
        """Median of short repeated operations, in reference seconds.

        An operation of half a second overlaps only a few samples, too few
        to pair it alone, so the repeats share the mean of all their
        samples: the pairing follows the host from run to run, the median
        absorbs the spread between repeats.
        """
        kernels = [self.kernel_s(start, end) for start, end in spans]
        walls = sorted(end - start for start, end in spans)
        return reference_s(walls[(len(walls) - 1) // 2], sum(kernels) / len(kernels))


def _sample_forever(period: float) -> None:
    parent = os.getppid()
    # Stop with the harness even when it was killed without a chance to
    # stop the sampler.
    while os.getppid() == parent:
        begun, cpu = time.perf_counter(), time.thread_time()
        kernel()
        taken, ended = time.thread_time() - cpu, time.perf_counter()
        sys.stdout.write(f"{begun:.6f} {ended:.6f} {taken:.6f}\n")
        sys.stdout.flush()
        time.sleep(max(0.0, period - (ended - begun)))


if __name__ == "__main__":
    try:
        _sample_forever(float(sys.argv[1]))
    except KeyboardInterrupt:
        pass
