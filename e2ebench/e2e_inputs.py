"""Seeded inputs of the end-to-end benchmark.

Everything the benchmark feeds the program is a pure function of ``--seed``
(and of the run length, which fixes how many whole passes or requests a
run makes).  The program only ever receives the generated grids and
submissions; nothing here reads the clock or the host.
"""

from __future__ import annotations

import random

from repro.workloads.spec import PROXY_BENCHMARK_NAMES, SYSTEM_COMPONENT_NAMES

#: The whole catalog: the ten proxy benchmarks and five system components.
CATALOG: tuple[str, ...] = PROXY_BENCHMARK_NAMES + SYSTEM_COMPONENT_NAMES

#: The sweep grid's policies: SRRIP (the baseline), TRRIP-1, and two
#: non-RRIP references.  Under ``engine=auto`` solo replay puts srrip/lru on
#: the vector kernel and trrip-1/ship on the scalar loop.
GRID_POLICIES: tuple[str, ...] = ("srrip", "trrip-1", "lru", "ship")

#: The paper's comparison pair, the policies of every served submission.
SERVED_POLICIES: tuple[str, ...] = ("srrip", "trrip-1")

#: Width of the interleave-seed range each ``--seed`` owns; ranges of
#: different seeds never overlap, so no two runs submit the same point.
SEED_STRIDE = 1_000_000


def check_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed


def pass_count(seconds: float, nominal_pass_s: float) -> int:
    """Whole passes a run of ``seconds`` makes, from a fixed nominal cost.

    The count depends only on the run length, never on how fast this host
    happens to be, so every run of one length does the same work.
    """
    return max(1, round(seconds / nominal_pass_s))


def pass_order(seed: int, index: int, names: tuple[str, ...] = CATALOG) -> list[str]:
    """The workload order of pass ``index`` of a run seeded with ``seed``."""
    order = list(names)
    random.Random(check_seed(seed) * 7919 + index).shuffle(order)
    return order


def interleave_token(base: str, seed: int) -> str:
    return f"interleave:base={base},seed={seed}"


def served_stream(seed: int, rounds: int) -> list[tuple[str, dict]]:
    """``(request id, submission)`` pairs of a served run, in send order.

    Each round submits every catalog workload once, in a seeded order, as
    a two-program interleave with its own seed drawn without replacement
    from this run's seed range, so every submission is a distinct cold
    point pair and every run covers the same mix of bases.
    """
    rng = random.Random(check_seed(seed))
    offset = (seed + 1) * SEED_STRIDE
    picks = rng.sample(range(SEED_STRIDE), rounds * len(CATALOG))
    stream = []
    for round_index in range(rounds):
        order = list(CATALOG)
        rng.shuffle(order)
        for base in order:
            number = len(stream)
            submission = {
                "benchmarks": [interleave_token(base, offset + picks[number])],
                "policies": list(SERVED_POLICIES),
            }
            stream.append((f"q{number:04d}", submission))
    return stream
