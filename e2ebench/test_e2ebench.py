"""Tests of the end-to-end benchmark's seeded inputs and correctness gate.

Run from the repository root: ``PYTHONPATH=src python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from e2e_clock import NOMINAL_S, Sampler  # noqa: E402
from e2e_gate import (  # noqa: E402
    PIN,
    diff_results,
    digest,
    expected_run_keys,
    pinned_problems,
    served_problems,
    wire,
)
from e2e_inputs import CATALOG, GRID_POLICIES, pass_order, served_stream  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402

from repro.api.session import Session  # noqa: E402
from repro.sim.config import SimulatorConfig  # noqa: E402


def _interleave_seeds(stream) -> set[int]:
    return {int(sub["benchmarks"][0].rsplit("seed=", 1)[1]) for _, sub in stream}


def test_same_seed_gives_the_same_inputs():
    assert served_stream(5, 2) == served_stream(5, 2)
    assert pass_order(5, 3) == pass_order(5, 3)
    assert sorted(pass_order(5, 3)) == sorted(CATALOG)


def test_every_round_covers_the_catalog_once():
    stream = served_stream(9, 3)
    assert len(stream) == 3 * len(CATALOG)
    assert len(_interleave_seeds(stream)) == len(stream)
    for start in range(0, len(stream), len(CATALOG)):
        bases = sorted(
            sub["benchmarks"][0].split("base=")[1].split(",")[0]
            for _, sub in stream[start : start + len(CATALOG)]
        )
        assert bases == sorted(CATALOG)


def test_different_seeds_give_disjoint_interleave_seeds():
    for first, second in ((0, 1), (1, 2), (3, 17), (41, 40)):
        assert not _interleave_seeds(served_stream(first, 2)) & _interleave_seeds(
            served_stream(second, 2)
        )


def test_gate_rejects_a_result_with_one_field_altered():
    session = Session(config=SimulatorConfig.scaled())
    result = session.run_one("tiny", "srrip").result
    point = (result.benchmark, result.policy)
    assert diff_results({point: result}, {point: result}) == []
    assert diff_results({point: result}, {point: wire(result)}) == []

    altered = dataclasses.replace(result, cycles=result.cycles + 1)
    assert diff_results({point: result}, {point: altered}) == [
        f"{point}: differs in cycles"
    ]
    payload = wire(result)
    payload["l2_inst_misses"] += 1
    assert diff_results({point: result}, {point: payload}) == [
        f"{point}: differs in l2_inst_misses"
    ]
    assert diff_results({point: result}, {}) == [f"{point}: missing"]


def test_pin_covers_the_grid_and_rejects_an_altered_result():
    pinned = json.loads(PIN.read_text(encoding="utf-8"))["points"]
    assert sorted(pinned) == sorted(f"{b}/{p}" for b in CATALOG for p in GRID_POLICIES)

    result = Session(config=SimulatorConfig.scaled()).run_one("sqlite", "srrip").result
    point = ("sqlite", "srrip")
    assert digest(result) == digest(wire(result)) == pinned["sqlite/srrip"]
    assert pinned_problems({point: result}) == []
    altered = dataclasses.replace(result, l2_inst_misses=result.l2_inst_misses + 1)
    assert pinned_problems({point: altered}) == [f"{point}: differs from the pinned result"]
    assert pinned_problems({("tiny", "srrip"): result}) == ["('tiny', 'srrip'): not pinned"]


def test_served_gate_checks_state_and_every_run_key():
    _, submission = served_stream(0, 1)[0]
    keys = expected_run_keys(submission)
    assert len(keys) == 2 and len(set(keys)) == 2
    payload = {"state": "done", "results": [{"store_key": key} for key in keys]}
    assert served_problems(payload, keys) == []

    swapped = {"state": "done", "results": payload["results"][::-1]}
    assert served_problems(swapped, keys)
    assert served_problems({"state": "failed"}, keys)


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_prints():
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in listed[key]] == list(printed)


def test_sampler_scales_each_span_by_the_samples_taken_during_it(tmp_path):
    clock = Sampler(tmp_path)
    clock.path.write_text(
        "10.0 10.1 0.015\n10.2 10.3 0.030\n10.4 10.5 0.045\n12.0 12", encoding="utf-8"
    )
    # The torn last line is not a sample yet.
    assert [sample[2] for sample in clock.samples()] == [0.015, 0.030, 0.045]
    assert clock.kernel_s(10.05, 10.45) == 0.030
    # A span that no sample overlaps takes the nearest sample.
    assert clock.kernel_s(10.36, 10.38) == 0.045
    assert clock.reference_s(10.25, 10.35) == pytest.approx(0.1 * NOMINAL_S / 0.030)
    # Repeats share the mean kernel of their spans and report the median wall.
    spans = [(10.0, 10.1), (10.2, 10.5), (10.41, 10.49)]
    kernel_s = (0.015 + (0.030 + 0.045) / 2 + 0.045) / 3
    assert clock.median_reference_s(spans) == pytest.approx(0.1 * NOMINAL_S / kernel_s)
