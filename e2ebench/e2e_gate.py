"""Correctness gate of the end-to-end benchmark.

A timed operation only counts as a success when its outputs check out:
results are compared field by field in their JSON wire form (the form the
store and the daemon both hold), and served run keys are recomputed
in-process from the submission alone.

The catalog grid's results are also pinned: ``expected_grid.json`` holds
the SHA-256 of every point's wire form, so a change that alters any
simulated result fails ``cold_sweep`` and ``warm_rerun`` even though both
only ever compare the program against itself otherwise.  A change that
alters the model on purpose rewrites the pin from the repository root::

    PYTHONPATH=src python3 e2ebench/e2e_gate.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Mapping

from repro.api.scenario import Scenario
from repro.api.session import Session
from repro.experiments.store import run_key
from repro.sim.config import SimulatorConfig
from repro.sim.results import SimulationResult


def wire(result: "SimulationResult | dict") -> dict:
    """A result in canonical JSON form (tuples and int keys normalised)."""
    payload = result.to_dict() if isinstance(result, SimulationResult) else result
    return json.loads(json.dumps(payload, sort_keys=True))


PIN = Path(__file__).resolve().with_name("expected_grid.json")


def digest(result: "SimulationResult | dict") -> str:
    """SHA-256 of a result's canonical wire form."""
    text = json.dumps(wire(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def point_name(point: tuple[str, str]) -> str:
    return "/".join(point)


def pinned_problems(points: Mapping) -> list[str]:
    """Every point of ``points`` that is missing from the pin or differs."""
    pinned = json.loads(PIN.read_text(encoding="utf-8"))["points"]
    problems = []
    for point in sorted(points):
        name = point_name(point)
        if name not in pinned:
            problems.append(f"{point}: not pinned")
        elif digest(points[point]) != pinned[name]:
            problems.append(f"{point}: differs from the pinned result")
    return problems


def diff_results(expected: Mapping, got: Mapping) -> list[str]:
    """Every difference between two ``{point: result}`` maps, as text.

    An empty list means the maps hold the same points with identical
    results in every field.
    """
    problems = []
    for point in sorted(set(expected) | set(got), key=str):
        if point not in got:
            problems.append(f"{point}: missing")
        elif point not in expected:
            problems.append(f"{point}: unexpected")
        elif type(expected[point]) is type(got[point]) and expected[point] == got[point]:
            continue
        else:
            want, have = wire(expected[point]), wire(got[point])
            fields = sorted(
                name
                for name in set(want) | set(have)
                if want.get(name) != have.get(name)
            )
            if fields:
                problems.append(f"{point}: differs in {', '.join(fields)}")
    return problems


def by_point(results) -> dict[tuple[str, str], SimulationResult]:
    """Key results by ``(benchmark, policy)``."""
    return {(result.benchmark, result.policy): result for result in results}


def submission_scenario(submission: dict) -> Scenario:
    return Scenario.from_dict({**submission, "config": "scaled"})


def expected_run_keys(submission: dict) -> list[str]:
    """The store keys of a submission's points, computed in-process."""
    session = Session(config=SimulatorConfig.scaled())
    plan = session.plan(submission_scenario(submission))
    return [
        run_key(
            request.spec,
            request.policy,
            request.config.with_l2_policy(request.policy),
            request.options,
        )
        for request in plan.requests
    ]


def served_problems(payload: dict, keys: list[str]) -> list[str]:
    """Why a served result payload is wrong, or ``[]`` when it checks out."""
    if payload.get("state") != "done":
        return [f"job ended {payload.get('state')!r}"]
    echoed = [entry.get("store_key") for entry in payload.get("results", [])]
    if echoed != keys:
        return [f"run keys {echoed} != in-process {keys}"]
    return []


def served_results(payload: dict) -> dict[tuple[str, str], SimulationResult]:
    """The simulation results a served payload carries, by point."""
    return by_point(
        SimulationResult.from_dict(entry["result"]) for entry in payload["results"]
    )


def write_pin() -> None:
    """Simulate the catalog grid in-process and pin every point's digest."""
    from e2e_inputs import CATALOG, GRID_POLICIES

    session = Session(config=SimulatorConfig.scaled())
    points = by_point(
        artifact.result
        for artifact in session.run(Scenario(benchmarks=CATALOG, policies=GRID_POLICIES))
    )
    payload = {
        "config": "scaled",
        "points": {point_name(point): digest(points[point]) for point in sorted(points)},
    }
    PIN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(points)} points in {PIN.name}", file=sys.stderr)


if __name__ == "__main__":
    write_pin()
