"""chaos-replay: the scenario catalog plus seeded chaos trials.

A round replays the six catalog scenarios with ``run_scenario`` at the
worker count ``resolve_workers()`` gives (the planner in its default
mode), then runs ``EXTRA_TRIALS`` default-churn ``ChaosScenario``
trials whose seeds derive from the workload seed.  The catalog pins its
own seeds, so its artifacts must equal the committed goldens byte for
byte; the extra trials are checked against range and accounting
invariants that hold at any seed.

Most of a trial is +Grid reachability over networkx graphs rebuilt by
``GridTopology.snapshot_graph``; this workload is also the one that
writes where route-waves only reads (faults bump ``fault_epoch`` and
drop cached tables and graphs).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.experiments.chaos_availability import (
    ChaosAvailabilityResult,
    ChaosScenario,
    run_chaos_availability,
)
from repro.runtime.parallel import resolve_workers, seed_for
from repro.scenarios import get_scenario, run_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec

from common import RoundOutcome, Workload, timed

EXTRA_TRIALS = 3
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "artifacts" / "scenarios"


@dataclass
class ChaosState:
    specs: List[ScenarioSpec]
    goldens: Dict[str, bytes]
    extras: List[ChaosScenario]
    workers: int


def check_artifact(artifact: bytes, golden: bytes) -> List[str]:
    """A catalog artifact must equal its committed golden byte for byte."""
    if artifact == golden:
        return []
    at = next((i for i, (a, b) in enumerate(zip(artifact, golden))
               if a != b), min(len(artifact), len(golden)))
    return [f"artifact differs from golden at byte {at} "
            f"({len(artifact)} vs {len(golden)} bytes)"]


def check_trial(result: ChaosAvailabilityResult) -> List[str]:
    """Range and accounting invariants of one chaos trial."""
    sc = result.scenario
    bad = []
    steps = int(sc.horizon_s / sc.sample_interval_s)
    if [s.t for s in result.samples] != [k * sc.sample_interval_s
                                         for k in range(steps + 1)]:
        bad.append("survival samples are not on the sampling grid")
    for s in result.samples:
        if not (0.0 <= s.spacecore <= 1.0 and 0.0 <= s.baseline <= 1.0):
            bad.append(f"survival out of [0, 1] at t={s.t}")
    if result.n_sessions != sc.n_ues:
        bad.append(f"{result.n_sessions} sessions for {sc.n_ues} UEs")
    for side, lost in (("spacecore", result.spacecore_lost),
                       ("baseline", result.baseline_lost)):
        if not 0 <= lost <= result.n_sessions:
            bad.append(f"{side} lost {lost} of {result.n_sessions}")
    for latency in (result.spacecore_recovery_latencies
                    + result.baseline_recovery_latencies):
        if not (math.isfinite(latency) and latency > 0.0):
            bad.append(f"recovery latency {latency}")
    times = [key[0] for key in result.fault_log]
    if times != sorted(times) or any(not 0.0 <= t <= sc.horizon_s
                                     for t in times):
        bad.append("fault log out of order or outside the horizon")
    for key in result.spacecore_outcomes:
        attempts, delay, completed, abandoned = key[3:7]
        if attempts < 1 or delay < 0.0 or (completed and abandoned):
            bad.append(f"inconsistent procedure outcome {key}")
    return bad


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ChaosReplay(Workload):
    name = "chaos-replay"

    def setup(self, seed: int) -> ChaosState:
        specs = [get_scenario(name) for name in scenario_names()]
        goldens = {spec.name: (GOLDEN_DIR / f"{spec.name}.json").read_bytes()
                   for spec in specs}
        extras = [ChaosScenario(seed=seed_for(seed, f"chaos-replay:{k}"))
                  for k in range(EXTRA_TRIALS)]
        return ChaosState(specs, goldens, extras, resolve_workers())

    def round(self, state: ChaosState, seed: int, index: int,
              paused) -> RoundOutcome:
        outcome = RoundOutcome()
        for spec in state.specs:
            outcome.attempted += spec.n_trials
            try:
                with timed() as clock:
                    result = run_scenario(spec, workers=state.workers)
                outcome.op_s += clock.seconds
                outcome.wall_s += clock.wall_s
                with paused():
                    text = result.artifact_json()
                    bad = check_artifact(text.encode("utf-8"),
                                         state.goldens[spec.name])
                outcome.outputs[spec.name] = _digest(text)
                outcome.faults_fired += sum(t["faults"]["total"]
                                            for t in result.trials)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                outcome.fail(spec.name, bad, ops=spec.n_trials)
        for k, scenario in enumerate(state.extras):
            outcome.attempted += 1
            try:
                with timed() as clock:
                    trial = run_chaos_availability(scenario=scenario)
                outcome.op_s += clock.seconds
                outcome.wall_s += clock.wall_s
                with paused():
                    bad = check_trial(trial)
                    text = json.dumps(trial.to_json(), sort_keys=True)
                outcome.outputs[f"extra-{k}"] = _digest(text)
                outcome.faults_fired += len(trial.fault_log)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                bad = [f"{type(exc).__name__}: {exc}"]
            if bad:
                outcome.fail(f"extra trial {k}", bad)
        outcome.counts["faults_fired"] = outcome.faults_fired
        outcome.rate = (outcome.attempted / outcome.op_s
                        if outcome.op_s else 0.0)
        return outcome
