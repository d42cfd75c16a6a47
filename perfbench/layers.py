"""The probed layers and the per-layer metrics read from a traced pass.

Each layer is a ``repro`` module; its probes wrap the public entry
points every caller goes through (see :mod:`tracer`).  Two probes wrap
methods callers cannot avoid but that are not part of a public API:
``BatchGeoRouter._table`` (one call per next-hop table lookup) and
``NextHopTable.__init__`` (one call per table build).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List

from tracer import Probe, Tracer

from repro.core.spacecore import SpaceCoreSystem
from repro.crypto import abe
from repro.crypto.group import SchnorrGroup
from repro.crypto.signatures import SigningKey, VerifyKey
from repro.crypto.sts import Initiator, Responder
from repro.experiments import chaos_availability
from repro.fiveg.bus import SignalingBus
from repro.orbits import snapshot
from repro.runtime import parallel
from repro.scenarios import engine
from repro.sim.engine import Simulator
from repro.topology.batch_routing import BatchGeoRouter, NextHopTable
from repro.topology.grid import GridTopology
from repro.topology.routing import GeospatialRouter


def _route_batch_done(tracer: Tracer, _token: Any, _args: tuple,
                      result: Any) -> None:
    tracer.add("batch.packets", len(result))
    tracer.add("batch.hops", int(result.hops.sum()))
    tracer.add("batch.fallbacks", int(result.fallback.sum()))


def _events_before(args: tuple) -> int:
    return args[0].events_processed


def _run_done(tracer: Tracer, before: int, args: tuple, _result: Any) -> None:
    tracer.add("sim.events", args[0].events_processed - before)


def probes() -> List[Probe]:
    """Every probe, grouped by the layer (module) it belongs to."""
    return [
        Probe("snapshot_for", "orbits.snapshot", snapshot, "snapshot_for"),
        Probe("snapshots_for", "orbits.snapshot", snapshot,
              "snapshots_for"),
        Probe("route_batch", "topology.batch_routing", BatchGeoRouter,
              "route_batch", on_return=_route_batch_done),
        Probe("route_sweep", "topology.batch_routing", BatchGeoRouter,
              "route_sweep"),
        Probe("table_lookup", "topology.batch_routing", BatchGeoRouter,
              "_table"),
        Probe("table_build", "topology.batch_routing", NextHopTable,
              "__init__"),
        Probe("scalar_route", "topology.routing", GeospatialRouter,
              "route"),
        Probe("snapshot_graph", "topology.grid", GridTopology,
              "snapshot_graph"),
        Probe("chaos_trial", "experiments.chaos_availability",
              chaos_availability, "run_chaos_availability"),
        Probe("run_scenario", "scenarios", engine, "run_scenario"),
        Probe("run_sharded", "runtime", parallel, "run_sharded"),
        Probe("establish_session", "core", SpaceCoreSystem,
              "establish_session"),
        Probe("handover", "core", SpaceCoreSystem, "handover"),
        Probe("generate", "crypto", SchnorrGroup, "generate"),
        Probe("power", "crypto", SchnorrGroup, "power"),
        Probe("verify", "crypto", VerifyKey, "verify"),
        Probe("sign", "crypto", SigningKey, "sign"),
        Probe("sts_finish", "crypto", Initiator, "finish"),
        Probe("sts_respond", "crypto", Responder, "respond"),
        Probe("abe_encrypt", "crypto", abe, "encrypt"),
        Probe("abe_decrypt", "crypto", abe, "decrypt"),
        Probe("sim_run", "sim.engine", Simulator, "run",
              on_call=_events_before, on_return=_run_done),
        Probe("bus_send", "fiveg", SignalingBus, "send"),
    ]


#: Call counts a timed pass must reproduce exactly from the counted
#: pass (the program's own work, not the tracer's).
COMPARED_CALLS = (
    "table_build", "scalar_route", "snapshot_graph", "generate", "power",
    "verify", "sign", "sts_finish", "sts_respond", "abe_encrypt",
    "abe_decrypt", "establish_session", "bus_send", "chaos_trial")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, snapshot_builds: int,
                  planner: Dict[str, int], pass_s: float,
                  faults_fired: int) -> Dict[str, float]:
    """The per-layer metrics of one timed pass, by declared name."""
    st = tracer.stats
    ct = tracer.counters
    trials = st["chaos_trial"].durations
    batch_self = sum(st[n].self_s for n in (
        "route_batch", "route_sweep", "table_lookup", "table_build"))
    lookups = st["table_lookup"].calls
    builds = st["table_build"].calls
    packets = ct.get("batch.packets", 0)
    # Lookups counted at the probe exclude the benchmark's own checks.
    snapshot_lookups = st["snapshot_for"].calls
    return {
        "orbits.snapshot.builds": snapshot_builds,
        "orbits.snapshot.hit_ratio": _ratio(
            snapshot_lookups - snapshot_builds, snapshot_lookups),
        "orbits.snapshot.self_s": (st["snapshot_for"].self_s
                                   + st["snapshots_for"].self_s),
        "topology.batch_routing.packets": packets,
        "topology.batch_routing.hops": ct.get("batch.hops", 0),
        "topology.batch_routing.self_s": batch_self,
        "topology.batch_routing.table_builds": builds,
        "topology.batch_routing.table_hit_ratio": _ratio(lookups - builds,
                                                         lookups),
        "topology.batch_routing.fallback_share": _ratio(
            ct.get("batch.fallbacks", 0), packets),
        "topology.routing.scalar_routes": st["scalar_route"].calls,
        "topology.routing.scalar_s": st["scalar_route"].outer_s,
        "topology.grid.snapshot_graph_calls": st["snapshot_graph"].calls,
        "topology.grid.snapshot_graph_s": st["snapshot_graph"].outer_s,
        "experiments.chaos_availability.trial_s_p50": (
            statistics.median(trials) if trials else 0.0),
        "experiments.chaos_availability.trial_s_max": max(trials, default=0.0),
        "faults.chaos.faults_fired": faults_fired,
        "scenarios.engine.run_scenario_s": st["run_scenario"].outer_s,
        "runtime.parallel.run_sharded_s": st["run_sharded"].outer_s,
        "runtime.parallel.pools_created": planner["pools_created"],
        "runtime.planner.decisions.serial": planner["serial"],
        "runtime.planner.decisions.sharded": planner["sharded"],
        "core.spacecore.establish_session_calls": (
            st["establish_session"].calls),
        "core.spacecore.establish_session_s": (
            st["establish_session"].outer_s),
        "core.spacecore.handover_s": st["handover"].outer_s,
        "crypto.group.generate_calls": st["generate"].calls,
        "crypto.group.generate_s": st["generate"].outer_s,
        "crypto.group.power_calls": st["power"].calls,
        "crypto.group.power_s": st["power"].outer_s,
        "crypto.signatures.verify_calls": st["verify"].calls,
        "crypto.signatures.verify_self_s": st["verify"].self_s,
        "crypto.signatures.sign_s": st["sign"].outer_s,
        "crypto.sts.finish_s": st["sts_finish"].outer_s,
        "crypto.sts.respond_s": st["sts_respond"].outer_s,
        "crypto.abe.encrypt_s": st["abe_encrypt"].outer_s,
        "crypto.abe.decrypt_s": st["abe_decrypt"].outer_s,
        "sim.engine.events": ct.get("sim.events", 0),
        "sim.engine.self_s": st["sim_run"].self_s,
        "fiveg.bus.messages": st["bus_send"].calls,
        "share.snapshot_graph": _ratio(
            tracer.group_outer_s.get("topology.grid", 0.0), pass_s),
        "share.crypto": _ratio(tracer.group_outer_s.get("crypto", 0.0),
                               pass_s),
    }
