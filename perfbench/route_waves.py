"""route-waves: seeded packet waves through the batch routing plane.

A round routes six parts, each on its own topology and router:

* ``starlink``, ``kuiper`` -- large single-epoch waves on the
  full-torus shells, which never need the scalar fallback;
* ``oneweb``, ``iridium`` -- the same waves on the seam shells, where
  seam revisits send a few percent of packets to the scalar walk;
* ``faulted`` -- Starlink waves with about 2 % of satellites failed,
  where deflections send about a quarter of packets to the scalar walk;
* ``sweep`` -- ``route_sweep`` calls whose per-packet epochs span an
  orbital period at ``RELAY_MAX_HOPS`` (the Fig. 18b shape): small
  per-epoch waves, one snapshot and one table build per epoch.

Every wave and sweep draws a fresh epoch grid, so table and snapshot
builds are part of the timed work and repeated rounds cost the same.
Sources are uniform over (live) satellites; destinations are uniform
inside the shell's coverage band.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.orbits import iridium, kuiper, make_propagator, oneweb, starlink
from repro.orbits.constellation import Constellation
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter, BatchRouteResult
from repro.topology.grid import GridTopology
from repro.topology.routing import RELAY_MAX_HOPS, GeospatialRouter

from common import (RoundOutcome, Workload, geometric_mean, median_or_zero,
                    timed)

#: Fraction of Starlink satellites failed in the ``faulted`` part.
FAULT_FRACTION = 0.02
#: Epochs per sweep and packets per epoch in the ``sweep`` part.
SWEEP_EPOCHS = 24
SWEEP_PER_EPOCH = 100
#: Packets per wave whose result is compared with the scalar router:
#: a uniform sample plus a sample of the scalar-fallback packets.
CHECK_UNIFORM = 24
CHECK_FALLBACK = 8


@dataclass(frozen=True)
class PartSpec:
    """One part of a round: ``waves`` calls of ``packets`` packets."""

    name: str
    shell: str
    waves: int
    packets: int
    max_hops: int = 256
    faulted: bool = False
    sweep: bool = False


#: Wave counts and sizes put each part near a second of a round on a
#: 2-core x86 host with the compiled walk kernel.
PARTS = (
    PartSpec("starlink", "starlink", waves=10, packets=20_000),
    PartSpec("kuiper", "kuiper", waves=10, packets=20_000),
    PartSpec("oneweb", "oneweb", waves=2, packets=10_000),
    PartSpec("iridium", "iridium", waves=5, packets=20_000),
    PartSpec("faulted", "starlink", waves=2, packets=10_000, faulted=True),
    PartSpec("sweep", "starlink", waves=8,
             packets=SWEEP_EPOCHS * SWEEP_PER_EPOCH,
             max_hops=RELAY_MAX_HOPS, sweep=True),
)

_SHELLS = {"starlink": starlink, "kuiper": kuiper, "oneweb": oneweb,
           "iridium": iridium}


class Part:
    """A part's topology, batch router, counters and scalar reference."""

    def __init__(self, spec: PartSpec):
        self.spec = spec
        self.constellation: Constellation = _SHELLS[spec.shell]()
        self.topology = GridTopology(
            make_propagator(self.constellation, "ideal"), [])
        self.metrics = MetricsRegistry()
        self.router = BatchGeoRouter(self.topology, max_hops=spec.max_hops,
                                     metrics=self.metrics)
        self.reference = GeospatialRouter(self.topology,
                                          max_hops=spec.max_hops)
        c = self.constellation
        self.band = math.radians(min(c.inclination_deg,
                                     180.0 - c.inclination_deg)) - 0.02

    def counter(self, name: str, **labels: object) -> int:
        return int(self.metrics.counter_value(name, **labels))


@dataclass
class Wave:
    """Generated inputs of one wave (``ts`` holds per-packet epochs)."""

    src: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    ts: np.ndarray


def make_wave(part: Part, rng: np.random.Generator,
              live: Optional[np.ndarray] = None) -> Wave:
    """Seeded inputs: sources, destinations in the band, epochs."""
    spec, c = part.spec, part.constellation
    n = spec.packets
    if live is None:
        src = rng.integers(0, c.total_satellites, n)
    else:
        src = live[rng.integers(0, live.size, n)]
    lats = rng.uniform(-part.band, part.band, n)
    lons = rng.uniform(-math.pi, math.pi, n)
    period = c.period_s
    if spec.sweep:
        step = period / SWEEP_EPOCHS
        grid = rng.uniform(0.0, step) + step * np.arange(SWEEP_EPOCHS)
        ts = grid[np.arange(n) % SWEEP_EPOCHS]
    else:
        ts = np.full(n, rng.uniform(0.0, period))
    return Wave(src, lats, lons, ts)


def route(part: Part, wave: Wave) -> BatchRouteResult:
    if part.spec.sweep:
        return part.router.route_sweep(wave.src, wave.lats, wave.lons,
                                       wave.ts)
    return part.router.route_batch(wave.src, wave.lats, wave.lons,
                                   float(wave.ts[0]))


def check_indices(result: BatchRouteResult,
                  rng: np.random.Generator) -> np.ndarray:
    """The seeded sample of packets compared with the scalar router."""
    n = len(result)
    uniform = rng.choice(n, size=min(CHECK_UNIFORM, n), replace=False)
    flagged = np.nonzero(result.fallback)[0]
    fallback = (rng.choice(flagged, size=min(CHECK_FALLBACK, flagged.size),
                           replace=False)
                if flagged.size else flagged)
    return np.unique(np.concatenate([uniform, fallback]))


def check_wave(reference: GeospatialRouter, wave: Wave,
               result: BatchRouteResult,
               indices: Sequence[int]) -> List[str]:
    """Element-for-element comparison with ``GeospatialRouter.route``.

    Verdict (delivered, degraded), delay, distance and path must be
    identical; returns one message per mismatching packet.
    """
    mismatches = []
    for i in indices:
        i = int(i)
        want = reference.route(int(wave.src[i]), float(wave.lats[i]),
                               float(wave.lons[i]), float(wave.ts[i]))
        got = result.result(i)
        if (got.delivered, got.degraded, got.delay_s, got.distance_km,
                got.path) != (want.delivered, want.degraded, want.delay_s,
                              want.distance_km, want.path):
            mismatches.append(f"packet {i}: batch {got} != scalar {want}")
    return mismatches


def digest(result: BatchRouteResult) -> str:
    """A hash of every packet's verdict, delay, distance and path length."""
    h = hashlib.sha256()
    for array in (result.delivered, result.degraded, result.delay_s,
                  result.distance_km, result.path_len):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class RouteWaves(Workload):
    name = "route-waves"
    predicted_zeros = (
        "topology.grid.snapshot_graph_calls",
        "crypto.group.generate_calls", "crypto.group.power_calls",
        "crypto.signatures.verify_calls",
        "core.spacecore.establish_session_calls",
        "route_waves.fallback_share.starlink",
        "route_waves.fallback_share.kuiper",
        "route_waves.fallback_share.sweep",
    )

    def setup(self, seed: int) -> List[Part]:
        load_kernel()
        return [Part(spec) for spec in PARTS]

    def round(self, parts: List[Part], seed: int, index: int,
              paused) -> RoundOutcome:
        outcome = RoundOutcome()
        for number, part in enumerate(parts):
            spec = part.spec
            before = {name: part.counter(name) for name in (
                "routing.table_builds", "routing.scalar_fallbacks")}
            live = None
            if spec.faulted:
                live = self._fail(part, np.random.default_rng(
                    [seed, index, number]))
            seconds = 0.0
            packets = 0
            outcome.samples[spec.name] = []
            for w in range(spec.waves):
                rng = np.random.default_rng([seed, index, number, w + 1])
                outcome.attempted += 1
                try:
                    wave = make_wave(part, rng, live)
                    with timed() as clock:
                        result = route(part, wave)
                    seconds += clock.seconds
                    outcome.wall_s += clock.wall_s
                    packets += spec.packets
                    outcome.samples[spec.name].append(
                        spec.packets / clock.seconds)
                    with paused():
                        bad = check_wave(part.reference, wave, result,
                                         check_indices(result, rng))
                    outcome.outputs[f"{spec.name}.{w}"] = digest(result)
                except Exception as exc:  # noqa: BLE001 -- counted, reported
                    bad = [f"{type(exc).__name__}: {exc}"]
                if bad:
                    outcome.fail(f"{spec.name} wave {w}", bad)
            if spec.faulted:
                for sat in sorted(part.topology.failed_satellites()):
                    part.topology.recover_satellite(sat)
            outcome.counts[f"{spec.name}.fallbacks"] = (
                part.counter("routing.scalar_fallbacks")
                - before["routing.scalar_fallbacks"])
            outcome.counts[f"{spec.name}.table_builds"] = (
                part.counter("routing.table_builds")
                - before["routing.table_builds"])
            outcome.counts[f"{spec.name}.packets"] = packets
            outcome.op_s += seconds
        return outcome

    @staticmethod
    def _fail(part: Part, rng: np.random.Generator) -> np.ndarray:
        """Fail a seeded ~2 % of satellites; return the live ones."""
        total = part.constellation.total_satellites
        victims = rng.choice(total, size=round(FAULT_FRACTION * total),
                             replace=False)
        for sat in sorted(int(v) for v in victims):
            part.topology.fail_satellite(sat)
        return np.setdiff1d(np.arange(total), victims)

    def rate(self, rounds: List[RoundOutcome]) -> float:
        """Geometric mean over parts of the median wave rate.

        Every part weighs the same, so a regression in the fast torus
        parts shows even though the fallback parts take most of the
        time, and one slow wave (a noisy neighbour) moves no median.
        """
        return geometric_mean([
            median_or_zero([x for r in rounds for x in r.samples[spec.name]])
            for spec in PARTS])

    def layer_metrics(self, plains: List[RoundOutcome],
                      traced: RoundOutcome) -> Dict[str, float]:
        out = {}
        for spec in PARTS:
            name = ("sweep_pkts_per_s" if spec.sweep
                    else f"pkts_per_s.{spec.name}")
            out[name] = median_or_zero(
                [x for p in plains for x in p.samples[spec.name]])
            packets = traced.counts[f"{spec.name}.packets"]
            out[f"route_waves.fallback_share.{spec.name}"] = (
                traced.counts[f"{spec.name}.fallbacks"] / packets
                if packets else 0.0)
        return out
