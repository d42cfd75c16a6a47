"""Batch packet-routing plane (Algorithm 1 over packet arrays).

The scalar :class:`~repro.topology.routing.GeospatialRouter` walks one
packet at a time through a Python-level hop loop; at Starlink scale
that caps routing throughput orders of magnitude below what the
stateless design can sustain.  This module routes an ``(N,)`` *batch*
of packets per call through the compiled walk kernel
(:mod:`._walk_kernel`): one C loop per packet over per-epoch arrays,
so the interpreter runs a handful of statements per batch instead of
per packet-hop.

Bit-match contract
==================
``route_batch(...).results()`` is element-for-element identical
(paths, verdicts, delays, distances) to calling
``GeospatialRouter.route`` in a loop, which is what the equivalence
suites assert.  Algorithm 1 has one fast medium and one reference:

* the compiled walk kernel replays all of it operation for operation
  -- the greedy hop, and the deflection around dead satellites/links,
  ``avoid_links`` and path revisits -- reading one edge mask per call
  (the table's fault liveness with the caller's ``avoid_links``
  cleared), so with the kernel loaded the scalar walk is never called;
* without the kernel (no C compiler, a failed build, or
  ``REPRO_NO_CKERNEL`` set) every packet is routed by the scalar walk
  itself, at scalar speed.

``BatchRouteResult.fallback`` marks the packets that left the greedy
walk: centred but not even nearly covered, preferred edge dead,
preferred neighbour already on the path, or -- kernel only -- a walk
longer than its 64-node first-pass path buffer, which the kernel then
re-walks with a full-width one.  ``fallback_cause`` holds each flagged
packet's first cause (the two media agree on every cause but
``path_capacity``), and the ``routing.fallbacks{cause=...}`` counters
total them.  ``routing.scalar_fallbacks`` counts the packets the
scalar walk routed: 0 on the kernel path, every packet without it.

Per-epoch next-hop tables
=========================
All per-satellite state the walk gathers from -- runtime (alpha,
gamma) coordinates, sub-satellite points, the ``(N, 4)`` +Grid
neighbour table, ISL hop lengths and liveness masks -- is materialised
once per ``(epoch, fault_epoch)`` into a :class:`NextHopTable`, kept
in a small LRU.  Fault injection both re-keys the cache (the key
embeds ``fault_epoch``) and actively drops entries through the
topology's fault listeners, so chaos scenarios can never read a stale
liveness mask.

Epoch sweeps
============
Workloads that route *across* time -- the Fig. 18b relay pipeline
samples one packet per epoch over an orbital period, the cohort
engine probes offered load over a horizon -- go through
:meth:`BatchGeoRouter.route_sweep`: packets carry per-element epochs,
are grouped by epoch, and each epoch's wave routes in one
``route_batch``-equivalent call with the results scattered back in
input order.  The table LRU (and the snapshot LRU underneath it) is
sized to the sweep up front, so one table build per distinct epoch
serves the whole sweep and every repeat of it.
"""

from __future__ import annotations

import ctypes
import math
from collections import OrderedDict
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..constants import SPEED_OF_LIGHT_KM_S
from ..obs.metrics import MetricsRegistry
from ..orbits.snapshot import (
    ConstellationSnapshot,
    snapshot_for,
    snapshots_for,
)
from ._walk_kernel import load_kernel
from .grid import GridTopology
from .routing import FALLBACK_CAUSES, GeospatialRouter, RouteResult

__all__ = [
    "BatchGeoRouter",
    "BatchRouteResult",
    "NextHopTable",
    "BATCH_SIZE_BUCKETS",
    "FALLBACK_CAUSES",
]

#: Histogram buckets for ``routing.batch_size`` (batches span request
#: sizes from single packets to full Monte Carlo sweeps).
BATCH_SIZE_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0,
                      16384.0, 65536.0, 262144.0, 1048576.0)

#: Path-buffer width of the kernel's first pass; rows that outgrow it
#: are re-walked with a ``max_hops + 1`` buffer.
_FIRST_PASS_CAPACITY = 64

#: Packets per kernel call; results are independent per packet, so
#: any chunking is bitwise neutral.
_CHUNK_SIZE = 65536

#: Next-hop tables kept in the LRU (sweeps grow it to their epochs).
_TABLE_CACHE_SIZE = 8

#: Half-width of the guard band (in cosine space) around the coverage
#: threshold inside which the kernel's dot-product screen defers to
#: the exact haversine.  Both formulas agree with the true central angle
#: to ~1e-14, so 1e-9 is over a thousand times wider than any possible
#: disagreement -- decisions outside the band are provably identical.
_COVERAGE_GUARD = 1e-9


class NextHopTable:
    """Everything one epoch of batch forwarding gathers from.

    Pure-geometry arrays (coordinates, neighbour wiring, hop lengths)
    come straight from the epoch snapshot and the constellation shape;
    liveness (``edge_up``, ``None`` when nothing is failed) is sampled
    from the topology's failure marks at build time, which is why the
    cache key includes the fault epoch.
    """

    __slots__ = ("snapshot", "fault_epoch", "neighbors", "hop_km",
                 "hop_delay_s", "alpha", "gamma", "sub_lat", "sub_lon",
                 "unit_x", "unit_y", "unit_z", "edge_up")

    def __init__(self, snapshot: ConstellationSnapshot,
                 topology: GridTopology):
        self.snapshot = snapshot
        self.fault_epoch = topology.fault_epoch
        self.neighbors = topology.neighbor_table
        self.hop_km = snapshot.hop_lengths_km()
        # Per-edge propagation delay, divided once at table build: the
        # scalar accumulates ``hop_km / c`` per hop, and an elementwise
        # divide of the same operands yields the same quotient bits.
        self.hop_delay_s = self.hop_km / SPEED_OF_LIGHT_KM_S
        # ascontiguousarray is a no-op passthrough when the snapshot
        # arrays are already contiguous; the compiled walk kernel
        # indexes raw pointers, so contiguity is load-bearing.
        self.alpha = np.ascontiguousarray(snapshot.raan_ecef)
        self.gamma = np.ascontiguousarray(snapshot.arg_latitude)
        subs = snapshot.subpoints
        self.sub_lat = np.ascontiguousarray(subs[:, 0])
        self.sub_lon = np.ascontiguousarray(subs[:, 1])
        # Unit position vectors: the kernel's coverage *screen* is a
        # dot product against the destination radial (far cheaper than
        # a haversine); only near-threshold packets re-test with the
        # exact scalar formula.
        pos = snapshot.positions_ecef
        norm = np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1]
                       + pos[:, 2] * pos[:, 2])
        self.unit_x = pos[:, 0] / norm
        self.unit_y = pos[:, 1] / norm
        self.unit_z = pos[:, 2] / norm
        self.edge_up: Optional[np.ndarray] = (
            topology.edge_liveness() if topology.has_topology_faults
            else None)


class BatchRouteResult:
    """Structure-of-arrays outcome of one ``route_batch`` call.

    Scalar :class:`~repro.topology.routing.RouteResult` objects are
    materialised lazily (:meth:`result` / :meth:`results`): at millions
    of packets per second the per-packet Python objects would cost more
    than the routing itself, and bulk consumers (benchmarks, sweeps,
    the packet layer) only need the arrays.

    The dense path matrix is lazy for the same reason: the compiled
    walk writes only the first ``path_len[i]`` cells of each row, and
    normalising the rest to -1 is a couple hundred megabytes of memory
    traffic per million packets that verdict/delay consumers never
    need.  Row reads (:meth:`path`) slice by ``path_len`` and are
    always exact; :attr:`path_buffer` trims and normalises the matrix
    on first access.
    """

    __slots__ = ("delivered", "degraded", "delay_s", "distance_km",
                 "path_len", "fallback", "fallback_cause", "_paths",
                 "_normalized")

    def __init__(self, delivered: np.ndarray, degraded: np.ndarray,
                 delay_s: np.ndarray, distance_km: np.ndarray,
                 path_buffer: np.ndarray, path_len: np.ndarray,
                 fallback: np.ndarray, normalized: bool = True,
                 fallback_cause: Optional[np.ndarray] = None):
        self.delivered = delivered
        self.degraded = degraded
        self.delay_s = delay_s
        self.distance_km = distance_km
        self.path_len = path_len
        #: Packets that left the greedy walk (or, on the kernel path,
        #: outgrew its first-pass path buffer); ``fallback_cause``
        #: holds each one's first cause, an index into
        #: ``FALLBACK_CAUSES`` plus one (0 = not flagged).
        self.fallback = fallback
        self.fallback_cause = (np.zeros(fallback.shape, dtype=np.uint8)
                               if fallback_cause is None
                               else fallback_cause)
        self._paths = path_buffer
        self._normalized = normalized

    def __len__(self) -> int:
        return int(self.delivered.shape[0])

    @property
    def path_buffer(self) -> np.ndarray:
        """The dense ``(N, width)`` path matrix, -1 beyond each path.

        Materialised on first access (see the class docstring); the
        trimmed, normalised matrix is cached.
        """
        if not self._normalized:
            paths = self._paths
            width = max(int(self.path_len.max()), 1)
            if width < paths.shape[1]:
                paths = np.ascontiguousarray(paths[:, :width])
            paths[np.arange(width)[None, :]
                  >= self.path_len[:, None]] = -1
            self._paths = paths
            self._normalized = True
        return self._paths

    @property
    def hops(self) -> np.ndarray:
        """Per-packet hop count (``len(path) - 1``, floored at 0)."""
        return np.maximum(self.path_len - 1, 0)

    def path(self, index: int) -> List[int]:
        """The node path of packet ``index`` as a plain list."""
        n = int(self.path_len[index])
        return [int(v) for v in self._paths[index, :n]]

    def result(self, index: int) -> RouteResult:
        """Materialise packet ``index`` as a scalar RouteResult."""
        return RouteResult(
            delivered=bool(self.delivered[index]),
            path=self.path(index),
            delay_s=float(self.delay_s[index]),
            distance_km=float(self.distance_km[index]),
            degraded=bool(self.degraded[index]))

    def results(self) -> List[RouteResult]:
        """Materialise the whole batch (equivalence tests, small runs)."""
        return [self.result(i) for i in range(len(self))]


class BatchGeoRouter:
    """Algorithm 1 over packet batches, next-hop tables per epoch.

    Wraps a scalar :class:`GeospatialRouter` (sharing its coverage
    geometry and ``degraded_slack``) both as the medium that routes
    when no compiled kernel is available and as the reference the
    equivalence suite compares against.
    """

    def __init__(self, topology: GridTopology, max_hops: int = 256,
                 metrics: Optional[MetricsRegistry] = None):
        self.topology = topology
        self.scalar = GeospatialRouter(topology, max_hops=max_hops)
        self.max_hops = max_hops
        self.metrics = metrics
        self._table_cache_size = _TABLE_CACHE_SIZE
        self._tables: "OrderedDict[Tuple[float, int], NextHopTable]" = (
            OrderedDict())
        topology.add_fault_listener(self.invalidate)

    # -- table cache ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached next-hop table (fault listeners call this)."""
        self._tables.clear()

    def table_cache_size(self) -> int:
        """Number of next-hop tables currently cached (diagnostics)."""
        return len(self._tables)

    def _count(self, name: str, amount: int = 1, **labels: object) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, **labels).inc(amount)

    def _table(self, t: float) -> NextHopTable:
        key = (float(t), self.topology.fault_epoch)
        table = self._tables.get(key)
        if table is not None:
            self._tables.move_to_end(key)
            self._count("routing.table_cache_hits")
            return table
        self._count("routing.table_cache_misses")
        self._count("routing.table_builds")
        snapshot = snapshot_for(self.topology.propagator, t)
        table = NextHopTable(snapshot, self.topology)
        self._tables[key] = table
        while len(self._tables) > self._table_cache_size:
            self._tables.popitem(last=False)
        return table

    # -- scalar delegation ----------------------------------------------------

    def route(self, src_sat: int, dest_lat: float, dest_lon: float,
              t: float,
              avoid_links: Optional[Set[FrozenSet[int]]] = None
              ) -> RouteResult:
        """Single-packet routing (delegates to the scalar reference)."""
        self._count("routing.packets", plane="scalar")
        return self.scalar.route(src_sat, dest_lat, dest_lon, t,
                                 avoid_links=avoid_links)

    # -- the batch walk --------------------------------------------------------

    def route_batch(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float], t: float,
                    avoid_links: Optional[Set[FrozenSet[int]]] = None
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets that share one epoch ``t``.

        The compiled kernel walks each packet, deflections included,
        in chunks of ``_CHUNK_SIZE`` packets; without it every packet
        goes through the scalar walk.  ``avoid_links`` marks extra
        links as down for this call only.
        """
        src = np.ascontiguousarray(np.asarray(src_sats, dtype=np.int64))
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        if not (src.shape == dlat.shape == dlon.shape and src.ndim == 1):
            raise ValueError("src/dest arrays must share one (N,) shape")
        n = src.shape[0]
        total = self.topology.constellation.total_satellites
        if n and (int(src.min()) < 0 or int(src.max()) >= total):
            raise ValueError("source satellite index out of range")
        self._count("routing.batches")
        self._count("routing.packets", n, plane="batch")
        if self.metrics is not None:
            self.metrics.histogram(
                "routing.batch_size",
                buckets=BATCH_SIZE_BUCKETS).observe(float(n))

        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        cause = np.zeros(n, dtype=np.uint8)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.ones(n, dtype=np.int32)
        if n == 0:
            return BatchRouteResult(delivered, degraded, delay, distance,
                                    np.full((0, 1), -1, dtype=np.int32),
                                    path_len, fallback,
                                    fallback_cause=cause)

        table = self._table(t)
        kernel = load_kernel()
        if kernel is None:
            return self._route_scalar(src, dlat, dlon, t, avoid_links)
        edge = self._edge_mask(table, avoid_links)
        # One raw path buffer for the whole batch; each chunk's rows are
        # a contiguous slice the kernel writes in place, so there is no
        # per-chunk stitch copy at all.  -1 normalisation of
        # never-written cells happens lazily on first path_buffer
        # access (see BatchRouteResult).
        #
        # The capacity is deliberately small: an uninitialised 64-column
        # buffer costs far less than a (max_hops + 1)-column one, and
        # +Grid walks on the paper's shells mostly stay under 64 nodes.
        # The few rows that outgrow it are re-walked below with a
        # full-width buffer.
        cap = min(self.max_hops + 1, _FIRST_PASS_CAPACITY)
        paths = np.empty((n, cap), dtype=np.int32)
        self._count("routing.kernel_packets", n)
        overflow = 0
        for lo in range(0, n, _CHUNK_SIZE):
            hi = min(n, lo + _CHUNK_SIZE)
            overflow += self._route_chunk_kernel(
                kernel, table, edge, src[lo:hi], dlat[lo:hi], dlon[lo:hi],
                delivered[lo:hi], degraded[lo:hi], delay[lo:hi],
                distance[lo:hi], path_len[lo:hi], fallback[lo:hi],
                cause[lo:hi], paths[lo:hi])
        if overflow:
            paths = self._rewalk_long(kernel, table, edge, src, dlat, dlon,
                                      delivered, degraded, delay, distance,
                                      path_len, paths)
        self._count_fallbacks(cause, scalar=0)
        return BatchRouteResult(delivered, degraded, delay, distance,
                                paths, path_len, fallback,
                                normalized=False, fallback_cause=cause)

    def _route_scalar(self, src: np.ndarray, dlat: np.ndarray,
                      dlon: np.ndarray, t: float,
                      avoid_links: Optional[Set[FrozenSet[int]]]
                      ) -> BatchRouteResult:
        """Every packet through the scalar walk (no compiled kernel),
        each with the cause code of its first deflection."""
        walks = [self.scalar._walk(s, la, lo, t, avoid_links)
                 for s, la, lo in zip(src.tolist(), dlat.tolist(),
                                      dlon.tolist())]
        results = [result for result, _ in walks]
        path_len = np.array([len(r.path) for r in results], dtype=np.int32)
        paths = np.full((len(results), int(path_len.max())), -1,
                        dtype=np.int32)
        for row, result in zip(paths, results):
            row[:len(result.path)] = result.path
        cause = np.array([code for _, code in walks], dtype=np.uint8)
        self._count_fallbacks(cause, scalar=len(results))
        return BatchRouteResult(
            np.array([r.delivered for r in results], dtype=bool),
            np.array([r.degraded for r in results], dtype=bool),
            np.array([r.delay_s for r in results], dtype=float),
            np.array([r.distance_km for r in results], dtype=float),
            paths, path_len, cause > 0, fallback_cause=cause)

    def _edge_mask(self, table: NextHopTable,
                   avoid_links: Optional[Set[FrozenSet[int]]]
                   ) -> Optional[np.ndarray]:
        """Edge liveness for one call: the table's fault mask with the
        caller's ``avoid_links`` cleared (``None`` = every edge live).

        The cached table is never modified; avoided links get a
        per-call copy.  Entries that are not a pair of satellite
        indices match no +Grid edge, as in the scalar walk.
        """
        if not avoid_links:
            return table.edge_up
        neighbors = table.neighbors
        total = neighbors.shape[0]
        edge = (np.ones(neighbors.shape, dtype=bool)
                if table.edge_up is None else table.edge_up.copy())
        for link in avoid_links:
            if len(link) == 2 and all(0 <= v < total for v in link):
                a, b = link
                edge[a, neighbors[a] == b] = False
                edge[b, neighbors[b] == a] = False
        return edge

    # -- the epoch sweep -------------------------------------------------------

    def route_sweep(self, src_sats: Sequence[int],
                    dest_lats: Sequence[float],
                    dest_lons: Sequence[float],
                    ts: Sequence[float],
                    avoid_links: Optional[Set[FrozenSet[int]]] = None
                    ) -> BatchRouteResult:
        """Route ``(N,)`` packets, each at its *own* epoch ``ts[i]``.

        The time-sweeping face of the batch plane: packets are grouped
        by epoch, each epoch's wave runs through one
        :meth:`route_batch` call against that epoch's next-hop table,
        and the per-epoch results scatter back into one flat
        :class:`BatchRouteResult` **in input order**.  Packets are
        independent, so the grouping is bitwise neutral: element ``i``
        equals ``GeospatialRouter.route(src[i], lat[i], lon[i],
        ts[i])`` exactly, which is what the serial-vs-sweep
        equivalence suite asserts.

        The table LRU is sized to the sweep before the first wave
        routes: a 24-epoch sweep over the default 8-entry cache would
        otherwise evict every table it builds before a repeated sweep
        could reuse it.  The capacity only grows, and sweeps that
        revisit their epochs rebuild nothing (``routing.table_builds``
        counts exactly one build per distinct ``(t, fault_epoch)``).
        """
        src = np.ascontiguousarray(np.asarray(src_sats, dtype=np.int64))
        dlat = np.ascontiguousarray(np.asarray(dest_lats, dtype=float))
        dlon = np.ascontiguousarray(np.asarray(dest_lons, dtype=float))
        t_arr = np.asarray(ts, dtype=float)
        if not (src.shape == dlat.shape == dlon.shape == t_arr.shape
                and src.ndim == 1):
            raise ValueError(
                "src/dest/ts arrays must share one (N,) shape")
        n = src.shape[0]
        self._count("routing.sweeps")
        if n == 0:
            return BatchRouteResult(
                np.zeros(0, dtype=bool), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=float), np.zeros(0, dtype=float),
                np.full((0, 1), -1, dtype=np.int32),
                np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool))
        epochs, inverse = np.unique(t_arr, return_inverse=True)
        self._count("routing.sweep_epochs", int(epochs.size))
        if int(epochs.size) > self._table_cache_size:
            self._table_cache_size = int(epochs.size)
        # Build every epoch's snapshot up front through the
        # sweep-sized prefetch, so neither the table builds below nor
        # the scalar walk (without the kernel) can thrash the snapshot
        # LRU on sweeps wider than its default capacity.
        snapshots_for(self.topology.propagator,
                      [float(t) for t in epochs])

        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        cause = np.zeros(n, dtype=np.uint8)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.ones(n, dtype=np.int32)
        paths: Optional[np.ndarray] = None
        for k in range(epochs.size):
            sel = np.nonzero(inverse == k)[0]
            wave = self.route_batch(src[sel], dlat[sel], dlon[sel],
                                    float(epochs[k]),
                                    avoid_links=avoid_links)
            delivered[sel] = wave.delivered
            degraded[sel] = wave.degraded
            fallback[sel] = wave.fallback
            cause[sel] = wave.fallback_cause
            delay[sel] = wave.delay_s
            distance[sel] = wave.distance_km
            path_len[sel] = wave.path_len
            # Merge the *raw* per-wave path buffers: only the first
            # ``path_len`` cells of a row are meaningful either way,
            # and ``normalized=False`` below defers the -1 padding of
            # everything else to first path_buffer access (exactly the
            # route_batch kernel-path policy).
            rows = wave._paths
            if paths is None:
                paths = np.empty((n, rows.shape[1]), dtype=np.int32)
            elif rows.shape[1] > paths.shape[1]:
                wider = np.empty((n, rows.shape[1]), dtype=np.int32)
                wider[:, :paths.shape[1]] = paths
                paths = wider
            paths[sel, :rows.shape[1]] = rows
        assert paths is not None
        return BatchRouteResult(delivered, degraded, delay, distance,
                                paths, path_len, fallback,
                                normalized=False, fallback_cause=cause)

    def sweep_trials(self, src: Tuple[float, float],
                     dst: Tuple[float, float],
                     ts: Sequence[float]
                     ) -> Tuple[np.ndarray, BatchRouteResult]:
        """Relay convenience: one packet per epoch from a ground source.

        For every epoch ``t`` the serving satellite over the ground
        point ``src`` is looked up on that epoch's snapshot (the same
        ``snapshot_for(...).serving_satellite`` read the scalar relay
        loop performs) and a packet is routed from it to the ground
        destination ``dst`` through :meth:`route_sweep`.  Epochs whose
        source point is uncovered are not routed: their slots come
        back undelivered with zero delay/distance and an empty path
        (``path_len == 0``), matching the scalar pipeline's
        "no serving satellite" trial records.

        Returns ``(src_sats, result)``: the per-epoch serving
        satellite (``-1`` = uncovered) and the flat epoch-aligned
        :class:`BatchRouteResult`.
        """
        ts_list = [float(t) for t in ts]
        n = len(ts_list)
        snaps = snapshots_for(self.topology.propagator, ts_list)
        src_sats = np.fromiter(
            (snap.serving_satellite(src[0], src[1]) for snap in snaps),
            dtype=np.int64, count=n)
        routed = np.nonzero(src_sats >= 0)[0]
        wave = self.route_sweep(
            src_sats[routed],
            np.full(routed.size, dst[0]), np.full(routed.size, dst[1]),
            np.asarray(ts_list, dtype=float)[routed])
        if routed.size == n:
            return src_sats, wave
        delivered = np.zeros(n, dtype=bool)
        degraded = np.zeros(n, dtype=bool)
        fallback = np.zeros(n, dtype=bool)
        cause = np.zeros(n, dtype=np.uint8)
        delay = np.zeros(n, dtype=float)
        distance = np.zeros(n, dtype=float)
        path_len = np.zeros(n, dtype=np.int32)
        buffer = wave.path_buffer if routed.size else np.full(
            (0, 1), -1, dtype=np.int32)
        paths = np.full((n, max(buffer.shape[1], 1)), -1, dtype=np.int32)
        delivered[routed] = wave.delivered
        degraded[routed] = wave.degraded
        fallback[routed] = wave.fallback
        cause[routed] = wave.fallback_cause
        delay[routed] = wave.delay_s
        distance[routed] = wave.distance_km
        path_len[routed] = wave.path_len
        if routed.size:
            paths[routed, :buffer.shape[1]] = buffer
        return src_sats, BatchRouteResult(delivered, degraded, delay,
                                          distance, paths, path_len,
                                          fallback, fallback_cause=cause)

    def _route_chunk_kernel(self, kernel: ctypes.CDLL,
                            table: NextHopTable,
                            edge: Optional[np.ndarray], src: np.ndarray,
                            dlat: np.ndarray, dlon: np.ndarray,
                            delivered: np.ndarray, degraded: np.ndarray,
                            delay: np.ndarray, distance: np.ndarray,
                            path_len: np.ndarray, fallback: np.ndarray,
                            cause: np.ndarray, paths: np.ndarray) -> int:
        """One chunk through the compiled per-packet walk.

        The whole of Algorithm 1, deflection included (see
        ``_walk_kernel``); scatters into the output views and writes
        each packet's path into its row of ``paths`` (a contiguous
        row-slice of the batch buffer; only the first ``path_len``
        cells of a row are touched).  Returns the number of rows that
        outgrew the buffer (``path_len == -1``).
        """
        n = src.shape[0]
        theta = self.scalar.coverage_angle
        c = self.topology.constellation
        system = self.scalar.system
        a0, g0, a1, g1 = system.both_representations_batch(dlat, dlon)
        cos_dlat = np.cos(dlat)
        unit_x = cos_dlat * np.cos(dlon)
        unit_y = cos_dlat * np.sin(dlon)
        unit_z = np.sin(dlat)

        def ptr(array: np.ndarray) -> ctypes.c_void_p:
            return ctypes.c_void_p(array.ctypes.data)

        visited = np.zeros(table.neighbors.shape[0], dtype=np.int32)
        return int(kernel.walk_chunk(
            n, self.max_hops, paths.shape[1],
            theta, theta * self.scalar.degraded_slack,
            math.cos(theta) + _COVERAGE_GUARD,
            math.cos(theta) - _COVERAGE_GUARD,
            c.delta_raan, c.delta_phase,
            min(system.inclination, math.pi - system.inclination),
            math.sin(system.inclination), math.cos(system.inclination),
            ptr(src), ptr(a0), ptr(g0), ptr(a1), ptr(g1),
            ptr(dlat), ptr(dlon),
            ptr(unit_x), ptr(unit_y), ptr(unit_z),
            ptr(table.alpha), ptr(table.gamma),
            ptr(table.sub_lat), ptr(table.sub_lon),
            ptr(table.unit_x), ptr(table.unit_y), ptr(table.unit_z),
            ptr(table.neighbors), ptr(table.hop_km),
            ptr(table.hop_delay_s),
            ptr(edge) if edge is not None else None, ptr(visited),
            ptr(delivered), ptr(degraded), ptr(fallback), ptr(cause),
            ptr(delay), ptr(distance), ptr(path_len), ptr(paths)))

    def _rewalk_long(self, kernel: ctypes.CDLL, table: NextHopTable,
                     edge: Optional[np.ndarray], src: np.ndarray,
                     dlat: np.ndarray, dlon: np.ndarray,
                     delivered: np.ndarray, degraded: np.ndarray,
                     delay: np.ndarray, distance: np.ndarray,
                     path_len: np.ndarray, paths: np.ndarray
                     ) -> np.ndarray:
        """Second kernel pass over the rows that outgrew the first
        pass's buffer, with room for ``max_hops + 1`` nodes.

        The first pass already recorded these rows' fallback flags and
        causes; the re-walk supplies everything else.  Returns the
        batch path buffer, widened to the longest re-walked path.
        """
        rows = np.nonzero(path_len < 0)[0]
        k = rows.size
        long_delivered = np.zeros(k, dtype=bool)
        long_degraded = np.zeros(k, dtype=bool)
        long_delay = np.zeros(k, dtype=float)
        long_distance = np.zeros(k, dtype=float)
        long_len = np.ones(k, dtype=np.int32)
        long_paths = np.empty((k, self.max_hops + 1), dtype=np.int32)
        self._route_chunk_kernel(
            kernel, table, edge, src[rows], dlat[rows], dlon[rows],
            long_delivered, long_degraded, long_delay, long_distance,
            long_len, np.zeros(k, dtype=bool), np.zeros(k, dtype=np.uint8),
            long_paths)
        delivered[rows] = long_delivered
        degraded[rows] = long_degraded
        delay[rows] = long_delay
        distance[rows] = long_distance
        path_len[rows] = long_len
        width = int(long_len.max())
        if width > paths.shape[1]:
            wider = np.empty((paths.shape[0], width), dtype=np.int32)
            wider[:, :paths.shape[1]] = paths
            paths = wider
        paths[rows, :width] = long_paths[:, :width]
        return paths

    def _count_fallbacks(self, cause: np.ndarray, scalar: int) -> None:
        """``routing.fallbacks{cause=...}`` per flagged packet, and
        ``routing.scalar_fallbacks`` per packet the scalar walk
        routed."""
        if self.metrics is None:
            return
        counts = np.bincount(cause, minlength=len(FALLBACK_CAUSES) + 1)
        for code, name in enumerate(FALLBACK_CAUSES, start=1):
            self._count("routing.fallbacks", int(counts[code]), cause=name)
        self._count("routing.scalar_fallbacks", scalar)

