"""Batch routing plane: bit-exact equivalence with the scalar walk.

The contract under test is absolute, not approximate: for every
packet, :meth:`~repro.topology.batch_routing.BatchGeoRouter.route_batch`
must reproduce the scalar :class:`~repro.topology.routing.GeospatialRouter`
walk *bit for bit* -- same delivered/degraded verdicts, same hop
sequence, and floating-point-identical delay and distance sums --
across healthy grids, coverage-edge destinations, and fault cocktails,
with and without the compiled C kernel.  Any `==` here is deliberate.
"""

import math

import numpy as np
import pytest

from repro.orbits.constellation import Constellation, iridium, starlink
from repro.orbits.propagator import make_propagator
from repro.orbits.snapshot import snapshot_for
from repro.topology import batch_routing
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import GridTopology
from repro.topology.routing import (
    RELAY_MAX_HOPS,
    DijkstraRouter,
    GeospatialRouter,
    path_stretch,
)

#: Constellation zoo: a Table-1 shell plus synthetic grids chosen to
#: stress the seam cases (full torus vs pi-spread, small planes).
CONSTELLATIONS = {
    "starlink": starlink,
    "iridium": iridium,
    "square": lambda: Constellation(
        name="square", num_planes=12, sats_per_plane=12,
        altitude_km=550.0, inclination_deg=53.0),
    "tall": lambda: Constellation(
        name="tall", num_planes=6, sats_per_plane=18,
        altitude_km=780.0, inclination_deg=86.4,
        raan_spread=np.pi),
    "wide": lambda: Constellation(
        name="wide", num_planes=18, sats_per_plane=6,
        altitude_km=1200.0, inclination_deg=87.9,
        raan_spread=np.pi),
}

_KERNEL_AVAILABLE = load_kernel() is not None

#: Both execution paths of the batch plane must match the scalar
#: reference: ``False`` routes with ``REPRO_NO_CKERNEL=1`` (the scalar
#: walk, packet by packet), ``True`` through the compiled kernel, which
#: only runs where a C compiler exists.
KERNEL_MODES = ([False, True] if _KERNEL_AVAILABLE else [False])


@pytest.fixture
def use_kernel(request, monkeypatch):
    """The ``KERNEL_MODES`` leg; ``False`` sets ``REPRO_NO_CKERNEL``."""
    if not request.param:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    return request.param


def _topology(name):
    constellation = CONSTELLATIONS[name]()
    return GridTopology(make_propagator(constellation, "ideal"), [])


def _wave(constellation, packets, seed, lat_slack=0.02):
    rng = np.random.default_rng(seed)
    band = math.radians(min(constellation.inclination_deg,
                            180.0 - constellation.inclination_deg))
    band = band - lat_slack
    src = rng.integers(0, constellation.total_satellites, packets)
    lats = rng.uniform(-band, band, packets)
    lons = rng.uniform(-math.pi, math.pi, packets)
    return src, lats, lons


def assert_bit_equal(batch, scalar_router, src, lats, lons, t,
                     avoid_links=None):
    """Every packet of the batch must equal the scalar walk exactly."""
    for i in range(len(src)):
        expected = scalar_router.route(int(src[i]), float(lats[i]),
                                       float(lons[i]), t,
                                       avoid_links=avoid_links)
        assert bool(batch.delivered[i]) == expected.delivered, i
        assert bool(batch.degraded[i]) == expected.degraded, i
        assert float(batch.delay_s[i]) == expected.delay_s, i
        assert float(batch.distance_km[i]) == expected.distance_km, i
        assert batch.path(i) == expected.path, i


def assert_sweep_bit_equal(swept, scalar_router, src, lats, lons, ts):
    """Every sweep packet must equal the scalar walk *at its epoch*."""
    for i in range(len(src)):
        expected = scalar_router.route(int(src[i]), float(lats[i]),
                                       float(lons[i]), float(ts[i]))
        assert bool(swept.delivered[i]) == expected.delivered, i
        assert bool(swept.degraded[i]) == expected.degraded, i
        assert float(swept.delay_s[i]) == expected.delay_s, i
        assert float(swept.distance_km[i]) == expected.distance_km, i
        assert swept.path(i) == expected.path, i


def _sweep_wave(constellation, packets, epochs, seed, spacing_s=240.0):
    """A mixed-epoch wave: interleaved (unsorted, repeated) epochs."""
    src, lats, lons = _wave(constellation, packets, seed)
    grid = np.array([spacing_s * k for k in range(epochs)])
    ts = grid[np.arange(packets) % epochs]
    return src, lats, lons, ts


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    @pytest.mark.parametrize("name", sorted(CONSTELLATIONS))
    def test_random_waves_healthy(self, name, use_kernel):
        topo = _topology(name)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 160, seed=7)
        batch = router.route_batch(src, lats, lons, 120.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 120.0)

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_coverage_edge_destinations(self, use_kernel):
        """Destinations nudged across the coverage boundary.

        The batch plane screens coverage with a dot product inside a
        guard band and re-tests exactly near the edge; these
        destinations sit fractions of a microradian on either side of
        delivery, where any screening sloppiness would flip verdicts.
        """
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        theta = router.scalar.coverage_angle
        snap = snapshot_for(topo.propagator, 60.0)
        rng = np.random.default_rng(13)
        sats = rng.integers(0, topo.constellation.total_satellites, 64)
        lats, lons, srcs = [], [], []
        for k, sat in enumerate(sats):
            slat, slon = snap.subpoints[sat]
            for eps in (-1e-7, -1e-10, 0.0, 1e-10, 1e-7):
                lat = slat + (theta + eps) * (1 if k % 2 else -1)
                if abs(lat) > math.radians(88.0):
                    continue
                lats.append(lat)
                lons.append(slon)
                srcs.append(int(sats[(k + 7) % len(sats)]))
        src = np.asarray(srcs, dtype=np.int64)
        lats = np.asarray(lats)
        lons = np.asarray(lons)
        batch = router.route_batch(src, lats, lons, 60.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 60.0)

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fault_cocktail(self, seed, use_kernel):
        """Dead satellites + torn ISLs: the deflection path must match."""
        topo = _topology("starlink")
        rng = np.random.default_rng(seed)
        for sat in rng.choice(topo.constellation.total_satellites, 40,
                              replace=False):
            topo.fail_satellite(int(sat))
        for _ in range(25):
            a = int(rng.integers(0, topo.constellation.total_satellites))
            for b in topo.isl_neighbors(a)[:2]:
                topo.fail_isl(a, b)
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 120, seed=seed + 50)
        batch = router.route_batch(src, lats, lons, 90.0)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 90.0)

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_avoid_links_matches_scalar(self, use_kernel):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 40, seed=3)
        avoid = set()
        for sat in (0, 5, 17):
            for nbr in topo.isl_neighbors(sat)[:2]:
                avoid.add(frozenset((sat, nbr)))
        batch = router.route_batch(src, lats, lons, 30.0,
                                   avoid_links=avoid)
        assert_bit_equal(batch, router.scalar, src, lats, lons, 30.0,
                         avoid_links=avoid)

    def test_path_stretch_identical_through_batch_plane(self):
        """path_stretch computed from batch results == from scalar."""
        topo = _topology("starlink")
        router = BatchGeoRouter(topo)
        base = DijkstraRouter(topo)
        snap = snapshot_for(topo.propagator, 0.0)
        src, lats, lons = _wave(topo.constellation, 24, seed=5,
                                lat_slack=0.05)
        dsts = [snap.serving_satellite(float(la), float(lo))
                for la, lo in zip(lats, lons)]
        keep = [k for k, d in enumerate(dsts) if d >= 0]
        batch = router.route_batch(src[keep], lats[keep], lons[keep],
                                   0.0)
        checked = 0
        for i, k in enumerate(keep):
            scalar = router.scalar.route(int(src[k]), float(lats[k]),
                                         float(lons[k]), 0.0)
            baseline = base.route(int(src[k]), dsts[k], 0.0)
            if not (scalar.delivered and baseline.delivered
                    and baseline.delay_s > 0):
                continue
            assert (path_stretch(batch.result(i), baseline)
                    == path_stretch(scalar, baseline))
            checked += 1
        assert checked > 0


class TestBatchRouterMechanics:
    def test_chunked_equals_single_batch(self, monkeypatch):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 101, seed=9)
        b = router.route_batch(src, lats, lons, 10.0)
        monkeypatch.setattr(batch_routing, "_CHUNK_SIZE", 32)
        a = router.route_batch(src, lats, lons, 10.0)
        assert np.array_equal(a.delay_s, b.delay_s)
        assert [a.path(i) for i in range(len(a))] \
            == [b.path(i) for i in range(len(b))]

    def test_path_buffer_is_minus_one_padded(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 32, seed=2)
        batch = router.route_batch(src, lats, lons, 0.0)
        buffer = batch.path_buffer
        for i in range(len(batch)):
            n = int(batch.path_len[i])
            assert np.all(buffer[i, n:] == -1)
            assert list(buffer[i, :n]) == batch.path(i)

    def test_table_cache_invalidated_by_fault_events(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 8, seed=4)
        before = router.route_batch(src, lats, lons, 0.0)
        victim = max((p for i in range(len(before))
                      for p in before.path(i)[:-1]),
                     key=lambda s: sum(s in before.path(i)
                                       for i in range(len(before))))
        # No manual invalidate: the fault listener must drop the
        # epoch-keyed table so the next batch sees the dead satellite.
        topo.fail_satellite(victim)
        after = router.route_batch(src, lats, lons, 0.0)
        assert_bit_equal(after, router.scalar, src, lats, lons, 0.0)
        for i in range(len(after)):
            assert victim not in after.path(i)[1:]

    def test_routing_metrics_counters(self):
        from repro.obs.metrics import MetricsRegistry, merge_snapshots
        topo = _topology("square")

        def run():
            metrics = MetricsRegistry()
            router = BatchGeoRouter(topo, metrics=metrics)
            src, lats, lons = _wave(topo.constellation, 48, seed=6)
            router.route_batch(src, lats, lons, 0.0)
            router.route_batch(src, lats, lons, 0.0)
            return metrics.snapshot()

        snap = run()
        counters = snap["counters"]
        assert counters["routing.batches"] == 2
        assert counters["routing.packets{plane=batch}"] == 96
        # The table is built once; the second batch hits the cache.
        assert counters["routing.table_builds"] == 1
        # Deterministic merge: two identical runs fold to doubled counts.
        merged = merge_snapshots([snap, run()])
        assert merged["counters"]["routing.batches"] == 4

    def test_scalar_route_delegates(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        reference = GeospatialRouter(topo)
        result = router.route(3, 0.1, 0.2, 0.0)
        expected = reference.route(3, 0.1, 0.2, 0.0)
        assert result.path == expected.path
        assert result.delay_s == expected.delay_s

    def test_rejects_mismatched_lengths(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_batch([0, 1], [0.0], [0.0, 0.0], 0.0)

    def test_rejects_out_of_range_source(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_batch([10_000], [0.0], [0.0], 0.0)

    @pytest.mark.parametrize("src", [-1, 144])
    def test_scalar_route_rejects_out_of_range_source(self, src):
        """A negative source used to wrap around to satellite
        ``N + src`` (and ``src >= N`` raised a bare IndexError)."""
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError, match="out of range"):
            router.scalar.route(src, 0.1, 0.2, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            router.route(src, 0.1, 0.2, 0.0)


class TestDijkstraBatchAndInvalidation:
    def test_route_cache_invalidated_by_fault_events(self):
        """Regression: cached graphs must not survive fault injection.

        Before the fault-listener wiring, DijkstraRouter cached its
        per-epoch graph and kept routing through satellites that had
        since died unless callers remembered to invalidate() manually.
        """
        topo = _topology("square")
        router = DijkstraRouter(topo)
        first = router.route(0, 30, 0.0)
        assert first.delivered and len(first.path) > 2
        victim = first.path[1]
        topo.fail_satellite(victim)
        rerouted = router.route(0, 30, 0.0)
        assert rerouted.delivered
        assert victim not in rerouted.path

    def test_route_many_matches_networkx_oracle(self):
        nx = pytest.importorskip("networkx")
        topo = _topology("square")
        topo.fail_satellite(7)
        topo.fail_isl(20, topo.isl_neighbors(20)[0])
        router = DijkstraRouter(topo)
        graph = topo.snapshot_graph(45.0, include_ground=False)
        rng = np.random.default_rng(17)
        total = topo.constellation.total_satellites
        srcs = [int(s) for s in rng.integers(0, total, 30)]
        dsts = [int(d) for d in rng.integers(0, total, 30)]
        many = router.route_many(srcs, dsts, 45.0)
        for result, s, d in zip(many, srcs, dsts):
            reachable = (s in graph and d in graph
                         and nx.has_path(graph, s, d))
            assert result.delivered == reachable
            if result.delivered:
                path = nx.shortest_path(graph, s, d, weight="weight")
                delay = sum(graph[a][b]["weight"]
                            for a, b in zip(path, path[1:]))
                assert abs(result.delay_s - delay) < 1e-12
                assert len(result.path) == len(path)


class TestEpochSweepEquivalence:
    """route_sweep vs the per-epoch scalar walk, bit for bit."""

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    @pytest.mark.parametrize("name", ["starlink", "iridium", "tall"])
    def test_sweep_matches_per_epoch_scalar(self, name, use_kernel):
        topo = _topology(name)
        router = BatchGeoRouter(topo)
        src, lats, lons, ts = _sweep_wave(topo.constellation, 96,
                                          epochs=6, seed=31)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    def test_sweep_under_no_ckernel_env(self, monkeypatch):
        """REPRO_NO_CKERNEL=1 forces the scalar walk; same answer."""
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        assert load_kernel() is None
        src, lats, lons, ts = _sweep_wave(topo.constellation, 64,
                                          epochs=5, seed=32)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_sweep_shuffled_epochs(self, use_kernel):
        """Arbitrary (unsorted, repeated) epoch order scatters back."""
        topo = _topology("wide")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 80, seed=33)
        rng = np.random.default_rng(33)
        ts = rng.choice([0.0, 75.0, 150.0, 900.0], size=80)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_sweep_with_faults(self, use_kernel):
        """Deflection fallbacks route at the right epoch too."""
        topo = _topology("starlink")
        rng = np.random.default_rng(34)
        for sat in rng.choice(topo.constellation.total_satellites, 30,
                              replace=False):
            topo.fail_satellite(int(sat))
        router = BatchGeoRouter(topo)
        src, lats, lons, ts = _sweep_wave(topo.constellation, 60,
                                          epochs=4, seed=35)
        swept = router.route_sweep(src, lats, lons, ts)
        assert_sweep_bit_equal(swept, router.scalar, src, lats, lons, ts)

    def test_sweep_single_epoch_equals_route_batch(self):
        """A constant-ts sweep is exactly one route_batch call."""
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        src, lats, lons = _wave(topo.constellation, 40, seed=36)
        swept = router.route_sweep(src, lats, lons,
                                   np.full(40, 120.0))
        batch = router.route_batch(src, lats, lons, 120.0)
        assert np.array_equal(swept.delivered, batch.delivered)
        assert np.array_equal(swept.delay_s, batch.delay_s)
        assert [swept.path(i) for i in range(len(swept))] \
            == [batch.path(i) for i in range(len(batch))]

    def test_empty_sweep(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        swept = router.route_sweep([], [], [], [])
        assert len(swept) == 0
        assert swept.results() == []

    def test_sweep_rejects_mismatched_ts(self):
        topo = _topology("square")
        router = BatchGeoRouter(topo)
        with pytest.raises(ValueError):
            router.route_sweep([0, 1], [0.0, 0.0], [0.0, 0.0], [0.0])

    def test_sweep_sizes_table_cache_to_epochs(self):
        """A 24-epoch sweep must not thrash the default 8-entry LRU.

        Regression for the second-pass rebuild bug: with the default
        cache the sweep evicted every table it built, so repeating the
        sweep (the second propagator leg of Fig. 18b, a timing repeat)
        rebuilt all 24.  Sized to the sweep, the repeat is all hits.
        """
        from repro.obs.metrics import MetricsRegistry
        topo = _topology("square")
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        src, lats, lons, ts = _sweep_wave(topo.constellation, 96,
                                          epochs=24, seed=37,
                                          spacing_s=120.0)
        router.route_sweep(src, lats, lons, ts)
        counters = metrics.snapshot()["counters"]
        assert counters["routing.table_builds"] == 24
        assert counters["routing.sweeps"] == 1
        assert counters["routing.sweep_epochs"] == 24
        assert router.table_cache_size() == 24
        # Second pass: every epoch's table is still resident.
        router.route_sweep(src, lats, lons, ts)
        counters = metrics.snapshot()["counters"]
        assert counters["routing.table_builds"] == 24
        assert counters["routing.table_cache_hits"] >= 24

    def test_sweep_trials_matches_scalar_relay_loop(self):
        """sweep_trials == the retired snapshot+route per-epoch loop,
        including epochs whose ground source is uncovered."""
        topo = _topology("square")
        router = BatchGeoRouter(topo, max_hops=RELAY_MAX_HOPS)
        scalar = GeospatialRouter(topo, max_hops=RELAY_MAX_HOPS)
        # 53 deg shell: a 60 deg source sits on the coverage fringe
        # (served ~9 of these 24 epochs), so the sweep mixes covered
        # and uncovered epochs; the destination stays in-band.
        src = (math.radians(60.0), math.radians(116.4))
        dst = (math.radians(40.7), math.radians(-74.0))
        ts = [5700.0 * i / 24 for i in range(24)]
        src_sats, wave = router.sweep_trials(src, dst, ts)
        seen_uncovered = False
        for i, t in enumerate(ts):
            snap = snapshot_for(topo.propagator, t)
            expected_sat = snap.serving_satellite(*src)
            assert int(src_sats[i]) == expected_sat
            if expected_sat < 0:
                seen_uncovered = True
                assert not bool(wave.delivered[i])
                assert float(wave.delay_s[i]) == 0.0
                assert wave.path(i) == []
                continue
            expected = scalar.route(expected_sat, dst[0], dst[1], t)
            assert bool(wave.delivered[i]) == expected.delivered
            assert float(wave.delay_s[i]) == expected.delay_s
            assert int(wave.hops[i]) == expected.hops
            assert wave.path(i) == expected.path
        assert seen_uncovered, "pick a source that is sometimes uncovered"


class TestRelayHopBudgetParity:
    """The 256-vs-512 hop-budget parity bug (shared RELAY_MAX_HOPS).

    The scalar relay pipeline always routed with ``max_hops=512``
    while ``BatchGeoRouter`` defaults to 256; porting the pipeline to
    the batch plane without threading the budget through would
    silently fail every walk longer than 256 hops.  A real Iridium
    shell cannot produce one (the visited-set walk is bounded by its
    66 satellites), so the regression rig is an Iridium-style star
    shell (two pi-spread planes, 86.4 deg) scaled up in-plane until a
    near-antipodal slot pair needs a >256-hop walk.
    """

    @staticmethod
    def _long_walk_case():
        shell = Constellation(
            name="iridium-stretched", num_planes=2, sats_per_plane=600,
            altitude_km=780.0, inclination_deg=86.4,
            raan_spread=np.pi)
        topo = GridTopology(make_propagator(shell, "ideal"), [])
        snap = snapshot_for(topo.propagator, 0.0)
        wide = GeospatialRouter(topo, max_hops=RELAY_MAX_HOPS)
        # Scan in-plane slots around the ring antipode for a walk that
        # needs more than 256 hops (seam deflections make the exact
        # hop count slot-dependent, so probe a window; slot 275 walks
        # ~400 hops at the relay budget on this shell).
        for dest in range(275, 330, 5):
            lat, lon = snap.subpoints[dest]
            result = wide.route(0, float(lat), float(lon), 0.0)
            if result.delivered and result.hops > 256:
                return topo, float(lat), float(lon), result
        raise AssertionError("no >256-hop pair found in the window")

    def test_default_budget_drops_long_walks(self):
        topo, lat, lon, wide_result = self._long_walk_case()
        narrow = GeospatialRouter(topo, max_hops=256)
        assert not narrow.route(0, lat, lon, 0.0).delivered

    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_batch_plane_honors_relay_budget(self, use_kernel):
        topo, lat, lon, expected = self._long_walk_case()
        router = BatchGeoRouter(topo, max_hops=RELAY_MAX_HOPS)
        batch = router.route_batch([0], [lat], [lon], 0.0)
        assert bool(batch.delivered[0])
        assert int(batch.hops[0]) == expected.hops > 256
        assert float(batch.delay_s[0]) == expected.delay_s
        assert batch.path(0) == expected.path


class TestFig18bPanelParity:
    """The batched Fig. 18b pipeline == the retired scalar pipeline."""

    @staticmethod
    def _scalar_trials(constellation, kind, samples):
        from repro.experiments.relay import BEIJING, NEW_YORK
        propagator = make_propagator(constellation, kind)
        topology = GridTopology(propagator, [])
        router = GeospatialRouter(topology, max_hops=512)
        trials = []
        for i in range(samples):
            t = 5700.0 * i / samples
            snap = snapshot_for(propagator, t)
            src_sat = snap.serving_satellite(*BEIJING)
            if src_sat < 0:
                trials.append((t, False, 0.0, 0))
                continue
            r = router.route(src_sat, NEW_YORK[0], NEW_YORK[1], t)
            trials.append((t, r.delivered, r.delay_s * 1000.0, r.hops))
        return trials

    @pytest.mark.parametrize("factory", [starlink, iridium])
    def test_panel_equals_scalar_pipeline(self, factory):
        from repro.experiments.relay import (compare_ideal_vs_j4,
                                             relay_trials)
        constellation = factory()
        samples = 8
        for kind in ("ideal", "j4"):
            expected = self._scalar_trials(constellation, kind, samples)
            got = [(tr.t_s, tr.delivered, tr.delay_ms, tr.hops)
                   for tr in relay_trials(constellation, kind,
                                          samples=samples)]
            assert got == expected, (constellation.name, kind)
        # Panel values derive from the trials with the exact formulas
        # of the retired pipeline; equality is therefore exact too.
        panel = compare_ideal_vs_j4(constellation, samples=samples)
        ideal = self._scalar_trials(constellation, "ideal", samples)
        j4 = self._scalar_trials(constellation, "j4", samples)
        ideal_ok = [t for t in ideal if t[1]]
        j4_ok = [t for t in j4 if t[1]]
        assert panel.delivery_rate_ideal == len(ideal_ok) / samples
        assert panel.delivery_rate_j4 == len(j4_ok) / samples
        assert panel.mean_delay_ideal_ms == \
            sum(t[2] for t in ideal_ok) / len(ideal_ok)
        assert panel.mean_delay_j4_ms == \
            sum(t[2] for t in j4_ok) / len(j4_ok)
