"""Algorithm 1 deflection inside the compiled walk kernel.

The kernel routes every packet itself -- seam revisits, dead links,
centred-but-uncovered packets, caller-supplied ``avoid_links`` and
walks longer than its first-pass path buffer -- so on the kernel path
the scalar walk is never called.  These tests replace it with a
function that raises while the kernel routes, and compare the kernel,
the no-kernel batch (``REPRO_NO_CKERNEL=1``: every packet through the
scalar walk, which reports its own first deflection cause) and the
unpatched scalar reference bit for bit: delivered, degraded, delay,
distance and path, plus ``fallback`` and ``fallback_cause``.
"""

import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.orbits import make_propagator, oneweb, starlink
from repro.orbits.constellation import Constellation
from repro.orbits.snapshot import snapshot_for
from repro.topology._walk_kernel import load_kernel
from repro.topology.batch_routing import BatchGeoRouter
from repro.topology.grid import GridTopology
from repro.topology.routing import FALLBACK_CAUSES, GeospatialRouter
from tests.walker_strategies import faulted_topologies

_KERNEL_AVAILABLE = load_kernel() is not None
#: ``False``: route without the kernel (``REPRO_NO_CKERNEL=1``, the
#: scalar walk); ``True``: the compiled kernel, where one exists.
KERNEL_MODES = [False, True] if _KERNEL_AVAILABLE else [False]
needs_kernel = pytest.mark.skipif(not _KERNEL_AVAILABLE,
                                  reason="no compiled walk kernel")

CAUSE_CODE = {name: code for code, name in enumerate(FALLBACK_CAUSES, 1)}


@pytest.fixture
def use_kernel(request, monkeypatch):
    """The ``KERNEL_MODES`` leg; ``False`` sets ``REPRO_NO_CKERNEL``."""
    if not request.param:
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    return request.param


def _no_kernel():
    """Route without the compiled kernel inside this block."""
    return mock.patch.dict(os.environ, {"REPRO_NO_CKERNEL": "1"})


def _no_scalar(*_args, **_kwargs):
    raise AssertionError("the kernel path called the scalar walk")


def _reference(scalar, src, lats, lons, t, avoid_links=None):
    return [scalar.route(int(s), float(la), float(lo), t,
                         avoid_links=avoid_links)
            for s, la, lo in zip(src, lats, lons)]


def _assert_matches(batch, expected):
    assert len(batch) == len(expected)
    for i, want in enumerate(expected):
        got = batch.result(i)
        assert ((got.delivered, got.degraded, got.delay_s,
                 got.distance_km, got.path)
                == (want.delivered, want.degraded, want.delay_s,
                    want.distance_km, want.path)), i


def _route(router, src, lats, lons, t, avoid_links=None):
    """``route_batch``; on the kernel the scalar walk must stay unused."""
    if load_kernel() is None:
        return router.route_batch(src, lats, lons, t,
                                  avoid_links=avoid_links)
    with mock.patch.object(GeospatialRouter, "_walk", _no_scalar):
        return router.route_batch(src, lats, lons, t,
                                  avoid_links=avoid_links)


def _assert_same_flags(kernel, no_kernel):
    """Both media flag the same packets with the same first cause, but
    for ``path_capacity``, which only the kernel raises."""
    capacity = kernel.fallback_cause == CAUSE_CODE["path_capacity"]
    assert np.array_equal(kernel.fallback, no_kernel.fallback | capacity)
    assert np.array_equal(kernel.fallback_cause[~capacity],
                          no_kernel.fallback_cause[~capacity])


def _band_wave(constellation, packets, rng):
    band = math.radians(min(constellation.inclination_deg,
                            180.0 - constellation.inclination_deg)) - 0.02
    src = rng.integers(0, constellation.total_satellites, packets)
    lats = rng.uniform(-band, band, packets)
    lons = rng.uniform(-math.pi, math.pi, packets)
    return src, lats, lons


def _faulted_starlink(seed=200, fraction=0.02):
    """Starlink with a seeded share of satellites failed, plus the rng
    positioned to draw that shell's wave."""
    c = starlink()
    topo = GridTopology(make_propagator(c, "ideal"), [])
    rng = np.random.default_rng(seed)
    victims = rng.choice(c.total_satellites,
                         round(fraction * c.total_satellites),
                         replace=False)
    for sat in sorted(int(v) for v in victims):
        topo.fail_satellite(sat)
    return topo, rng


@st.composite
def deflection_cases(draw):
    """A faulted random shell, packets, ``avoid_links`` and a budget.

    Half the destinations sit within 1e-10 rad of some satellite's
    coverage edge at ``t``, where a sloppy coverage screen would flip
    the delivery verdict.
    """
    topology, t = draw(faulted_topologies())
    c = topology.constellation
    total = c.total_satellites
    neighbors = topology.neighbor_table
    avoid = set()
    for sat, direction in draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, 3)),
            max_size=max(1, total // 4))):
        neighbor = int(neighbors[sat, direction])
        if neighbor != sat:
            avoid.add(frozenset((sat, neighbor)))
    snap = snapshot_for(topology.propagator, t)
    theta = GeospatialRouter(topology).coverage_angle
    packets = draw(st.integers(1, 12))
    src, lats, lons = [], [], []
    for _ in range(packets):
        src.append(draw(st.integers(0, total - 1)))
        if draw(st.booleans()):
            sat = draw(st.integers(0, total - 1))
            sub_lat, sub_lon = snap.subpoints[sat]
            eps = draw(st.floats(-1e-10, 1e-10))
            toward_equator = -1.0 if sub_lat > 0 else 1.0
            lats.append(float(sub_lat + toward_equator * (theta + eps)))
            lons.append(float(sub_lon))
        else:
            lats.append(draw(st.floats(-1.5, 1.5)))
            lons.append(draw(st.floats(-math.pi, math.pi)))
    max_hops = draw(st.sampled_from([1, 5, 40, 256]))
    return (topology, t, np.asarray(src, dtype=np.int64),
            np.asarray(lats), np.asarray(lons), avoid, max_hops)


class TestDifferential:
    @given(deflection_cases())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_kernel_no_kernel_scalar_agree(self, case):
        topology, t, src, lats, lons, avoid, max_hops = case
        scalar = GeospatialRouter(topology, max_hops=max_hops)
        router = BatchGeoRouter(topology, max_hops=max_hops)
        for avoid_links in (None, avoid):
            expected = _reference(scalar, src, lats, lons, t,
                                  avoid_links)
            with _no_kernel():
                no_kernel = router.route_batch(src, lats, lons, t,
                                               avoid_links=avoid_links)
            _assert_matches(no_kernel, expected)
            if _KERNEL_AVAILABLE:
                batch = _route(router, src, lats, lons, t, avoid_links)
                _assert_matches(batch, expected)
                _assert_same_flags(batch, no_kernel)


@pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
class TestRegressions:
    def test_oneweb_long_walks(self, use_kernel):
        """Walks over 64 nodes outgrow the kernel's first-pass buffer
        and are re-walked with a full-width one."""
        c = oneweb()
        topo = GridTopology(make_propagator(c, "ideal"), [])
        src, lats, lons = _band_wave(c, 2000, np.random.default_rng(3))
        router = BatchGeoRouter(topo)
        full = _route(router, src, lats, lons, 600.0)
        long_rows = np.nonzero(full.path_len > 64)[0]
        assert long_rows.size >= 20
        sample = np.unique(np.concatenate([long_rows, np.arange(100)]))
        batch = _route(router, src[sample], lats[sample], lons[sample],
                       600.0)
        _assert_matches(batch, _reference(router.scalar, src[sample],
                                          lats[sample], lons[sample],
                                          600.0))

    def test_max_hops_exhausted_walks(self, use_kernel):
        """2 %-faulted Starlink: deflected walks that use up all 256
        hops come back undelivered with their 257-node partial path."""
        topo, rng = _faulted_starlink()
        src, lats, lons = _band_wave(topo.constellation, 10_000, rng)
        t = float(rng.uniform(0.0, topo.constellation.period_s))
        rows = np.array([3443, 4663, 7768, 0, 1, 2])
        router = BatchGeoRouter(topo)
        batch = _route(router, src[rows], lats[rows], lons[rows], t)
        assert list(batch.path_len[:3]) == [257, 257, 257]
        assert not batch.delivered[:3].any()
        assert batch.fallback[:3].all()
        _assert_matches(batch, _reference(router.scalar, src[rows],
                                          lats[rows], lons[rows], t))

    def test_revisit_after_deflection_on_full_torus(self, use_kernel):
        """After a deflection the strict-decrease argument is gone: the
        greedy step can point back into the path prefix even on a
        full-torus shell, and the walk must deflect again."""
        topo, rng = _faulted_starlink()
        src, lats, lons = _band_wave(topo.constellation, 10_000, rng)
        t = float(rng.uniform(0.0, topo.constellation.period_s))
        rows = np.arange(1000)
        router = BatchGeoRouter(topo)
        batch = _route(router, src[rows], lats[rows], lons[rows], t)
        snap = snapshot_for(topo.propagator, t)
        scalar = router.scalar
        revisits = []
        for i in np.nonzero(batch.fallback)[0]:
            path = batch.path(int(i))
            reps = scalar.system.both_representations(float(lats[i]),
                                                      float(lons[i]))
            deflected = False
            for k in range(len(path) - 1):
                greedy = scalar._next_hop_snap(snap, path[k], reps)
                if greedy == path[k + 1]:
                    continue
                if (deflected and greedy in path[:k + 1]
                        and topo.isl_up(path[k], greedy)):
                    revisits.append(int(i))
                    break
                deflected = True
        assert len(revisits) >= 5
        _assert_matches(batch, _reference(scalar, src[rows], lats[rows],
                                          lons[rows], t))

    def test_failed_source_satellite(self, use_kernel):
        c = starlink()
        topo = GridTopology(make_propagator(c, "ideal"), [])
        topo.fail_satellite(100)
        sub_lat, sub_lon = snapshot_for(topo.propagator, 0.0).subpoints[100]
        router = BatchGeoRouter(topo)
        lats = np.array([-sub_lat])
        lons = np.array([sub_lon + math.pi])
        batch = _route(router, [100], lats, lons, 0.0)
        assert not batch.delivered[0]
        assert batch.path(0) == [100]
        assert batch.fallback[0]
        assert batch.fallback_cause[0] == CAUSE_CODE["dead_link"]
        _assert_matches(batch, _reference(router.scalar, [100], lats,
                                          lons, 0.0))

    def test_small_hop_budget(self, use_kernel):
        topo, rng = _faulted_starlink()
        src, lats, lons = _band_wave(topo.constellation, 300, rng)
        router = BatchGeoRouter(topo, max_hops=5)
        batch = _route(router, src, lats, lons, 1200.0)
        exhausted = batch.path_len == 6
        assert exhausted.any() and not batch.delivered[exhausted].any()
        _assert_matches(batch, _reference(router.scalar, src, lats, lons,
                                          1200.0))

    def test_dead_link_cause_precedes_seam_revisit(self, use_kernel):
        """On a pi-spread shell the greedy walk from 10 crosses five
        planes to 100, whose preferred neighbour across the seam is 10
        again: a revisit over an edge the path never used.  Avoiding
        that edge makes it dead as well, and ``dead_link`` wins."""
        c = Constellation(name="tall", num_planes=6, sats_per_plane=18,
                          altitude_km=780.0, inclination_deg=86.4,
                          raan_spread=math.pi)
        topo = GridTopology(make_propagator(c, "ideal"), [])
        router = BatchGeoRouter(topo)
        lats = np.array([-0.3724332910742927])
        lons = np.array([-0.06955827024155159])
        greedy = _route(router, [10], lats, lons, 0.0)
        assert greedy.path(0)[:6] == [10, 28, 46, 64, 82, 100]
        assert greedy.fallback_cause[0] == CAUSE_CODE["seam_revisit"]
        avoid = {frozenset((100, 10))}
        batch = _route(router, [10], lats, lons, 0.0, avoid_links=avoid)
        assert batch.fallback_cause[0] == CAUSE_CODE["dead_link"]
        _assert_matches(batch, _reference(router.scalar, [10], lats, lons,
                                          0.0, avoid_links=avoid))

    def test_avoid_links_flags_only_walks_that_leave_greedy(
            self, use_kernel):
        c = starlink()
        topo = GridTopology(make_propagator(c, "ideal"), [])
        router = BatchGeoRouter(topo)
        src, lats, lons = _band_wave(c, 200, np.random.default_rng(8))
        base = router.route_batch(src, lats, lons, 60.0)
        assert not base.fallback.any()
        avoid = set()
        for i in range(0, 200, 10):
            path = base.path(i)
            if len(path) > 3:
                avoid.add(frozenset(path[2:4]))
        batch = _route(router, src, lats, lons, 60.0, avoid_links=avoid)
        uses_avoided = np.array([
            any(frozenset(hop) in avoid
                for hop in zip(base.path(i), base.path(i)[1:]))
            for i in range(200)])
        assert uses_avoided.sum() >= 20
        assert np.array_equal(batch.fallback, uses_avoided)
        assert (batch.fallback_cause[uses_avoided]
                == CAUSE_CODE["dead_link"]).all()
        for i in np.nonzero(~uses_avoided)[0]:
            assert batch.path(int(i)) == base.path(int(i))
        _assert_matches(batch, _reference(router.scalar, src, lats, lons,
                                          60.0, avoid_links=avoid))
        # The cached table is untouched: a later call without
        # avoid_links routes greedily again.
        again = router.route_batch(src, lats, lons, 60.0)
        assert not again.fallback.any()


@pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
class TestExactTies:
    """Decisions that tie in real arithmetic, where only the scalar's
    own floating-point representations of the destination give the
    scalar's answer (NumPy's vectorised arcsin/arctan2 can be one ulp
    off), and greedy walks that bounce on a full torus."""

    @pytest.mark.parametrize("planes", [4, 6, 8])
    def test_half_cell_destinations(self, use_kernel, planes):
        """Destinations half a cell or one and a half cells from a
        satellite in both dimensions of a square shell: direction and
        deflection ties, and exact half-cell bounces."""
        c = Constellation(name="square", num_planes=planes,
                          sats_per_plane=planes, altitude_km=600.0,
                          inclination_deg=53.0 + 2.0 * planes,
                          min_elevation_deg=30.0)
        topo = GridTopology(make_propagator(c, "ideal"), [])
        router = BatchGeoRouter(topo, max_hops=20)
        system = router.scalar.system
        for t in (0.0, 300.0):
            snap = snapshot_for(topo.propagator, t)
            points = [system.to_geodetic(
                float(snap.raan_ecef[s]) + k * c.delta_raan,
                float(snap.arg_latitude[s]) + m * c.delta_phase)
                for s in range(0, c.total_satellites, 2)
                for k in (-1.5, -0.5, 0.5, 1.5)
                for m in (-1.5, -0.5, 0.5, 1.5)]
            lats = np.array([p[0] for p in points])
            lons = np.array([p[1] for p in points])
            src = np.random.default_rng(1).integers(
                0, c.total_satellites, lats.size)
            batch = _route(router, src, lats, lons, t)
            _assert_matches(batch, _reference(router.scalar, src, lats,
                                              lons, t))

    def test_deflection_tie_between_mirror_candidates(self, use_kernel):
        """At node 13 the two live unvisited candidates (12 and 6) are
        one hop further away in either dimension: their metrics tie in
        real arithmetic and the scalar's rounding keeps the first."""
        c = Constellation(name="random", num_planes=7, sats_per_plane=7,
                          altitude_km=659.0, inclination_deg=61.25,
                          phasing_factor=0,
                          min_elevation_deg=36.30312493480246)
        topo = GridTopology(make_propagator(c, "ideal"), [])
        router = BatchGeoRouter(topo, max_hops=5)
        lats = np.array([0.47269416707017636])
        lons = np.array([1.394433158327772])
        batch = _route(router, [0], lats, lons, 6480.0)
        assert batch.path(0) == [0, 7, 14, 20, 13, 12]
        _assert_matches(batch, _reference(router.scalar, [0], lats, lons,
                                          6480.0))

    @pytest.mark.parametrize("planes,slots,src,lat,max_hops", [
        (2, 2, 0, 1.0, 5),
        (3, 5, 7, 0.0, 5),
    ])
    def test_full_torus_bounce(self, use_kernel, planes, slots, src, lat,
                               max_hops):
        """Greedy walks that bounce between two satellites on a full
        torus (a ring of two; an exact half-cell tie): the scalar
        deflects at the revisit."""
        c = Constellation(name="bounce", num_planes=planes,
                          sats_per_plane=slots, altitude_km=400.0,
                          inclination_deg=30.0, phasing_factor=0,
                          min_elevation_deg=0.0)
        topo = GridTopology(make_propagator(c, "ideal"), [])
        router = BatchGeoRouter(topo, max_hops=max_hops)
        lats, lons = np.array([lat]), np.array([0.0])
        batch = _route(router, [src], lats, lons, 0.0)
        path = batch.path(0)
        assert len(set(path)) == len(path)
        assert batch.fallback_cause[0] == CAUSE_CODE["seam_revisit"]
        _assert_matches(batch, _reference(router.scalar, [src], lats,
                                          lons, 0.0))


class TestFallbackCounters:
    @pytest.mark.parametrize("use_kernel", KERNEL_MODES, indirect=True)
    def test_causes_sum_to_flags(self, use_kernel):
        c = oneweb()
        topo = GridTopology(make_propagator(c, "ideal"), [])
        topo.fail_satellite(7)
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        src, lats, lons = _band_wave(c, 600, np.random.default_rng(4))
        batch = _route(router, src, lats, lons, 900.0)
        by_cause = {name: int(metrics.counter_value("routing.fallbacks",
                                                    cause=name))
                    for name in FALLBACK_CAUSES}
        flagged = int(batch.fallback.sum())
        assert flagged > 0
        assert sum(by_cause.values()) == flagged
        assert by_cause["seam_revisit"] > 0
        assert np.array_equal(batch.fallback, batch.fallback_cause > 0)
        # The scalar walk routes every packet without the kernel and
        # none with it.
        routed = metrics.counter_value("routing.scalar_fallbacks")
        assert routed == (0 if use_kernel else len(src))
        with _no_kernel():
            no_kernel = BatchGeoRouter(topo).route_batch(src, lats, lons,
                                                         900.0)
        _assert_same_flags(batch, no_kernel)

    @needs_kernel
    def test_path_capacity_cause(self):
        """Walks that reach the kernel's 64-node first-pass buffer
        before leaving the greedy route are flagged path_capacity (the
        scalar walk has no such buffer) and still match the scalar
        walk."""
        c = Constellation(name="long-rings", num_planes=4,
                          sats_per_plane=200, altitude_km=550.0,
                          inclination_deg=53.0)
        topo = GridTopology(make_propagator(c, "ideal"), [])
        src, lats, lons = _band_wave(c, 300, np.random.default_rng(5))
        metrics = MetricsRegistry()
        router = BatchGeoRouter(topo, metrics=metrics)
        batch = _route(router, src, lats, lons, 0.0)
        capacity = batch.fallback_cause == CAUSE_CODE["path_capacity"]
        assert capacity.sum() >= 10
        assert (batch.path_len[capacity] > 64).all()
        assert metrics.counter_value("routing.fallbacks",
                                     cause="path_capacity") \
            == capacity.sum()
        with _no_kernel():
            no_kernel = BatchGeoRouter(topo).route_batch(src, lats, lons,
                                                         0.0)
        _assert_same_flags(batch, no_kernel)
        _assert_matches(batch, _reference(router.scalar, src, lats, lons,
                                          0.0))
