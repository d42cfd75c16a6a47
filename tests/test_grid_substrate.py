"""The one +Grid substrate: neighbour table + edge liveness.

Every topology consumer -- reachability, hop counts, the Dijkstra
baseline and gateway traffic loads -- reads
``GridTopology.neighbor_table`` masked by
``GridTopology.edge_liveness()``.  These tests pin them against the
independent networkx oracle (``GridTopology.snapshot_graph``, built
from the plane/slot arithmetic, not the table) on random Walker shells
and fault sets, and check that the runtime imports neither networkx
nor scipy until a weighted path is asked for.
"""

import math
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orbits.constellation import starlink
from repro.orbits.propagator import IdealPropagator
from repro.topology.grid import GridTopology
from repro.topology.routing import DijkstraRouter
from repro.topology.traffic import (
    TrafficLoad,
    gravity_demand,
    load_to_gateways,
)
from tests.walker_strategies import STATIONS, faulted_topologies

nx = pytest.importorskip("networkx")


def _nx_load_to_gateways(topology, t, demands):
    """The networkx ``load_to_gateways`` the table version replaced.

    Kept as the oracle with the two fixes of the replacement: only
    online gateways take traffic, and a failed endpoint reaches none.
    """
    graph = topology.snapshot_graph(t, include_ground=False)
    access = {}
    for _, gs in topology.live_ground_stations():
        sat = topology.station_access_satellite(gs, t)
        if sat >= 0:
            access[gs.name] = sat
    access_sats = list(access.values())
    load = TrafficLoad()
    paths_cache = {}

    def shortest(a, b):
        if a not in graph:
            return None
        if a not in paths_cache:
            paths_cache[a] = nx.single_source_dijkstra_path(
                graph, a, weight="weight")
        return paths_cache[a].get(b)

    for src, dst, demand in demands:
        for endpoint in (src, dst):
            best_path = None
            best_cost = math.inf
            for gateway_sat in access_sats:
                path = shortest(endpoint, gateway_sat)
                if path is not None and len(path) < best_cost:
                    best_cost = len(path)
                    best_path = path
            if best_path is None:
                load.undelivered += demand
            else:
                load.add_path(best_path, demand)
    return load


class TestAgainstNetworkxOracle:
    @given(faulted_topologies())
    @settings(max_examples=60, deadline=None)
    def test_bfs_hops_and_reachability(self, case):
        topology, t = case
        graph = topology.snapshot_graph(t, include_ground=False)
        gateways = topology.gateway_access_satellites(t)
        hops = topology.hops_from(gateways)
        expected = (nx.multi_source_dijkstra_path_length(
            graph, set(gateways), weight=None) if gateways else {})
        assert {s: int(h) for s, h in enumerate(hops) if h >= 0} == expected
        for sat in graph:
            reachable = any(nx.has_path(graph, sat, g) for g in gateways)
            assert (hops[sat] >= 0) == reachable

    @given(faulted_topologies(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_route_many_delay_and_hops(self, case, data):
        topology, t = case
        graph = topology.snapshot_graph(t, include_ground=False)
        total = topology.constellation.total_satellites
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)),
            min_size=1, max_size=12))
        results = DijkstraRouter(topology).route_many(
            [s for s, _ in pairs], [d for _, d in pairs], t)
        for (s, d), result in zip(pairs, results):
            reachable = (s in graph and d in graph
                         and nx.has_path(graph, s, d))
            assert result.delivered == reachable
            if not reachable:
                continue
            path = nx.shortest_path(graph, s, d, weight="weight")
            delay = sum(graph[a][b]["weight"]
                        for a, b in zip(path, path[1:]))
            assert abs(result.delay_s - delay) <= 1e-12
            assert result.hops == len(path) - 1
            assert result.path[0] == s and result.path[-1] == d
            assert all(graph.has_edge(a, b)
                       for a, b in zip(result.path, result.path[1:]))

    @given(faulted_topologies(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_load_to_gateways(self, case, data):
        topology, t = case
        total = topology.constellation.total_satellites
        demands = data.draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, total - 1),
                      st.floats(0.5, 10.0)),
            min_size=1, max_size=10))
        got = load_to_gateways(topology, t, demands)
        want = _nx_load_to_gateways(topology, t, demands)
        assert got.link_load == want.link_load
        assert got.satellite_load == want.satellite_load
        assert got.undelivered == want.undelivered


@pytest.fixture
def starlink_topology():
    return GridTopology(IdealPropagator(starlink()), STATIONS)


class TestLoadToGatewaysFaults:
    def test_downed_gateways_carry_nothing(self, starlink_topology):
        """With every station offline no flow reaches the ground."""
        demands = gravity_demand(starlink_topology, 0.0, top_satellites=8)
        for station in range(len(STATIONS)):
            starlink_topology.fail_ground_station(station)
        load = load_to_gateways(starlink_topology, 0.0, demands)
        assert load.link_load == {}
        assert load.satellite_load == {}
        assert load.undelivered == pytest.approx(
            2.0 * sum(d for _, _, d in demands))

    def test_failed_endpoint_counts_as_undelivered(self,
                                                   starlink_topology):
        demands = gravity_demand(starlink_topology, 0.0, top_satellites=8)
        victim = demands[0][0]
        starlink_topology.fail_satellite(victim)
        load = load_to_gateways(starlink_topology, 0.0, demands)
        lost = sum(d for src, dst, d in demands for e in (src, dst)
                   if e == victim)
        assert load.undelivered == pytest.approx(lost)
        assert victim not in load.satellite_load


class TestFaultIndexValidation:
    @pytest.mark.parametrize("call", [
        lambda topo, n: topo.fail_satellite(-1),
        lambda topo, n: topo.fail_satellite(n),
        lambda topo, n: topo.fail_isl(0, n),
        lambda topo, n: topo.fail_isl(-1, 0),
        lambda topo, n: topo.fail_isl(5, 5),
    ], ids=["sat-negative", "sat-past-end", "isl-past-end",
            "isl-negative", "isl-self-loop"])
    def test_bad_index_raises_and_leaves_no_mark(self, starlink_topology,
                                                 call):
        total = starlink_topology.constellation.total_satellites
        with pytest.raises(ValueError):
            call(starlink_topology, total)
        assert starlink_topology.fault_epoch == 0
        assert not starlink_topology.has_topology_faults
        assert starlink_topology.edge_liveness().all()


def _run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=300)


class TestImportHygiene:
    def test_package_import_pulls_in_neither_networkx_nor_scipy(self):
        proc = _run_python("""
            import sys
            import repro, repro.topology, repro.experiments, repro.scenarios
            print(sorted(m for m in ("networkx", "scipy")
                         if m in sys.modules))
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_consumers_run_without_networkx(self):
        proc = _run_python("""
            import sys
            sys.modules["networkx"] = None
            from repro.experiments.availability import gateway_reachability
            from repro.experiments.chaos_availability import (
                ChaosScenario, run_chaos_availability)
            from repro.experiments.signaling import mean_hops_to_ground
            from repro.orbits import IdealPropagator, starlink
            from repro.orbits.groundstations import default_ground_stations
            from repro.topology import GridTopology, compare_concentration

            shell = starlink()
            assert 0.0 < gateway_reachability(shell, 0.1) <= 1.0
            assert mean_hops_to_ground(shell) > 0.0
            run_chaos_availability(scenario=ChaosScenario(
                n_ues=6, horizon_s=1200.0, seed=3))
            topology = GridTopology(IdealPropagator(shell),
                                    default_ground_stations())
            compare_concentration(topology, top_satellites=8)
            print("ok")
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
