"""Hypothesis strategies shared by the differential tests.

Random Walker shells with random faults, for the tests that pin a fast
topology consumer against an independent reference.
"""

import math

from hypothesis import strategies as st

from repro.orbits.constellation import Constellation
from repro.orbits.groundstations import default_ground_stations
from repro.orbits.propagator import IdealPropagator
from repro.topology.grid import GridTopology

STATIONS = default_ground_stations()


@st.composite
def faulted_topologies(draw):
    """A random Walker shell with random satellite/ISL/station faults."""
    constellation = Constellation(
        name="random",
        num_planes=draw(st.integers(2, 9)),
        sats_per_plane=draw(st.integers(2, 12)),
        altitude_km=draw(st.floats(400.0, 1500.0)),
        inclination_deg=draw(st.floats(30.0, 100.0)),
        raan_spread=draw(st.sampled_from([2.0 * math.pi, math.pi])),
        phasing_factor=draw(st.integers(0, 3)),
        min_elevation_deg=draw(st.floats(0.0, 40.0)),
    )
    topology = GridTopology(IdealPropagator(constellation), STATIONS)
    total = constellation.total_satellites
    for sat in draw(st.sets(st.integers(0, total - 1),
                            max_size=total // 2)):
        topology.fail_satellite(sat)
    for sat, direction in draw(st.lists(
            st.tuples(st.integers(0, total - 1), st.integers(0, 3)),
            max_size=total)):
        neighbor = int(topology.neighbor_table[sat, direction])
        if neighbor != sat:
            topology.fail_isl(sat, neighbor)
    for station in draw(st.sets(st.integers(0, len(STATIONS) - 1),
                                max_size=len(STATIONS))):
        topology.fail_ground_station(station)
    t = draw(st.floats(0.0, 7200.0))
    return topology, t
