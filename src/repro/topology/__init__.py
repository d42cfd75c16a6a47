"""Satellite network substrate: +Grid topology, links, routing."""

from .contact_plan import (
    Contact,
    ContactPlanStats,
    cell_coverage_plan,
    gateway_contact_plan,
    summarize,
)
from .grid import GridTopology
from .links import Link, line_of_sight_clear, propagation_delay_s
from .routing import DijkstraRouter, GeospatialRouter, RouteResult, path_stretch
from .traffic import (
    ConcentrationComparison,
    TrafficLoad,
    compare_concentration,
    gravity_demand,
    load_peer_to_peer,
    load_to_gateways,
)

__all__ = [
    "Contact", "ContactPlanStats", "cell_coverage_plan",
    "gateway_contact_plan", "summarize",
    "GridTopology",
    "Link",
    "line_of_sight_clear",
    "propagation_delay_s",
    "DijkstraRouter",
    "GeospatialRouter",
    "RouteResult",
    "path_stretch",
    "ConcentrationComparison",
    "TrafficLoad",
    "compare_concentration",
    "gravity_demand",
    "load_peer_to_peer",
    "load_to_gateways",
]
