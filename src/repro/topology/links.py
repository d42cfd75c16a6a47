"""Link models: inter-satellite lasers and space-ground radio.

Links carry both propagation delay (speed of light over the geometric
distance) and an availability state, so the failure experiments of
S3.3/Fig. 13 can take individual ISLs or ground-space links down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import SPEED_OF_LIGHT_KM_S


def propagation_delay_s(distance_km: float) -> float:
    """One-way speed-of-light delay over ``distance_km`` (seconds)."""
    if distance_km < 0:
        raise ValueError("distance cannot be negative")
    return distance_km / SPEED_OF_LIGHT_KM_S


@dataclass
class Link:
    """A point-to-point link between two nodes.

    ``kind`` is "isl" (inter-satellite laser) or "gsl" (ground-space
    radio).  ``frame_error_rate`` models the intermittent wireless
    degradation of Fig. 13b; a message traversing the link is lost with
    this probability (callers decide whether to retransmit).
    """

    node_a: str
    node_b: str
    kind: str = "isl"
    bandwidth_mbps: float = 1000.0
    frame_error_rate: float = 0.0
    up: bool = True

    def __post_init__(self) -> None:
        if self.kind not in ("isl", "gsl"):
            raise ValueError("link kind must be 'isl' or 'gsl'")
        if not 0.0 <= self.frame_error_rate <= 1.0:
            raise ValueError("frame error rate must be a probability")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")

    def other(self, node: str) -> str:
        """The far endpoint as seen from ``node``."""
        if node == self.node_a:
            return self.node_b
        if node == self.node_b:
            return self.node_a
        raise ValueError(f"{node} is not an endpoint of this link")

    def fail(self) -> None:
        """Take the link down."""
        self.up = False

    def recover(self) -> None:
        """Bring the link back up."""
        self.up = True

    def delivers(self, rng=None) -> bool:
        """Whether one frame makes it across right now."""
        if not self.up:
            return False
        if self.frame_error_rate == 0.0 or rng is None:
            return self.up
        return rng.random() >= self.frame_error_rate

    def transmission_delay_s(self, size_bytes: int) -> float:
        """Serialisation delay for a message of ``size_bytes``."""
        bits = size_bytes * 8
        return bits / (self.bandwidth_mbps * 1e6)


def line_of_sight_clear(pos_a, pos_b, occluder_radius_km: float) -> bool:
    """Whether the segment between two satellites clears the Earth.

    A laser ISL is geometrically feasible only when the chord between
    the satellites stays above the occluding sphere (Earth radius plus
    some atmosphere).  Uses the point-to-segment distance from the
    Earth's centre.
    """
    ax, ay, az = pos_a
    bx, by, bz = pos_b
    dx, dy, dz = bx - ax, by - ay, bz - az
    seg_len_sq = dx * dx + dy * dy + dz * dz
    if seg_len_sq == 0.0:
        return math.sqrt(ax * ax + ay * ay + az * az) > occluder_radius_km
    # Projection of the origin onto the segment, clamped to [0, 1].
    t = -(ax * dx + ay * dy + az * dz) / seg_len_sq
    t = max(0.0, min(1.0, t))
    cx, cy, cz = ax + t * dx, ay + t * dy, az + t * dz
    closest = math.sqrt(cx * cx + cy * cy + cz * cz)
    return closest > occluder_radius_km
