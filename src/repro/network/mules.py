"""Data mules: mobile agents that patrol targets and carry data to the sink.

A :class:`DataMule` bundles identity, kinematics (position, velocity), radio
ranges, the battery (see :mod:`repro.energy`) and the on-board data buffer.
Neither the simulator nor the path-construction algorithms change a mule:
the planners read its initial position and energy level, the simulator's
fast tiers read it as deployed, and its event loop plays on a private copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.energy.battery import Battery
from repro.geometry.point import Point, as_point, distance
from repro.network.datamodel import DataBuffer

__all__ = ["MuleState", "DataMule"]


class MuleState(str, enum.Enum):
    """Lifecycle state of a data mule during simulation."""

    IDLE = "idle"
    MOVING = "moving"
    COLLECTING = "collecting"
    RECHARGING = "recharging"
    DEAD = "dead"


@dataclass
class DataMule:
    """A mobile data mule.

    Attributes
    ----------
    id:
        Unique identifier (``"m1"``, ``"m2"``, ...).
    position:
        Current location (initially the deployment position).
    velocity:
        Moving speed in m/s; the paper uses 2 m/s for every mule and assumes
        all speeds identical.
    sensing_range / communication_range:
        Radio parameters from the simulation model (10 m and 20 m).  A visit
        "counts" when the mule reaches the target point; the ranges feed the
        data-collection model and the extension metrics.
    battery:
        Energy store; ``None`` means energy is not modelled (B-TCTP/W-TCTP
        experiments).
    """

    id: str
    position: Point
    velocity: float = 2.0
    sensing_range: float = 10.0
    communication_range: float = 20.0
    battery: Battery | None = None
    buffer: DataBuffer = field(default_factory=DataBuffer)
    state: MuleState = MuleState.IDLE

    def __post_init__(self) -> None:
        self.position = as_point(self.position)
        if self.velocity <= 0:
            raise ValueError(f"mule {self.id!r}: velocity must be positive")
        if self.sensing_range < 0 or self.communication_range < 0:
            raise ValueError(f"mule {self.id!r}: ranges must be non-negative")

    # ------------------------------------------------------------------ #
    @property
    def remaining_energy(self) -> float:
        """Remaining battery energy in joules (infinite when no battery is attached)."""
        return self.battery.remaining if self.battery is not None else float("inf")

    @property
    def alive(self) -> bool:
        return self.state is not MuleState.DEAD

    def travel_time(self, destination: Point | tuple[float, float]) -> float:
        """Time to reach ``destination`` in a straight line at the mule's velocity."""
        return distance(self.position, destination) / self.velocity

    def can_reach(self, destination: Point | tuple[float, float], move_cost_per_meter: float) -> bool:
        """Whether the remaining energy suffices to drive to ``destination``."""
        if self.battery is None:
            return True
        return self.battery.remaining >= distance(self.position, destination) * move_cost_per_meter

    def move_to(self, destination: Point | tuple[float, float], move_cost_per_meter: float = 0.0) -> float:
        """Teleport the mule to ``destination``, charging the energy for the straight-line move.

        Returns the travel time.  The simulator calls this when an arrival
        event fires; intermediate positions are interpolated analytically when
        needed (see :meth:`position_after`).
        """
        dest = as_point(destination)
        dist = distance(self.position, dest)
        if self.battery is not None and move_cost_per_meter > 0.0:
            self.battery.drain(dist * move_cost_per_meter)
            if self.battery.depleted:
                self.state = MuleState.DEAD
        self.position = dest
        return dist / self.velocity

    def position_after(self, destination: Point | tuple[float, float], elapsed: float) -> Point:
        """Interpolated position ``elapsed`` seconds into a move towards ``destination``."""
        dest = as_point(destination)
        travelled = min(self.velocity * max(elapsed, 0.0), distance(self.position, dest))
        return self.position.towards(dest, travelled)

    def collect(self, energy_cost: float = 0.0) -> None:
        """Account for the energy spent collecting one target's data."""
        if self.battery is not None and energy_cost > 0.0:
            self.battery.drain(energy_cost)
            if self.battery.depleted:
                self.state = MuleState.DEAD

    def recharge_full(self) -> None:
        """Instantaneously refill the battery (docked at the recharge station)."""
        if self.battery is not None:
            self.battery.refill()
        if self.state is MuleState.DEAD and self.battery is not None and not self.battery.depleted:
            self.state = MuleState.IDLE
