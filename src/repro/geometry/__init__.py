"""2-D geometry kernel used by every path-construction routine.

The patrolling algorithms of the paper operate on target points in the
Euclidean plane: tours are built from pairwise distances, the convex-hull
(cheapest-insertion) heuristic needs a hull routine, and the W-TCTP
patrolling rule needs counter-clockwise angle computations.  This subpackage
provides those primitives with no dependency on the rest of the library.

:mod:`repro.geometry.cache` adds the content-addressed caching layer on top:
stable point-set / scenario fingerprints, and the registry behind the global
cache switch that the tour memoization (:mod:`repro.graphs.hamiltonian`) and
the campaign scenario reuse (:mod:`repro.runner.campaign`) plug into.
"""

from repro.geometry.point import Point, distance, distance_matrix, centroid, total_length
from repro.geometry.cache import (
    cache_enabled,
    cache_stats,
    caching_disabled,
    clear_caches,
    configure,
    points_fingerprint,
    scenario_fingerprint,
)
from repro.geometry.hull import convex_hull, convex_hull_indices, point_in_hull
from repro.geometry.angles import (
    ccw_angle,
    heading,
    included_angle,
    normalize_angle,
    orientation,
    turn_direction,
)
from repro.geometry.polyline import Polyline, resample_positions, point_along

__all__ = [
    "Point",
    "distance",
    "distance_matrix",
    "centroid",
    "total_length",
    "convex_hull",
    "convex_hull_indices",
    "point_in_hull",
    "ccw_angle",
    "heading",
    "included_angle",
    "normalize_angle",
    "orientation",
    "turn_direction",
    "Polyline",
    "resample_positions",
    "point_along",
    "cache_enabled",
    "cache_stats",
    "caching_disabled",
    "clear_caches",
    "configure",
    "points_fingerprint",
    "scenario_fingerprint",
]
