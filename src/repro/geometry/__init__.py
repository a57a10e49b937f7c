"""Geometric primitives used throughout the CBTC reproduction.

The cone-based topology control algorithm reasons almost exclusively about
planar geometry: Euclidean distances, directions (angles) from one node to
another, cones of a given apex angle, angular gaps in a set of directions,
and circles.  This subpackage provides those primitives with well-tested,
numerically careful implementations so that the algorithm and the proofs'
constructions (Figures 2 and 5 of the paper) can be expressed directly.

Public API
----------

``Point``
    An immutable 2-D point with vector arithmetic.
``distance``, ``midpoint``, ``direction``
    Basic metric helpers.
``normalize_angle``, ``angle_difference``, ``angle_between``
    Angle arithmetic on the circle.
``Cone``
    A cone (angular sector) anchored at an apex node.
``cone_from_bisector``
    The paper's ``cone(u, alpha, v)`` — the cone of degree *alpha* at *u*
    bisected by the ray towards *v*.
``angular_gaps``, ``max_angular_gap``, ``has_gap_greater_than``
    The ``gap_alpha`` test at the heart of CBTC.
``cover``
    The paper's ``cover_alpha(dir)`` operator used by the shrink-back
    optimization.
``Circle``
    A circle with containment and intersection helpers.
``triangle_angles``, ``opposite_side_is_longest``
    Triangle utilities used by the correctness tests mirroring the proofs.
``UniformGridIndex``
    Uniform-grid spatial index answering ``neighbors_within`` disk queries
    in output-sensitive time (the backbone of every scalable hot path).
``BruteForceIndex``
    Linear-scan reference with the same interface, used as the test oracle.
"""

from repro.geometry.points import (
    Point,
    distance,
    squared_distance,
    midpoint,
    direction,
    rotate_about,
    translate_polar,
)
from repro.geometry.angles import (
    TWO_PI,
    normalize_angle,
    angle_difference,
    signed_angle_difference,
    angle_between,
    angular_gaps,
    max_angular_gap,
    has_gap_greater_than,
    cover,
    covers_full_circle,
    sort_directions,
)
from repro.geometry.cones import Cone, cone_from_bisector
from repro.geometry.spatial import (
    DISTANCE_TOLERANCE,
    BruteForceIndex,
    UniformGridIndex,
)
from repro.geometry.primitives import (
    Circle,
    triangle_angles,
    opposite_side_is_longest,
    circle_intersections,
    collinear,
)

__all__ = [
    "Point",
    "distance",
    "squared_distance",
    "midpoint",
    "direction",
    "rotate_about",
    "translate_polar",
    "TWO_PI",
    "normalize_angle",
    "angle_difference",
    "signed_angle_difference",
    "angle_between",
    "angular_gaps",
    "max_angular_gap",
    "has_gap_greater_than",
    "cover",
    "covers_full_circle",
    "sort_directions",
    "Cone",
    "cone_from_bisector",
    "DISTANCE_TOLERANCE",
    "BruteForceIndex",
    "UniformGridIndex",
    "Circle",
    "triangle_angles",
    "opposite_side_is_longest",
    "circle_intersections",
    "collinear",
]
