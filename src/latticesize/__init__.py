"""Exact lattice width and lattice size computations for plane convex polygons.

The package computes, in exact rational arithmetic, the lattice width of
a polygon and its lattice size with respect to the unit square and the
standard triangle, via basis reduction under the polygon's width norm.
On top of that sit independent brute-force oracles, canonical forms and
equivalence testing, exhaustive enumeration of lattice polygons in a
grid, sharp area bounds with their equality families, and the
classification of minimal polygons of fixed square size.
"""
from .bounds import (
    BoundsReport,
    EqualityFamily,
    check_bounds,
    exceptional_triangle,
    extremal_family,
    thin_triangle,
    unit_square,
    width_extremal_triangle,
)
from .enumeration import DEFAULT_GRID_LIMIT, enumerate_classes, enumerate_convex
from .errors import DegenerateInputError, InvalidInputError, ResourceLimitError
from .geometry import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    Coord,
    IntVec,
    Point,
    Target,
    UnimodularMap,
    apply_map,
    area,
    contained_in_dilate,
    drop_vertex,
    hull,
    lattice_points,
    parse_polygon_text,
    polygon_to_text,
    width,
)
from .minimal import (
    DEFAULT_CLASSIFY_LIMIT,
    ClassificationReport,
    MinimalFamily,
    generate_minimal,
    minimal_families,
    quad_minimal,
    realize,
    triangle_minimal,
    verify_classification,
)
from .oracle import (
    brute_force_lattice_size,
    canonical_form,
    is_minimal,
    lattice_equivalent,
)
from .reduction import LatticeBasis, gauss_reduce
from .size import (
    ContainmentCertificate,
    InvariantsReport,
    check_touch,
    invariants,
    lattice_width,
    ls_square,
    simplex_dilates,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ClassificationReport",
    "ContainmentCertificate",
    "ConvexPolygon",
    "Coord",
    "DEFAULT_CLASSIFY_LIMIT",
    "DEFAULT_GRID_LIMIT",
    "DegenerateInputError",
    "EqualityFamily",
    "IntVec",
    "InvalidInputError",
    "InvariantsReport",
    "LatticeBasis",
    "MinimalFamily",
    "Point",
    "ResourceLimitError",
    "SIMPLEX",
    "SQUARE",
    "Target",
    "UnimodularMap",
    "apply_map",
    "area",
    "brute_force_lattice_size",
    "canonical_form",
    "check_bounds",
    "check_touch",
    "contained_in_dilate",
    "drop_vertex",
    "enumerate_classes",
    "enumerate_convex",
    "exceptional_triangle",
    "extremal_family",
    "generate_minimal",
    "gauss_reduce",
    "hull",
    "invariants",
    "is_minimal",
    "lattice_equivalent",
    "lattice_points",
    "lattice_width",
    "ls_square",
    "minimal_families",
    "parse_polygon_text",
    "polygon_to_text",
    "quad_minimal",
    "realize",
    "simplex_dilates",
    "thin_triangle",
    "triangle_minimal",
    "unit_square",
    "verify_classification",
    "width",
    "width_extremal_triangle",
]
