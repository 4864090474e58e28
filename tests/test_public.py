"""The public surface: the names latticesize exports in __all__."""
import latticesize

PUBLIC = [
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
    "gauss_reduce",
    "generate_minimal",
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


def test_all_is_pinned():
    assert len(PUBLIC) == 53
    assert sorted(latticesize.__all__) == PUBLIC


def test_no_duplicates():
    assert len(set(latticesize.__all__)) == len(latticesize.__all__)


def test_every_name_resolves():
    for name in latticesize.__all__:
        assert getattr(latticesize, name) is not None
