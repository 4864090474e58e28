"""The public surface: the names latticesize exports in __all__, and the
README's commands that reach into the tests."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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


# run without site (-S), so only what the package itself imports is loaded
_IMPORTS = """
import sys
import latticesize
import latticesize.cli as cli
latticesize.verify_classification(2)
assert cli.main(["corpus-check", "--n", "1", "--jobs", "1"]) == 0
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_zero_runtime_dependencies():
    src = str(Path(latticesize.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-S", "-c", _IMPORTS], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = set(out.splitlines()[-1].split())
    # __mp_main__ is multiprocessing's alias of the running script
    script = {"__main__", "__mp_main__"}
    assert loaded - set(sys.stdlib_module_names) - script == {"latticesize"}


# a README line that runs an audit helper of a test module
_AUDIT = re.compile(r"PYTHONPATH=src:tests python -c \"import (test_\w+) as t; "
                    r"print\(t\.(_audit_\w+)\(\d+\)\)\"")


def test_readme_audits_name_existing_helpers():
    # each one-liner names a helper of its module whose docstring gives it
    root = Path(__file__).resolve().parents[1]
    lines = [line for line in (root / "README.md").read_text(encoding="utf-8").splitlines()
             if "t._audit_" in line]
    assert lines
    for line in lines:
        match = _AUDIT.fullmatch(line)
        assert match, line
        module, name = match.groups()
        tree = ast.parse((root / "tests" / f"{module}.py").read_text(encoding="utf-8"))
        helpers = {f.name: ast.get_docstring(f) or "" for f in tree.body
                   if isinstance(f, ast.FunctionDef)}
        assert name in helpers, line
        assert line in helpers[name], line


def test_only_size_scales_a_polygon():
    # the common denominator D and the multiple D*P are computed in
    # geometry and size alone; the other modules read them off the report
    src = Path(latticesize.__file__).resolve().parent
    callers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("_lcd", "_scaled")):
                callers.add(path.name)
    assert callers == {"geometry.py", "size.py"}
