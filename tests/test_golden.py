"""Golden CLI output: stdout, stderr and exit codes of the polygon commands.

Every 7th polygon of {0..3}^2 (points and segments included) and 50
seeded rational polygons go through cli.main for invariants, oracle,
verify-bounds and canonical.  Each command's transcript is reduced to its
SHA-256, recorded in golden_cli.json; any change to a byte of output or
to an exit code changes the hash.  Regenerate the file only for an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py > tests/golden_cli.json
"""
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
from fractions import Fraction

import pytest

from latticesize import cli, enumerate_convex, hull, polygon_to_text

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
COMMANDS = {
    "invariants": ["invariants"],
    "oracle": ["oracle", "--target", "both"],
    "verify-bounds": ["verify-bounds"],
    "canonical": ["canonical"],
}


def _rational_polygons():
    rng = random.Random(5)

    def coord():
        q = rng.randint(2, 12)
        return Fraction(rng.randint(0, 3 * q), q)

    return [hull((coord(), coord()) for _ in range(rng.randint(1, 6)))
            for _ in range(50)]


def _inputs():
    lattice = list(enumerate_convex(3, include_degenerate=True))[::7]
    return [polygon_to_text(P) for P in lattice + _rational_polygons()]


def _transcript(argv, texts):
    """One record per input: its index, the exit code, stdout and stderr."""
    out = io.StringIO()
    for i, text in enumerate(texts):
        stdout, stderr = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["-"])
        finally:
            sys.stdin = stdin
        out.write(f"#{i} exit {code}\n{stdout.getvalue()}{stderr.getvalue()}")
    return out.getvalue()


def _digests():
    texts = _inputs()
    return {
        name: hashlib.sha256(_transcript(argv, texts).encode()).hexdigest()
        for name, argv in COMMANDS.items()
    }


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


def test_inputs_cover_the_cases(inputs):
    assert len(inputs) == 408 + 50
    sizes = {text.count("\n") for text in inputs}
    assert {1, 2, 3, 4} <= sizes
    assert sum("/" in text for text in inputs) >= 45


@pytest.mark.parametrize("name", COMMANDS)
def test_transcript_matches_golden(inputs, name):
    want = json.loads(GOLDEN.read_text())[name]
    got = hashlib.sha256(_transcript(COMMANDS[name], inputs).encode()).hexdigest()
    assert got == want, f"{name} output changed"


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=2, sort_keys=True))
