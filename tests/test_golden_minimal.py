"""Golden CLI output of the classification commands.

`minimal --h 1..5` in both modes, `corpus-check --n 2`, the serial
`corpus-check --n 3 --jobs 1` and the sorted class lists of {0..4}^2,
with and without degenerate members, go through cli.main; each run's
exit code, stdout and stderr are reduced to a SHA-256, recorded in
golden_minimal.json.  A faster sweep must leave every byte and exit
code as it was.  Regenerate the file only for an intended change of
output:

    PYTHONPATH=src python tests/test_golden_minimal.py > tests/golden_minimal.json
"""
import contextlib
import hashlib
import io
import json
import os
import pathlib

import pytest

from latticesize import cli

GOLDEN = pathlib.Path(__file__).with_name("golden_minimal.json")
RUNS = ([f"minimal --h {h} --mode verify" for h in range(1, 6)]
        + [f"minimal --h {h} --mode generate" for h in range(1, 6)]
        + ["corpus-check --n 2", "corpus-check --n 3 --jobs 1"]
        + ["enumerate --n 4 --classes --sorted",
           "enumerate --n 4 --classes --degenerate --sorted"])


def _digest(command: str) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(command.split())
    record = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
    return hashlib.sha256(record.encode()).hexdigest()


@pytest.mark.parametrize("command", RUNS)
def test_run_matches_golden(monkeypatch, command):
    monkeypatch.delenv("LATTICESIZE_JOBS", raising=False)
    want = json.loads(GOLDEN.read_text())[command]
    assert _digest(command) == want, f"{command} output changed"


if __name__ == "__main__":
    os.environ.pop("LATTICESIZE_JOBS", None)
    print(json.dumps({command: _digest(command) for command in RUNS}, indent=2))
