import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import latticesize.cli
from latticesize import (
    EqualityFamily,
    UnimodularMap,
    enumerate_convex,
    hull,
    lattice_equivalent,
    width_extremal_triangle,
)

CLI = [sys.executable, "-m", "latticesize.cli"]

PENTAGON = "4 0\n5 0\n2 2\n0 3\n1 2\n"
QUAD = "0 0\n0 3\n2 2\n1 3\n"
TRI = "0 0\n1 2\n2 1\n"
RATIONAL_PENTAGON = "1/2 0\n7/3 1\n9/2 5/2\n13/3 3\n1 4/3\n"
RATIONAL_INVARIANTS = '''\
{
  "area": "119/36",
  "cert_simplex": {
    "dilate": "11/3",
    "matrix": [
      [
        1,
        -2
      ],
      [
        1,
        -1
      ]
    ],
    "target": "simplex",
    "translation": [
      "5/3",
      "1/3"
    ]
  },
  "cert_square": {
    "dilate": "7/3",
    "matrix": [
      [
        1,
        -2
      ],
      [
        1,
        -1
      ]
    ],
    "target": "square",
    "translation": [
      "5/3",
      "1/3"
    ]
  },
  "ls_simplex": "11/3",
  "ls_square": "7/3",
  "reduced_basis": {
    "u1": [
      1,
      -2
    ],
    "u2": [
      1,
      -1
    ]
  },
  "width": "13/6"
}
'''
RATIONAL_ORACLE = '''\
{
  "agree": true,
  "simplex": {
    "agree": true,
    "fast": "11/3",
    "search": "11/3"
  },
  "square": {
    "agree": true,
    "fast": "7/3",
    "search": "7/3"
  }
}
'''
RATIONAL_CANONICAL = '''\
0 0
5/3 0
7/3 7/6
5/3 2
5/6 13/6
'''


def run(*args, stdin=None, env=None):
    merged = dict(os.environ, **(env or {}))
    return subprocess.run(CLI + list(args), input=stdin, env=merged,
                          capture_output=True, text=True)


@pytest.fixture()
def pentagon_file(tmp_path):
    p = tmp_path / "pentagon.txt"
    p.write_text(PENTAGON)
    return str(p)


class TestInvariants:
    def test_pentagon(self, pentagon_file):
        r = run("invariants", pentagon_file)
        assert r.returncode == 0
        assert json.loads(r.stdout) == {
            "area": "5/2",
            "width": "2",
            "ls_square": "2",
            "ls_simplex": "3",
            "reduced_basis": {"u1": [1, 1], "u2": [1, 2]},
            "cert_square": {
                "matrix": [[1, 1], [1, 2]],
                "translation": ["-3", "-4"],
                "dilate": "2",
                "target": "square",
            },
            "cert_simplex": {
                "matrix": [[1, 1], [1, 2]],
                "translation": ["-3", "-4"],
                "dilate": "3",
                "target": "simplex",
            },
        }

    def test_keys_sorted(self, pentagon_file):
        r = run("invariants", pentagon_file)
        keys = [line.split('"')[1] for line in r.stdout.splitlines()
                if line.startswith('  "')]
        assert keys == sorted(keys)

    def test_stdin(self):
        r = run("invariants", stdin=PENTAGON)
        assert r.returncode == 0
        assert json.loads(r.stdout)["width"] == "2"

    def test_rational_vertex(self):
        r = run("invariants", stdin="0 0\n1/2 0\n0 1/2\n")
        assert r.returncode == 0
        assert json.loads(r.stdout)["area"] == "1/8"


class TestOracle:
    def test_both_targets(self):
        r = run("oracle", "-", "--target", "both", stdin=QUAD)
        assert r.returncode == 0
        assert json.loads(r.stdout) == {
            "agree": True,
            "square": {"agree": True, "fast": "3", "search": "3"},
            "simplex": {"agree": True, "fast": "3", "search": "3"},
        }

    def test_single_target(self):
        r = run("oracle", "-", "--target", "square", stdin=PENTAGON)
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["agree"] is True
        assert "simplex" not in data


class TestVerifyBounds:
    def test_no_family(self, pentagon_file):
        r = run("verify-bounds", pentagon_file)
        assert r.returncode == 0
        assert json.loads(r.stdout) == {
            "equality_family": None,
            "slack_wh": "1",
            "slack_wl": "1",
            "slack_simplex": "1",
            "slack_square": "3/2",
        }

    def test_family(self):
        r = run("verify-bounds", "-", stdin=TRI)
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["equality_family"] == "exceptional-triangle"
        assert data["slack_wh"] == "0"

    def test_rational_input(self):
        r = run("verify-bounds", "-", stdin="0 0\n3 3/2\n3/2 3\n")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["equality_family"] == "width-extremal-triangle"
        assert data["slack_simplex"] is None


class TestCanonicalAndEquivalent:
    def test_canonical(self):
        r = run("canonical", "-", stdin=TRI)
        assert r.returncode == 0
        assert r.stdout == "0 0\n2 1\n1 2\n"

    def test_equivalent_true(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(TRI)
        b.write_text("5 3\n6 5\n4 4\n")
        r = run("equivalent", str(a), str(b))
        assert (r.returncode, r.stdout) == (0, "true\n")

    def test_equivalent_false(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(TRI)
        b.write_text(QUAD)
        r = run("equivalent", str(a), str(b))
        assert (r.returncode, r.stdout) == (0, "false\n")


class TestRationalGolden:
    """Full stdout for a pentagon with denominators 2 and 3, so its
    coordinates are cleared by D = 6."""

    @pytest.mark.parametrize("command, want", [
        ("invariants", RATIONAL_INVARIANTS),
        ("oracle", RATIONAL_ORACLE),
        ("canonical", RATIONAL_CANONICAL),
    ])
    def test_stdout(self, command, want):
        r = run(command, "-", stdin=RATIONAL_PENTAGON)
        assert r.returncode == 0
        assert r.stdout == want


class TestEnumerate:
    def test_unit_grid(self):
        r = run("enumerate", "--n", "1", "--sorted")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "0,0;1,0;0,1",
            "0,0;1,0;1,1",
            "0,0;1,0;1,1;0,1",
            "0,0;1,1;0,1",
            "0,1;1,0;1,1",
        ]

    def test_degenerate(self):
        r = run("enumerate", "--n", "1", "--degenerate")
        assert len(r.stdout.splitlines()) == 15

    def test_classes(self):
        r = run("enumerate", "--n", "1", "--classes", "--sorted")
        assert r.stdout.splitlines() == ["0,0;1,0;0,1", "0,0;1,0;1,1;0,1"]

    def test_limit_flag(self):
        # the override lets an oversized run start; don't wait for it
        with subprocess.Popen(CLI + ["enumerate", "--n", "6", "--limit", "6"],
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                lines = [proc.stdout.readline() for _ in range(10)]
            finally:
                proc.kill()
        for line in lines:
            x, y = line.strip().split(";")[0].split(",")
            assert 0 <= int(x) <= 6 and 0 <= int(y) <= 6


class TestMinimal:
    def test_generate(self):
        r = run("minimal", "--h", "3", "--mode", "generate")
        assert r.returncode == 0
        assert r.stdout.splitlines() == [
            "0,0;0,3",
            "0,0;2,1;1,3",
            "0,0;3,1;2,3",
            "0,0;2,0;3,2;1,2",
        ]

    def test_verify(self):
        r = run("minimal", "--h", "2", "--mode", "verify")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data == {
            "h": 2,
            "classes": 2,
            "family_classes": ["0,0;0,2", "0,0;2,1;1,2"],
            "search_classes": ["0,0;0,2", "0,0;2,1;1,2"],
            "only_in_families": [],
            "only_in_search": [],
            "match": True,
        }

    def test_pooled_verify_at_six(self):
        # the SHA-256 of this run's stdout, which --jobs 1 gives as well
        r = run("minimal", "--h", "6", "--mode", "verify", "--limit", "6", "--jobs", "2")
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "978fc1510b105bdf3c179f517409f68e811590b60a3460ede46cfcfa5333e4e5")

    def test_verify_too_big(self):
        r = run("minimal", "--h", "9", "--mode", "verify")
        assert r.returncode == 3
        assert "error:" in r.stderr


class TestCorpusCheck:
    def test_small(self):
        r = run("corpus-check", "--n", "2")
        assert r.returncode == 0
        data = json.loads(r.stdout)
        assert data["ok"] is True
        assert data["polygons"] == 168
        assert data["failure_count"] == 0
        assert data["classification"] == [
            {"h": 1, "classes": 1, "match": True},
            {"h": 2, "classes": 2, "match": True},
        ]

    def test_jobs_env(self):
        r = run("corpus-check", "--n", "1", env={"LATTICESIZE_JOBS": "2"})
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_pool_output_matches_serial(self):
        serial = run("corpus-check", "--n", "2", "--jobs", "1")
        pooled = run("corpus-check", "--n", "2", "--jobs", "2")
        assert serial.returncode == pooled.returncode == 0
        assert pooled.stdout == serial.stdout

    def test_certificates_checked(self, monkeypatch, capsys):
        # a certificate whose translation misses by one fails the check,
        # though both sizes still agree with the search
        real = latticesize.cli.invariants

        def shifted(P):
            rep = real(P)
            cert = rep.cert_simplex
            tx, ty = cert.map.translation
            bad = dataclasses.replace(cert, map=UnimodularMap(cert.map.matrix, (tx + 1, ty)))
            return dataclasses.replace(rep, cert_simplex=bad)

        monkeypatch.setattr(latticesize.cli, "invariants", shifted)
        code = latticesize.cli.main(["corpus-check", "--n", "1", "--jobs", "1"])
        data = json.loads(capsys.readouterr().out)
        assert code == 2 and data["ok"] is False
        assert data["failure_count"] == data["polygons"] == 5
        assert data["failures"][0] == "0,0;1,0;0,1: simplex certificate does not hold"
        assert all(f.endswith(": simplex certificate does not hold")
                   for f in data["failures"])

    @pytest.mark.parametrize("flag, env", [
        ("0", {}), ("-3", {}), ("abc", {}),
        (None, {"LATTICESIZE_JOBS": "0"}), (None, {"LATTICESIZE_JOBS": "abc"}),
        # int() reads these as 10 and 2 (an Arabic-Indic digit)
        ("1_0", {}), ("\u0662", {}),
        (None, {"LATTICESIZE_JOBS": "1_0"}), (None, {"LATTICESIZE_JOBS": "\u0662"}),
    ])
    def test_bad_jobs_rejected(self, flag, env):
        args = ["corpus-check", "--n", "1"] + (["--jobs", flag] if flag else [])
        r = run(*args, env=env)
        assert r.returncode == 1
        assert "error" in r.stderr and "Traceback" not in r.stderr


class TestVerificationFailures:
    """Exit 2 on every verification failure, forced in-process by
    patching what the command checks."""

    def _patch_search(self, monkeypatch):
        # the search finds every size one larger than the fast path
        real = latticesize.cli.brute_force_lattice_size
        monkeypatch.setattr(latticesize.cli, "brute_force_lattice_size",
                            lambda P, target: real(P, target) + 1)

    def test_oracle_disagreement(self, monkeypatch, capsys, pentagon_file):
        assert latticesize.cli.main(["invariants", pentagon_file]) == 0
        certs = json.loads(capsys.readouterr().out)
        self._patch_search(monkeypatch)
        code = latticesize.cli.main(["oracle", pentagon_file])
        data = json.loads(capsys.readouterr().out)
        assert code == 2 and data["agree"] is False
        for target in ("square", "simplex"):
            got = data[target]
            assert got["agree"] is False
            assert Fraction(got["search"]) == Fraction(got["fast"]) + 1
            # the witness is the fast certificate invariants prints
            assert got["certificate"] == certs[f"cert_{target}"]

    def test_negative_bound_slack(self, monkeypatch, capsys, pentagon_file):
        real = latticesize.cli.check_bounds
        monkeypatch.setattr(latticesize.cli, "check_bounds",
                            lambda P: dataclasses.replace(real(P), slack_wh=-1))
        code = latticesize.cli.main(["verify-bounds", pentagon_file])
        out, err = capsys.readouterr()
        assert code == 2 and json.loads(out)["slack_wh"] == "-1"
        assert err == "error: a bound reported negative slack\n"

    def test_minimal_mismatch(self, monkeypatch, capsys):
        real = latticesize.cli.verify_classification

        def search_only(h, **kw):
            # the first search class goes missing from the families
            rep = real(h, **kw)
            return dataclasses.replace(rep, family_classes=rep.family_classes[1:],
                                       only_in_search=rep.search_classes[:1])

        monkeypatch.setattr(latticesize.cli, "verify_classification", search_only)
        code = latticesize.cli.main(["minimal", "--h", "2", "--mode", "verify"])
        data = json.loads(capsys.readouterr().out)
        assert code == 2 and data["match"] is False
        assert data["only_in_search"] == ["0,0;0,2"] and data["only_in_families"] == []

    def _corpus_check(self, capsys):
        code = latticesize.cli.main(["corpus-check", "--n", "1", "--jobs", "1"])
        data = json.loads(capsys.readouterr().out)
        assert code == 2 and data["ok"] is False and data["polygons"] == 5
        return data

    def _patch_bounds(self, monkeypatch, **changes):
        real = latticesize.cli.check_bounds
        monkeypatch.setattr(latticesize.cli, "check_bounds",
                            lambda P: dataclasses.replace(real(P), **changes))

    def test_corpus_size_disagreement(self, monkeypatch, capsys):
        self._patch_search(monkeypatch)
        data = self._corpus_check(capsys)
        assert data["failure_count"] == 10
        assert data["failures"][0] == ("0,0;1,0;0,1: fast square size 1 != search 2, "
                                       "certificate matrix ((1, 0), (0, 1)) translation (0, 0)")
        assert data["failures"][1] == ("0,0;1,0;0,1: fast simplex size 1 != search 2, "
                                       "certificate matrix ((1, 0), (0, 1)) translation (0, 0)")
        assert data["failures"][3] == ("0,0;1,0;1,1: fast simplex size 1 != search 2, "
                                       "certificate matrix ((-1, 0), (0, 1)) translation (1, 0)")

    def test_corpus_negative_slack(self, monkeypatch, capsys):
        self._patch_bounds(monkeypatch, slack_wl=-1)
        data = self._corpus_check(capsys)
        assert data["failure_count"] == 5
        assert data["failures"][0] == "0,0;1,0;0,1: negative wl slack -1"

    def test_corpus_simplex_equality_without_family(self, monkeypatch, capsys):
        # every simplex slack of {0..1}^2 is 0; no square slack is checked
        self._patch_bounds(monkeypatch, equality_family=None, slack_square=None)
        data = self._corpus_check(capsys)
        assert data["failure_count"] == 5
        assert data["failures"][0] == \
            "0,0;1,0;0,1: simplex equality does not match its family"
        assert all(f.endswith(": simplex equality does not match its family")
                   for f in data["failures"])

    def test_corpus_square_equality_without_family(self, monkeypatch, capsys):
        # the four triangles have square slack 0 but lose THIN_TRIANGLE
        self._patch_bounds(monkeypatch, equality_family=EqualityFamily.UNIT_SQUARE)
        data = self._corpus_check(capsys)
        assert data["failure_count"] == 4
        assert data["failures"][0] == \
            "0,0;1,0;0,1: square equality does not match its family"
        assert all(f.endswith(": square equality does not match its family")
                   for f in data["failures"])

    def test_corpus_width_equality_without_member(self, monkeypatch, capsys):
        # every polygon of {0..1}^2 has width 1, so none is equivalent to
        # the width-extremal triangle
        self._patch_bounds(monkeypatch, slack_wh=0)
        data = self._corpus_check(capsys)
        assert data["failure_count"] == 5
        assert data["failures"][0] == \
            "0,0;1,0;0,1: width equality does not match the width-extremal triangle"
        assert all(f.endswith(": width equality does not match the width-extremal triangle")
                   for f in data["failures"])

    def test_corpus_width_member_without_equality(self, monkeypatch, capsys):
        # with both width slacks off zero, exactly the members fail: at
        # w = 2 the member is reported as the exceptional triangle
        self._patch_bounds(monkeypatch, slack_wh=1, slack_wl=1)
        code = latticesize.cli.main(["corpus-check", "--n", "2", "--jobs", "1"])
        data = json.loads(capsys.readouterr().out)
        members = [latticesize.cli._poly_line(P) for P in enumerate_convex(2)
                   if lattice_equivalent(P, width_extremal_triangle(2))]
        # the four images of conv{(0,0),(2,1),(1,2)} under the box's symmetries
        assert members == ["0,0;2,1;1,2", "0,1;1,0;2,2", "0,1;2,0;1,2", "0,2;1,0;2,1"]
        assert code == 2 and data["failure_count"] == len(members)
        assert data["failures"] == [
            f"{m}: width equality does not match the width-extremal triangle"
            for m in members]

    def test_corpus_classification_mismatch(self, monkeypatch, capsys):
        real = latticesize.cli.verify_classification
        monkeypatch.setattr(
            latticesize.cli, "verify_classification",
            lambda h, **kw: dataclasses.replace(real(h, **kw), only_in_families=(
                hull([(0, 0), (1, 0), (1, 1), (0, 1)]),)))
        data = self._corpus_check(capsys)
        assert data["failures"] == ["classification mismatch at h=1"]
        assert data["classification"] == [{"h": 1, "classes": 1, "match": False}]

    def test_corpus_class_not_minimal(self, monkeypatch, capsys):
        # the slow minimality test checks every class the sweep finds
        monkeypatch.setattr(latticesize.cli, "is_minimal", lambda P: False)
        data = self._corpus_check(capsys)
        assert data["failures"] == ["0,0;0,1: class at h=1 is not minimal"]
        assert data["classification"] == [{"h": 1, "classes": 1, "match": True}]

    def test_corpus_class_of_wrong_size(self, monkeypatch, capsys):
        # the reduction checks the square size of every class the sweep
        # finds: here a minimal segment of square size 2 at h=1
        real = latticesize.cli.verify_classification
        monkeypatch.setattr(
            latticesize.cli, "verify_classification",
            lambda h, **kw: dataclasses.replace(real(h, **kw), search_classes=(
                hull([(0, 0), (0, 2)]),)))
        data = self._corpus_check(capsys)
        assert data["failures"] == ["0,0;0,2: class at h=1 has square size 2"]
        assert data["classification"] == [{"h": 1, "classes": 1, "match": True}]


class TestJobsVariable:
    """$LATTICESIZE_JOBS is read only by commands that use workers; none
    of these values starts a pool."""

    def test_ignored_when_no_workers_run(self):
        r = run("minimal", "--h", "2", "--mode", "generate",
                env={"LATTICESIZE_JOBS": "abc"})
        assert r.returncode == 0
        assert r.stdout == "0,0;0,2\n0,0;2,1;1,2\n"

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_value_named_on_verify(self, value):
        r = run("minimal", "--h", "2", "--mode", "verify",
                env={"LATTICESIZE_JOBS": value})
        assert r.returncode == 1
        assert r.stdout == ""
        assert "LATTICESIZE_JOBS" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_value_named_on_corpus_check(self, value):
        r = run("corpus-check", "--n", "1", env={"LATTICESIZE_JOBS": value})
        assert r.returncode == 1
        assert r.stdout == ""
        assert "LATTICESIZE_JOBS" in r.stderr and "Traceback" not in r.stderr


class TestHelp:
    @pytest.mark.parametrize("sub", [
        "invariants", "oracle", "verify-bounds", "canonical", "equivalent",
        "enumerate", "minimal", "corpus-check",
    ])
    def test_subcommand_help(self, sub, capsys):
        with pytest.raises(SystemExit) as info:
            latticesize.cli.main([sub, "--help"])
        out = capsys.readouterr().out
        assert info.value.code == 0
        assert out.startswith(f"usage: latticesize {sub}")


class TestExitCodes:
    def test_grid_too_big_is_bad_input(self):
        r = run("enumerate", "--n", "9")
        assert r.returncode == 1

    def test_class_grid_too_big_is_bad_input(self):
        r = run("enumerate", "--n", "9", "--classes")
        assert r.returncode == 1

    def test_missing_file(self):
        r = run("invariants", "/definitely/not/here.txt")
        assert r.returncode == 1
        assert "error:" in r.stderr

    def test_malformed_polygon(self):
        r = run("invariants", "-", stdin="bad line\n")
        assert r.returncode == 1
        r = run("invariants", "-", stdin="0 0\n1e200000 1\n0 1\n")
        assert r.returncode == 1
        assert "bad coordinate" in r.stderr

    @pytest.mark.parametrize("via_file", [True, False])
    def test_non_utf8_input(self, tmp_path, via_file):
        # stdin decodes strictly under PYTHONIOENCODING=utf-8
        raw = b"0 0\n1 0\n\xff\xfe 1\n"
        env = dict(os.environ, PYTHONIOENCODING="utf-8")
        if via_file:
            path = tmp_path / "bad.txt"
            path.write_bytes(raw)
            r = subprocess.run(CLI + ["invariants", str(path)], env=env, capture_output=True)
        else:
            r = subprocess.run(CLI + ["invariants", "-"], input=raw, env=env,
                               capture_output=True)
        err = r.stderr.decode()
        assert r.returncode == 1 and r.stdout == b""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err and "Traceback" not in err
        assert (str(path) if via_file else "error: -:") in err

    def test_unknown_subcommand(self):
        assert run("frobnicate").returncode == 1

    def test_unknown_flag(self):
        assert run("enumerate", "--n", "1", "--bogus").returncode == 1

    def test_non_ascii_integer(self):
        # int() would read the Arabic-Indic digit two as 2
        r = run("enumerate", "--n", "\u0662")
        assert r.returncode == 1 and r.stdout == ""
        assert "invalid int value" in r.stderr and "Traceback" not in r.stderr
