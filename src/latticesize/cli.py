"""Command-line front end.

Subcommands cover the whole library: invariants and certificates for one
polygon, the exhaustive-search cross-check, bound verification,
canonical forms and equivalence, corpus enumeration, and the minimal
classification.  All JSON output has sorted keys, and every exact
rational is serialized as a canonical "p/q" string ("p" when integral)
so output is stable enough for golden tests.

Exit codes: 0 success, 1 malformed input or flags, 2 verification
failure (oracle disagreement, a certificate that does not hold, negative
slack, classification mismatch), 3 resource limit exceeded.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .bounds import EqualityFamily, check_bounds, width_extremal_triangle
from .enumeration import DEFAULT_GRID_LIMIT, enumerate_classes, enumerate_convex, map_polygons
from .errors import InvalidInputError, ResourceLimitError
from .geometry import (
    SIMPLEX,
    SQUARE,
    ConvexPolygon,
    parse_polygon_text,
    polygon_to_text,
)
from .minimal import DEFAULT_CLASSIFY_LIMIT, generate_minimal, verify_classification
from .oracle import brute_force_lattice_size, canonical_form, is_minimal, lattice_equivalent
from .size import invariants

_JOBS_ENV = "LATTICESIZE_JOBS"
_FAILURE_LIMIT = 20  # failures listed in corpus-check output before truncation


def _poly_line(P: ConvexPolygon) -> str:
    return ";".join(f"{v.x},{v.y}" for v in P.vertices)


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_polygon(path: str) -> ConvexPolygon:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidInputError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_polygon_text(text)


def _cert_json(cert) -> dict:
    r1, r2 = cert.map.matrix
    tx, ty = cert.map.translation
    return {
        "matrix": [list(r1), list(r2)],
        "translation": [str(tx), str(ty)],
        "target": cert.target,
        "dilate": str(cert.dilate),
    }


def _integer(text: str) -> int:
    """int(text) for a signed integer in ASCII digits, as the polygon
    text format takes it (geometry._COORD): the argparse type of every
    numeric flag, and _jobs reads $LATTICESIZE_JOBS with it.  int() alone
    also takes '1_0', non-ASCII digits and surrounding spaces."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _jobs(args) -> int:
    """The --jobs value, else $LATTICESIZE_JOBS, else 1; read only by
    commands that map over workers."""
    if args.jobs is not None:
        return args.jobs
    raw = os.environ.get(_JOBS_ENV, "1")
    try:
        jobs = _integer(raw)
    except argparse.ArgumentTypeError:
        jobs = 0
    if jobs < 1:
        raise InvalidInputError(f"{_JOBS_ENV} must be a positive integer, got {raw!r}")
    return jobs


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_integer, default=None,
                   help="worker processes, capped at the CPU count "
                        f"(default ${_JOBS_ENV} or 1)")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this contract reserves 2 for
    verification failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_invariants(args) -> int:
    rep = invariants(_read_polygon(args.file))
    _emit({
        "width": str(rep.width),
        "ls_square": str(rep.ls_square),
        "ls_simplex": str(rep.ls_simplex),
        "area": str(rep.area),
        "reduced_basis": {"u1": list(rep.basis.u1), "u2": list(rep.basis.u2)},
        "cert_square": _cert_json(rep.cert_square),
        "cert_simplex": _cert_json(rep.cert_simplex),
    })
    return 0


def _sizes(rep) -> tuple:
    return ((SQUARE, rep.ls_square, rep.cert_square),
            (SIMPLEX, rep.ls_simplex, rep.cert_simplex))


def _slacks(b) -> tuple:
    return (("wh", b.slack_wh), ("wl", b.slack_wl),
            ("simplex", b.slack_simplex), ("square", b.slack_square))


def _classification(report) -> dict:
    return {
        "h": report.h,
        "classes": len(report.search_classes),
        "match": report.matches,
    }


def _cmd_oracle(args) -> int:
    P = _read_polygon(args.file)
    payload = {}
    for target, fast, cert in _sizes(invariants(P)):
        if args.target not in (target, "both"):
            continue
        searched = brute_force_lattice_size(P, target)
        agree = searched == fast
        payload[target] = {
            "fast": str(fast),
            "search": str(searched),
            "agree": agree,
        }
        if not agree:
            # the witness: the map behind the fast value
            payload[target]["certificate"] = _cert_json(cert)
    payload["agree"] = all(row["agree"] for row in payload.values())
    _emit(payload)
    return 0 if payload["agree"] else 2


def _cmd_verify_bounds(args) -> int:
    b = check_bounds(_read_polygon(args.file))
    payload = {f"slack_{name}": None if s is None else str(s) for name, s in _slacks(b)}
    payload["equality_family"] = b.equality_family.value if b.equality_family else None
    _emit(payload)
    if any(s is not None and s < 0 for _, s in _slacks(b)):
        print("error: a bound reported negative slack", file=sys.stderr)
        return 2
    return 0


def _cmd_canonical(args) -> int:
    print(polygon_to_text(canonical_form(_read_polygon(args.file))), end="")
    return 0


def _cmd_equivalent(args) -> int:
    P = _read_polygon(args.file)
    Q = _read_polygon(args.other)
    print("true" if lattice_equivalent(P, Q) else "false")
    return 0


def _cmd_enumerate(args) -> int:
    gen = enumerate_classes if args.classes else enumerate_convex
    stream = gen(args.n, include_degenerate=args.degenerate, limit=args.limit)
    lines = (_poly_line(P) for P in stream)
    for line in sorted(lines) if args.sorted else lines:
        print(line)
    return 0


def _cmd_minimal(args) -> int:
    if args.mode == "generate":
        for P in generate_minimal(args.h):
            print(_poly_line(P))
        return 0
    report = verify_classification(args.h, limit=args.limit, jobs=_jobs(args))
    _emit({
        **_classification(report),
        "family_classes": [_poly_line(P) for P in report.family_classes],
        "search_classes": [_poly_line(P) for P in report.search_classes],
        "only_in_families": [_poly_line(P) for P in report.only_in_families],
        "only_in_search": [_poly_line(P) for P in report.only_in_search],
    })
    return 0 if report.matches else 2


def _check_corpus_polygon(P: ConvexPolygon) -> list[str]:
    where = _poly_line(P)
    rep = invariants(P)
    failures = [f"{where}: {cert.target} certificate does not hold"
                for _, _, cert in _sizes(rep) if not cert.verify(P)]
    for target, fast, cert in _sizes(rep):
        got = brute_force_lattice_size(P, target)
        if got != fast:
            tx, ty = cert.map.translation
            failures.append(
                f"{where}: fast {target} size {fast} != search {got}, certificate "
                f"matrix {cert.map.matrix} translation ({tx}, {ty})")
    b = check_bounds(P)
    for name, slack in _slacks(b):
        if slack is not None and slack < 0:
            failures.append(f"{where}: negative {name} slack {slack}")
    simplex_families = (EqualityFamily.THIN_TRIANGLE, EqualityFamily.UNIT_SQUARE,
                        EqualityFamily.EXCEPTIONAL_TRIANGLE)
    if (b.slack_simplex == 0) != (b.equality_family in simplex_families):
        failures.append(f"{where}: simplex equality does not match its family")
    if (b.slack_square == 0) != (b.equality_family is EqualityFamily.THIN_TRIANGLE):
        failures.append(f"{where}: square equality does not match its family")
    # membership, not the label: at w = 2 the member is the exceptional
    # triangle; equivalence keeps area and width, so only a triangle with
    # 8A = 3w^2 can be one
    member = (len(P.vertices) == 3 and 8 * rep.area == 3 * rep.width ** 2
              and lattice_equivalent(P, width_extremal_triangle(rep.width)))
    if (b.slack_wh == 0 or b.slack_wl == 0) != member:
        failures.append(f"{where}: width equality does not match the width-extremal triangle")
    return failures


def _cmd_corpus_check(args) -> int:
    jobs = _jobs(args)
    stream = enumerate_convex(args.n, include_degenerate=False, limit=args.limit)
    count = 0
    failures: list[str] = []
    for fails in map_polygons(_check_corpus_polygon, stream, jobs):
        count += 1
        failures.extend(fails)
    classification = []
    for h in range(1, args.n + 1):
        # h <= n, and sweeps that small cost less than starting a pool
        report = verify_classification(h, limit=args.limit)
        classification.append(_classification(report))
        if not report.matches:
            failures.append(f"classification mismatch at h={h}")
        # the sweep decides square size and minimality on integers; the
        # reduction checks its classes: is_minimal tests every drop
        # through ls_square, and invariants reads C's size off the memo
        # is_minimal filled
        for C in report.search_classes:
            if not is_minimal(C):
                failures.append(f"{_poly_line(C)}: class at h={h} is not minimal")
            if (size := invariants(C).ls_square) != h:
                failures.append(f"{_poly_line(C)}: class at h={h} has square size {size}")
    _emit({
        "n": args.n,
        "polygons": count,
        "classification": classification,
        "failures": failures[:_FAILURE_LIMIT],
        "failure_count": len(failures),
        "ok": not failures,
    })
    return 0 if not failures else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="latticesize",
                     description="Exact lattice width and lattice size toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def polygon_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", nargs="?", default="-",
                       help="polygon text file ('x y' per line), '-' for stdin")
        p.set_defaults(func=func)
        return p

    polygon_command("invariants", _cmd_invariants,
                    "width, both lattice sizes, area, and certificates")
    p = polygon_command("oracle", _cmd_oracle,
                        "cross-check the fast path against exhaustive search")
    p.add_argument("--target", choices=(SQUARE, SIMPLEX, "both"), default="both")
    polygon_command("verify-bounds", _cmd_verify_bounds,
                    "evaluate the sharp area bounds and equality families")
    polygon_command("canonical", _cmd_canonical,
                    "print the canonical form as polygon text")

    p = sub.add_parser("equivalent", help="decide unimodular equivalence")
    p.add_argument("file", help="first polygon file")
    p.add_argument("other", help="second polygon file")
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("enumerate",
                       help="stream convex polygons with vertices in {0..n}^2")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--classes", action="store_true",
                   help="one representative per equivalence class")
    p.add_argument("--degenerate", action="store_true",
                   help="include points and segments")
    p.add_argument("--sorted", action="store_true",
                   help="materialize and sort the output lines")
    p.add_argument("--limit", type=_integer, default=DEFAULT_GRID_LIMIT,
                   help="grid-size guard (default %(default)s)")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("minimal",
                       help="generate or verify the minimal classification")
    p.add_argument("--h", type=_integer, required=True, dest="h",
                   help="the fixed square size")
    p.add_argument("--mode", choices=("generate", "verify"), required=True)
    p.add_argument("--limit", type=_integer, default=DEFAULT_CLASSIFY_LIMIT,
                   help="verification sweep guard (default %(default)s)")
    _add_jobs(p)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("corpus-check",
                       help="oracle agreement, bounds, and classification over {0..n}^2")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--limit", type=_integer, default=DEFAULT_GRID_LIMIT,
                   help="grid-size guard (default %(default)s)")
    _add_jobs(p)
    p.set_defaults(func=_cmd_corpus_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
