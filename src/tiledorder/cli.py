"""Command-line interface.

Exit codes: 0 on success, 1 for domain errors (validation failures, missing
Gorenstein structure, negative cycles, positive parameters, ...) with a
machine-readable {code, message, witness} object on stderr, 2 for malformed
input files or flags, 3 for internal failures (any other exception, or
``quiver --oracle`` disagreeing with the cover computation) with one
{"code": "Internal", "message": "<Type>: <text>", "witness": null} object on
stderr.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from . import files
from .conjugation import (
    conjugate_data,
    normalize_equivariant,
    order_equivariant_data,
)
from .errors import (
    DomainError,
    InputFileError,
    NotCyclicError,
    TriangleViolationError,
)
from .gorenstein import cyclic_order, detect_gorenstein, shifted_parameters
from .orders import morita_shift, validate_order
from .tilting import (
    check_hasse_size,
    cyclic_hasse_oracle,
    grothendieck_rank,
    hasse_quiver,
    tilting_poset,
    tilting_summands,
)


def _bool_str(x: bool) -> str:
    return "true" if x else "false"


def _vector_str(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def cmd_validate(args) -> int:
    source = files.read_order_file(args.order)
    if source.kind == "cyclic":
        rows = files.order_matrix(source).rows  # construction cannot be invalid
    else:
        rows = source.matrix
    report = validate_order(rows)
    checks = [
        ("triangle_ok", report.triangle_ok),
        ("basic", report.basic),
        ("n_graded", report.n_graded),
    ]
    for name, ok in checks:
        print(f"{name}: {_bool_str(ok)}")
    if report.first_violation is not None:
        i, j, k = report.first_violation
        print(f"first_violation: ({i}, {j}, {k})")
    if not report.fully_valid:
        message = "order fails: " + ", ".join(name for name, ok in checks if not ok)
        if not report.triangle_ok:
            raise TriangleViolationError(message, witness=report.first_violation)
        raise DomainError(message)
    return 0


def cmd_gorenstein(args) -> int:
    m = files.order_matrix(files.read_order_file(args.order))
    g = detect_gorenstein(m)
    print(f"nu: {_vector_str(g.nu.images)}")
    print(f"ell: {_vector_str(g.ell)}")
    print(f"p: {_vector_str(g.p)}")
    print(f"p_av: {files.rational_str(g.p_av)}")
    return 0


def cmd_normalize(args) -> int:
    m = files.order_matrix(files.read_order_file(args.order))
    g = detect_gorenstein(m)
    # normalize_equivariant's postconditions on (m^T, -p, nu) conjugated by s
    # are this order's: the conjugated matrix is shifted^T (non-negative) and
    # the twist is -new_p (within 1 of -p_av).
    s = normalize_equivariant(order_equivariant_data(m, g))
    shifted = morita_shift(m, tuple(-x for x in s))
    new_p = shifted_parameters(g, s)
    if args.emit:  # before printing, so a failed write prints nothing
        files.write_order_file(
            args.emit, files.OrderSource(kind="matrix", matrix=shifted.rows)
        )
    print(f"s: {_vector_str(s)}")
    print(f"p': {_vector_str(new_p)}")
    print(f"p_av: {files.rational_str(g.p_av)}")
    print("m':")
    for row in shifted.rows:
        print(f"  {_vector_str(row)}")
    if args.emit:
        print(f"emitted: {args.emit}")
    return 0


def cmd_tilting(args) -> int:
    m = files.order_matrix(files.read_order_file(args.order))
    g = detect_gorenstein(m)
    summands = tilting_summands(m, g)
    print(f"rank: {grothendieck_rank(g)}")
    for labels, vec in summands:
        label_str = " ".join(f"({s},{j})" for s, j in labels)
        print(f"{label_str} -> {files.vector_label(vec)}")
    return 0


def cmd_quiver(args) -> int:
    source = files.read_order_file(args.order)
    m = files.order_matrix(source)
    g = detect_gorenstein(m)
    check_hasse_size(grothendieck_rank(g))  # before enumerating the summands
    quiver = hasse_quiver(tilting_poset(m, g))
    lines = [f"vertices: {len(quiver.vertices)}", f"arrows: {len(quiver.arrows)}"]
    if args.dot:
        files.write_text(args.dot, files.quiver_dot(quiver))
        lines.append(f"emitted: {args.dot}")
    if args.oracle:
        if source.kind != "cyclic":
            raise NotCyclicError("--oracle requires a cyclic order file")
        if cyclic_hasse_oracle(source.weights) != quiver:
            raise RuntimeError("oracle and cover computation disagree")
        lines.append("oracle: ISOMORPHIC")
    print("\n".join(lines))  # after every write and check
    return 0


def cmd_mdata_check(args) -> int:
    ed = files.read_equivariant_file(args.mdata)
    print("valid: true")
    print(f"a_av: {files.rational_str(ed.twist_avg)}")
    print(f"orbits: {[list(orbit) for orbit in ed.orbits]}")
    return 0


def cmd_mdata_normalize(args) -> int:
    ed = files.read_equivariant_file(args.mdata)
    s = normalize_equivariant(ed)
    out = conjugate_data(ed, s)
    if args.emit:  # before printing, so a failed write prints nothing
        files.write_equivariant_file(args.emit, out)
    print(f"s: {_vector_str(s)}")
    print(f"a': {_vector_str(out.twist)}")
    print(f"a_av: {files.rational_str(out.twist_avg)}")
    if args.emit:
        print(f"emitted: {args.emit}")
    return 0


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        weights = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "weights must be comma-separated integers"
        ) from None
    if any(x < 0 for x in weights):
        raise argparse.ArgumentTypeError("weights must be non-negative")
    return weights


def cmd_cyclic(args) -> int:
    cyclic_order(args.weights)  # reject all-zero weights before emitting
    source = files.OrderSource(kind="cyclic", weights=args.weights)
    text = files.order_file_text(source)
    if args.emit:
        files.write_order_file(args.emit, source)
        print(f"emitted: {args.emit}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiledorder",
        description="Exact-integer computations with graded tiled orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an order file")
    p.add_argument("order")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gorenstein", help="detect the Gorenstein structure")
    p.add_argument("order")
    p.set_defaults(func=cmd_gorenstein)

    p = sub.add_parser(
        "normalize", help="conjugate into non-negative, almost-constant form"
    )
    p.add_argument("order")
    p.add_argument("--emit", metavar="PATH", help="write the shifted order file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("tilting", help="list tilting summands and the rank")
    p.add_argument("order")
    p.set_defaults(func=cmd_tilting)

    p = sub.add_parser("quiver", help="Hasse quiver of the tilting poset")
    p.add_argument("order")
    p.add_argument("--dot", metavar="PATH", help="write DOT text")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the cyclic line description (cyclic input only)",
    )
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("mdata-check", help="validate an equivariant-data file")
    p.add_argument("mdata")
    p.set_defaults(func=cmd_mdata_check)

    p = sub.add_parser(
        "mdata-normalize", help="normalize an equivariant-data file"
    )
    p.add_argument("mdata")
    p.add_argument("--emit", metavar="PATH", help="write the conjugated data")
    p.set_defaults(func=cmd_mdata_normalize)

    p = sub.add_parser("cyclic", help="emit a cyclic order file")
    p.add_argument("--weights", type=_parse_weights, required=True)
    p.add_argument("--emit", metavar="PATH", help="write the order file")
    p.set_defaults(func=cmd_cyclic)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        status, error = 1, exc.to_json()
    except InputFileError as exc:
        status, error = 2, {"code": "MalformedInput", "message": str(exc)}
    except Exception as exc:  # a defect or a resource failure, not a rejection
        message = f"{type(exc).__name__}: {exc}"
        status, error = 3, {"code": "Internal", "message": message}
    error.setdefault("witness", None)
    print(json.dumps(error), file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
