"""Command-line interface.

Exit codes: 0 on success, 1 for domain errors (validation failures, missing
Gorenstein structure, negative cycles, positive parameters, ...) with a
machine-readable {code, message, witness} object on stderr, 2 for malformed
input files or flags, 3 for internal failures (any other exception, or
``quiver --oracle`` disagreeing with the cover computation) with one
{"code": "Internal", "message": "<Type>: <text>", "witness": null} object on
stderr.  The closed-form oracle rules hold only for strictly positive
weights, so a disagreement on weights with a zero is a domain error (code
``ZeroWeights``, witness the first zero weight's index).  ``tilting`` and
``quiver`` share one size budget and error order, that of ``tilting._lines``,
and ``quiver --dot`` writes its DOT lines as they come.  All output is
deterministic.

A run imports only what its subcommand uses: each ``cmd_*`` imports from the
modules that define its functions when it runs.  The grammar is stated once,
in ``COMMANDS``.  ``_scan`` reads the canonical argv forms straight from it;
every other argv (help, abbreviations, ``--flag=value``, ``--``, repeated
options, missing or bad values) goes to the argparse parser that
``build_parser`` makes from the same table, so argparse is loaded only to
print help or a usage error, and those texts are argparse's own.  Nor does
a run that succeeds load ``json``, ``re`` or ``fractions``: files are read
by json's own C scanner (``json.loads`` runs only to report a malformed
file), JSON is written by ``files.json_text``, and p_av and a_av are printed
from int pairs by ``files.rational_str``.
"""

from __future__ import annotations

import sys

from . import files
from .errors import (
    DomainError,
    InputFileError,
    NotCyclicError,
    TriangleViolationError,
    ZeroWeightsError,
)


def cmd_validate(args) -> int:
    from .orders import OrderReport, validate_order

    source = files.read_order_file(args.order)
    if source.kind == "cyclic":
        from .gorenstein import cyclic_order

        cyclic_order(source.weights)  # rejects all-zero weights
        # cyclic_order proves its matrix valid, basic and N-graded
        report = OrderReport(triangle_ok=True, basic=True, n_graded=True)
    else:
        report = validate_order(source.matrix)
    checks = [
        ("triangle_ok", report.triangle_ok),
        ("basic", report.basic),
        ("n_graded", report.n_graded),
    ]
    for name, ok in checks:
        print(f"{name}: {files.json_text(ok)}")
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
    _, g = files.order_pair(files.read_order_file(args.order))
    print(f"nu: {files.json_text(g.nu.images)}")
    print(f"ell: {files.json_text(g.ell)}")
    print(f"p: {files.json_text(g.p)}")
    print(f"p_av: {files.rational_str(sum(g.p), g.n)}")
    return 0


def cmd_normalize(args) -> int:
    from .conjugation import normalize_equivariant, order_equivariant_data
    from .gorenstein import shifted_parameters
    from .orders import morita_shift

    m, g = files.order_pair(files.read_order_file(args.order))
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
    print(f"s: {files.json_text(s)}")
    print(f"p': {files.json_text(new_p)}")
    print(f"p_av: {files.rational_str(sum(g.p), g.n)}")
    print("m':")
    for row in shifted.rows:
        print(f"  {files.json_text(row)}")
    if args.emit:
        print(f"emitted: {args.emit}")
    return 0


def cmd_tilting(args) -> int:
    from .tilting import tilting_summands

    m, g = files.order_pair(files.read_order_file(args.order))
    summands = tilting_summands(m, g)
    print(f"rank: {len(summands)}")
    write = sys.stdout.write  # one write per line, as print would stream it
    line = "(%d,%d) -> " + files.label_format(m.n) + "\n"  # one slot, non-zero vector
    for labels, vec in summands:
        if any(vec):
            write(line % (labels[0] + vec))
        else:  # the zero summand, with its n slots
            write(" ".join(["(%d,%d)" % slot for slot in labels]) + " -> 0\n")
    return 0


def cmd_quiver(args) -> int:
    from .tilting import cyclic_hasse_oracle, hasse_quiver, tilting_poset

    source = files.read_order_file(args.order)
    quiver = hasse_quiver(tilting_poset(*files.order_pair(source)))
    lines = [f"vertices: {len(quiver.vertices)}", f"arrows: {len(quiver.codes)}"]
    if args.dot:
        files.write_text(args.dot, files.dot_lines(quiver))
        lines.append(f"emitted: {args.dot}")
    if args.oracle:
        if source.kind != "cyclic":
            raise NotCyclicError("--oracle requires a cyclic order file")
        if cyclic_hasse_oracle(source.weights) != quiver:
            if 0 in source.weights:
                i = source.weights.index(0)
                raise ZeroWeightsError(
                    f"--oracle rules need positive weights; weight {i} is 0",
                    witness=i,
                )
            raise RuntimeError("oracle and cover computation disagree")
        lines.append("oracle: ISOMORPHIC")
    print("\n".join(lines))  # after every write and check
    return 0


def cmd_mdata_check(args) -> int:
    ed = files.read_equivariant_file(args.mdata)
    print("valid: true")
    print(f"a_av: {files.rational_str(*ed.avg)}")
    print(f"orbits: {files.json_text(ed.orbits)}")
    return 0


def cmd_mdata_normalize(args) -> int:
    from .conjugation import conjugate_data, normalize_equivariant

    ed = files.read_equivariant_file(args.mdata)
    s = normalize_equivariant(ed)
    out = conjugate_data(ed, s)
    if args.emit:  # before printing, so a failed write prints nothing
        files.write_equivariant_file(args.emit, out)
    print(f"s: {files.json_text(s)}")
    print(f"a': {files.json_text(out.twist)}")
    print(f"a_av: {files.rational_str(*out.avg)}")
    if args.emit:
        print(f"emitted: {args.emit}")
    return 0


def _parse_weights(text: str) -> tuple[int, ...]:
    """The --weights converter: comma-separated non-negative integers."""
    try:
        weights = tuple(int(part) for part in text.split(","))
        problem = "weights must be non-negative" if any(x < 0 for x in weights) else None
    except ValueError:
        problem = "weights must be comma-separated integers"
    if problem:
        import argparse  # a bad value is a usage error, which argparse prints

        raise argparse.ArgumentTypeError(problem)
    return weights


def cmd_cyclic(args) -> int:
    from .gorenstein import cyclic_order

    cyclic_order(args.weights)  # reject all-zero weights before emitting
    source = files.OrderSource(kind="cyclic", weights=args.weights)
    text = files.order_file_text(source)
    if args.emit:
        files.write_text(args.emit, (text,))
        print(f"emitted: {args.emit}")
    else:
        sys.stdout.write(text)
    return 0


# The grammar, for the scanner and argparse alike: command -> (function,
# help, positional dest or None, options).  Each option maps its flag to the
# keywords of add_argument: "store_true" options take no value, the others
# take one, converted by "type" if given.
COMMANDS = {
    "validate": (cmd_validate, "validate an order file", "order", {}),
    "gorenstein": (cmd_gorenstein, "detect the Gorenstein structure", "order", {}),
    "normalize": (
        cmd_normalize,
        "conjugate into non-negative, almost-constant form",
        "order",
        {"--emit": {"metavar": "PATH", "help": "write the shifted order file"}},
    ),
    "tilting": (cmd_tilting, "list tilting summands and the rank", "order", {}),
    "quiver": (
        cmd_quiver,
        "Hasse quiver of the tilting poset",
        "order",
        {
            "--dot": {"metavar": "PATH", "help": "write DOT text"},
            "--oracle": {
                "action": "store_true",
                "help": "cross-check against the cyclic line description "
                "(cyclic input only)",
            },
        },
    ),
    "mdata-check": (
        cmd_mdata_check, "validate an equivariant-data file", "mdata", {}
    ),
    "mdata-normalize": (
        cmd_mdata_normalize,
        "normalize an equivariant-data file",
        "mdata",
        {"--emit": {"metavar": "PATH", "help": "write the conjugated data"}},
    ),
    "cyclic": (
        cmd_cyclic,
        "emit a cyclic order file",
        None,
        {
            "--weights": {"type": _parse_weights, "required": True},
            "--emit": {"metavar": "PATH", "help": "write the order file"},
        },
    ),
}


def build_parser():
    """The argparse parser of COMMANDS: the help, usage-error and test oracle path."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tiledorder",
        description="Exact-integer computations with graded tiled orders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_, positional, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        if positional is not None:
            p.add_argument(positional)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _scan(argv: list[str]) -> dict | None:
    """vars() of argparse's result when argv is a canonical form, else None.

    Canonical: a command, then its positional and each of its options at
    most once, in any order, every option as its exact flag with the value
    (if it takes one) in the next token.  A token that starts with "-" and
    is not an exact flag, a value that starts with "-" or fails its
    converter, a repeated option and a missing argument all give None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, positional, options = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    for flag, keywords in options.items():
        values[flag[2:]] = False if keywords.get("action") == "store_true" else None
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if positional is None or positional in values:
                return None
            values[positional] = token
            continue
        keywords = options.get(token)
        if keywords is None or token in seen:
            return None
        seen.add(token)
        if keywords.get("action") == "store_true":
            values[token[2:]] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        convert = keywords.get("type")
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # argparse reruns it and reports or raises the same
                return None
        values[token[2:]] = value
    if positional is not None and positional not in values:
        return None
    if any(k.get("required") and f not in seen for f, k in options.items()):
        return None
    return values


def parse_args(argv: list[str]):
    """Parse argv; argparse is imported only for help and usage errors."""
    values = _scan(argv)
    if values is None:
        return build_parser().parse_args(argv)  # prints and exits for those
    from types import SimpleNamespace

    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
    print(files.json_text(error), file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
