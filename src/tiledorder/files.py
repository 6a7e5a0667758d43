"""JSON file formats and DOT emission.

Two file kinds. An order file is either an explicit matrix or a cyclic
weight vector:

    {"kind": "matrix", "m": [[0, 1], [1, 0]]}
    {"kind": "cyclic", "weights": [1, 1, 1, 1]}

An equivariant-data file carries the matrix, the twist vector and the
permutation images:

    {"m": [[...], ...], "a": [...], "nu": [...]}

Emission is canonical (fixed key order, one matrix row per line) so that
re-emitting a parsed file reproduces it byte for byte.  A file whose n (rows
of "m", or weights) exceeds FILE_LIMIT is refused with TooLargeError before
anything is built from it.

The ``json`` package is not imported on a run that succeeds: importing it
loads ``re`` and ``enum`` and compiles six regular expressions, which costs
a CLI run more than its file work.  Files are read by ``_loads`` through
the C scanner ``json.loads`` runs, with ``json.loads`` itself called for
any text that scanner does not accept whole, so errors are json's own; JSON
text is written by ``json_text``.
"""

from __future__ import annotations

from _json import encode_basestring_ascii, make_scanner

from .errors import InputFileError, TooLargeError, str_limit
from .orders import ExponentMatrix, Permutation, Record, _validated, lowest_terms

# Largest n an order or equivariant-data file may have.  The slowest input
# of that size known is dense equivariant data: identity nu, zero twist and
# entries uniform in [-1, 6].  `tiledorder mdata-normalize` runs all n + 1
# Bellman-Ford passes on it twice (singleton orbits make the block minima m
# itself, and the witness is searched in m) and exits 1 NegativeCycle after
# about 5.3 s.  A descending chain (m(i+1,i) = -1, other entries n) takes
# about 0.19 s and a long negative cycle about 0.17 s (whole process, best
# of 3, Python 3.11, one CPU of a shared 2-vCPU Linux host).
FILE_LIMIT = 256


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFileError(f"{what} must be an integer, got {value!r}")
    return value


def _as_int_vector(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise InputFileError(f"{what} must be a non-empty list of integers")
    if set(map(type, value)) != {int}:  # bool is an int subclass, so it lands here
        for x in value:  # raises for the first bad entry
            _as_int(x, what)
    return tuple(value)


def _as_int_matrix(value, what: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or not value:
        raise InputFileError(f"{what} must be a non-empty list of rows")
    what = f"{what} row"
    return tuple([_as_int_vector(row, what) for row in value])


class OrderSource(Record):
    """Parsed order file: an explicit matrix or a cyclic weight vector."""

    kind: str
    matrix: tuple[tuple[int, ...], ...] | None = None
    weights: tuple[int, ...] | None = None


def _check_size(value) -> None:
    """TooLargeError, witness n, for a list of more than FILE_LIMIT rows or weights."""
    if isinstance(value, list) and len(value) > FILE_LIMIT:
        raise TooLargeError(
            f"file has n = {len(value)}, exceeds the file limit {FILE_LIMIT}",
            witness=len(value),
        )


class _DecoderSettings:
    """The settings ``json.JSONDecoder()`` gives the scanner it makes."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {
        "-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")
    }.__getitem__


_scan = make_scanner(_DecoderSettings)
_WHITESPACE = " \t\n\r"  # JSON's whitespace, which json.decoder skips


def _loads(text: str):
    """``json.loads(text)``, without importing ``json`` when the text is valid.

    json.loads skips whitespace, runs this scanner (the same C function,
    with the same settings) and requires only whitespace after the value.
    Any other outcome, a failed scan or trailing data, is handed to
    json.loads, which is the definition and raises its own exception: that
    also covers a BOM, which json.loads refuses before scanning and the
    scanner does not take for a value, and the SystemError CPython 3.11's
    scanner raises in place of its error while ``json.decoder`` is not
    imported.
    """
    start = len(text) - len(text.lstrip(_WHITESPACE))
    try:
        value, end = _scan(text, start)
    except (StopIteration, ValueError, RecursionError, SystemError):
        pass
    else:
        if not text[end:].strip(_WHITESPACE):
            return value
    import json

    return json.loads(text)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {path}: {exc}") from exc
    try:
        data = _loads(text)
    except RecursionError as exc:  # arrays or objects nested deeper than the stack
        raise InputFileError(f"{path} nests too deeply to parse: {exc}") from exc
    except ValueError as exc:
        from json import JSONDecodeError  # loaded: only json.loads raises here

        if isinstance(exc, JSONDecodeError):
            raise InputFileError(f"{path} is not valid JSON: {exc}") from exc
        # an integer over sys.get_int_max_str_digits() digits
        raise InputFileError(
            f"{path} holds an integer too long to parse: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise InputFileError(f"{path} must hold a JSON object")
    return data


def read_order_file(path) -> OrderSource:
    data = _load_json(path)
    kind = data.get("kind")
    if kind == "matrix":
        if "m" not in data:
            raise InputFileError('kind "matrix" requires field "m"')
        _check_size(data["m"])
        matrix = _as_int_matrix(data["m"], '"m"')
        if any(len(row) != len(matrix) for row in matrix):
            raise InputFileError('"m" must be square')
        return OrderSource(kind="matrix", matrix=matrix)
    if kind == "cyclic":
        if "weights" not in data:
            raise InputFileError('kind "cyclic" requires field "weights"')
        _check_size(data["weights"])
        weights = _as_int_vector(data["weights"], '"weights"')
        if any(x < 0 for x in weights):
            raise InputFileError('"weights" must be non-negative')
        return OrderSource(kind="cyclic", weights=weights)
    raise InputFileError('field "kind" must be "matrix" or "cyclic"')


def order_pair(source: OrderSource) -> tuple[ExponentMatrix, GorensteinData]:
    """(m, g) as ``cyclic_order``, or ``from_rows`` then ``detect_gorenstein``.

    A matrix is validated by ``orders._validated``, and detection reads the
    fits it matched: one packing and one pattern match per file.  A triangle
    violation is raised before detection can fail, as ``from_rows`` would.
    """
    from .gorenstein import cyclic_order, detect_gorenstein

    if source.kind == "cyclic":
        return cyclic_order(source.weights)
    rows, fits = _validated(source.matrix)
    m = ExponentMatrix(rows)
    return m, detect_gorenstein(m, _fits=fits)


def _matrix_lines(rows: Sequence[Sequence[int]]) -> list[str]:
    body = [f"    {json_text(row)}" for row in rows]
    return ["  [", ",\n".join(body), "  ]"]


def order_file_text(source: OrderSource) -> str:
    if source.kind == "cyclic":
        return f'{{\n  "kind": "cyclic",\n  "weights": {json_text(source.weights)}\n}}\n'
    open_, body, close = _matrix_lines(source.matrix)
    return f'{{\n  "kind": "matrix",\n  "m":\n{open_}\n{body}\n{close}\n}}\n'


def write_text(path, lines: Iterable[str]) -> None:
    """fh.writelines(lines) to path (a str as (text,)); InputFileError if unwritable."""
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc}") from exc


def write_order_file(path, source: OrderSource) -> None:
    write_text(path, (order_file_text(source),))


def read_equivariant_file(path) -> EquivariantData:
    """Parse and validate an equivariant-data file (schema errors -> InputFileError)."""
    from .conjugation import equivariant_data

    data = _load_json(path)
    for field in ("m", "a", "nu"):
        if field not in data:
            raise InputFileError(f'missing field "{field}"')
    _check_size(data["m"])
    matrix = _as_int_matrix(data["m"], '"m"')
    twist = _as_int_vector(data["a"], '"a"')
    images = _as_int_vector(data["nu"], '"nu"')
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputFileError('"m" must be square')
    if len(twist) != n or len(images) != n:
        raise InputFileError('"a" and "nu" must match the matrix size')
    if sorted(images) != list(range(n)):
        raise InputFileError('"nu" must be a bijection of 0..n-1')
    return equivariant_data(matrix, twist, Permutation(images))


def equivariant_file_text(ed: EquivariantData) -> str:
    open_, body, close = _matrix_lines(ed.matrix)
    return (
        "{\n"
        f'  "m":\n{open_}\n{body}\n{close},\n'
        f'  "a": {json_text(ed.twist)},\n'
        f'  "nu": {json_text(ed.perm.images)}\n'
        "}\n"
    )


def write_equivariant_file(path, ed: EquivariantData) -> None:
    write_text(path, (equivariant_file_text(ed),))


def label_format(n: int) -> str:
    """The "%d" template of a length-n label: "(%d,%d,%d)" for n = 3."""
    return "(" + ",".join(["%d"] * n) + ")"


def dot_lines(q: Quiver) -> Iterator[str]:
    """Deterministic DOT text, one line at a time: vertices then arrows, sorted.

    The vertices are vectors of one length n, as ``hasse_quiver`` gives
    them: each is labelled "(2,0,1)" through one template built per call,
    and the label equal to the zero vector's becomes "0".  An arrow is a rank
    code a * k + b (see Quiver), so its ends' labels are labels[a] and
    labels[b], looked up by rank, not by identity or by hashing the vector.
    Cost: one format per vertex and one line per arrow; only the labels are held.
    """
    vertices = q.vertices
    k = len(vertices)
    n = len(vertices[0]) if vertices else 0
    fmt = label_format(n)
    labels = list(map(fmt.__mod__, vertices))
    zero = fmt % ((0,) * n)
    for _ in range(labels.count(zero)):  # once, unless a vertex repeats
        labels[labels.index(zero)] = "0"
    yield "digraph hasse {\n"
    for s in labels:
        yield f'  "{s}";\n'
    for c in q.codes:
        yield f'  "{labels[c // k]}" -> "{labels[c % k]}";\n'
    yield "}\n"


def quiver_dot(q: Quiver) -> str:
    return "".join(dot_lines(q))  # the text that ``quiver --dot`` writes


def rational_str(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms r/g: "r/g", or just "r" when g = 1.

    TooLargeError (witness null) when str refuses r's or g's digits
    (``errors.str_limit``), as for ``tilting``'s sizes.
    """
    r, g = lowest_terms(num, den)
    digits = str_limit(max(abs(r), g))
    if digits:
        raise TooLargeError(
            f"a fraction whose numerator or denominator is 10**{digits} or more"
        )
    return str(r) if g == 1 else f"{r}/{g}"


def json_text(x) -> str:
    """``json.dumps(x)`` for None, bool, int, str, list, tuple and str-keyed dict.

    Strings go through json's own C escaper, as ``json.dumps`` sends them;
    any other value raises TypeError.
    """
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, (list, tuple)):
        if {int}.issuperset(map(type, x)):  # a file's int vector: one pass in C
            return "[" + ", ".join(map(repr, x)) + "]"
        return "[" + ", ".join(map(json_text, x)) + "]"
    if isinstance(x, dict) and all(isinstance(k, str) for k in x):
        items = [encode_basestring_ascii(k) + ": " + json_text(v) for k, v in x.items()]
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
