import copy
import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest

from tiledorder import (
    InputFileError,
    Quiver,
    cyclic_order,
    hasse_quiver,
    tilting_poset,
)
from tiledorder.files import (
    OrderSource,
    equivariant_file_text,
    order_file_text,
    order_pair,
    _loads,
    json_text,
    quiver_dot,
    rational_str,
    read_equivariant_file,
    read_order_file,
    write_equivariant_file,
    write_order_file,
)

from test_orders import CYCLIC_1111
from test_tilting import hasse_corpus


# The earlier label and DOT code, kept as the oracle for the emitter: map(str)
# over the entries, and a label dict keyed by vector.
def oracle_vector_label(vec) -> str:
    if not any(vec):
        return "0"
    return "(" + ",".join(map(str, vec)) + ")"


def oracle_quiver_dot(q: Quiver) -> str:
    label = {v: oracle_vector_label(v) for v in q.vertices}
    lines = ["digraph hasse {"]
    lines.extend(f'  "{label[v]}";' for v in q.vertices)
    lines.extend(f'  "{label[a]}" -> "{label[b]}";' for a, b in q.arrows)
    lines.append("}")
    return "\n".join(lines) + "\n"


# The per-entry reader that _as_int_vector and _as_int_matrix replaced, kept
# as the oracle for their results and messages: two isinstance tests a value.
def oracle_as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFileError(f"{what} must be an integer, got {value!r}")
    return value


def oracle_as_int_vector(value, what: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise InputFileError(f"{what} must be a non-empty list of integers")
    return tuple(oracle_as_int(x, what) for x in value)


def oracle_as_int_matrix(value, what: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise InputFileError(f"{what} must be a non-empty list of rows")
    return tuple(oracle_as_int_vector(row, f"{what} row") for row in value)


def twin(v):
    """A vector equal to v that is another object."""
    return tuple(list(v))


# Quivers by hand, arrow ends equal to vertices but other objects: empty, one
# non-zero vertex, length one, negative and large entries, a repeat.
HAND_QUIVERS = [
    Quiver((), ()),
    Quiver(((1, 2),), ()),
    Quiver(((0, 0),), ()),
    Quiver(((0,), (1,), (2,)), ((twin((1,)), twin((0,))), (twin((2,)), twin((1,))))),
    Quiver(
        ((-3, 0), (-1, 2), (0, 0), (2, -5), (10**20, -1)),
        (
            (twin((-1, 2)), twin((-3, 0))),
            (twin((2, -5)), twin((0, 0))),
            (twin((10**20, -1)), twin((2, -5))),
        ),
    ),
    Quiver(((0, 0), (1, 0), (0, 0)), ((twin((1, 0)), twin((0, 0))),)),  # a repeat
]

DOT_1111 = """digraph hasse {
  "0";
  "(0,0,0,1)";
  "(0,0,1,0)";
  "(0,0,1,2)";
  "(0,1,0,0)";
  "(0,1,2,0)";
  "(1,0,0,0)";
  "(1,2,0,0)";
  "(2,0,0,1)";
  "(0,0,0,1)" -> "0";
  "(0,0,1,0)" -> "0";
  "(0,0,1,2)" -> "(0,0,0,1)";
  "(0,0,1,2)" -> "(0,0,1,0)";
  "(0,1,0,0)" -> "0";
  "(0,1,2,0)" -> "(0,0,1,0)";
  "(0,1,2,0)" -> "(0,1,0,0)";
  "(1,0,0,0)" -> "0";
  "(1,2,0,0)" -> "(0,1,0,0)";
  "(1,2,0,0)" -> "(1,0,0,0)";
  "(2,0,0,1)" -> "(0,0,0,1)";
  "(2,0,0,1)" -> "(1,0,0,0)";
}
"""


class TestLabels:
    def test_rational_str(self):
        assert rational_str(-2, 1) == "-2"
        assert rational_str(1, 2) == "1/2"
        assert rational_str(-7, 3) == "-7/3"
        assert rational_str(4, 2) == "2"
        assert rational_str(-14, 6) == "-7/3"
        assert rational_str(0, 5) == "0"

    def test_rational_str_matches_fraction_seeded(self):
        rng = random.Random(2001)
        for _ in range(3000):
            common = rng.choice([1, 1, 2, 6, rng.randint(1, 10**6), 10**30 + 7])
            den = common * rng.choice([1, 1, 2, 3, rng.randint(1, 300), 10**40 + 3])
            num = common * rng.choice(
                [0, 1, -1, rng.randint(-1000, 1000), rng.randint(-(10**50), 10**50)]
            )
            assert rational_str(num, den) == str(Fraction(num, den)), (num, den)


def test_dot_golden():
    m, g = cyclic_order((1, 1, 1, 1))
    q = hasse_quiver(tilting_poset(m, g))
    assert quiver_dot(q) == DOT_1111


def test_dot_matches_oracle_on_hasse_corpus():
    for m, g in hasse_corpus():
        q = hasse_quiver(tilting_poset(m, g))
        assert quiver_dot(q) == oracle_quiver_dot(q), m


# Case ids skip q4, the mixed-length quiver that quiver_dot no longer formats.
@pytest.mark.parametrize("q", HAND_QUIVERS, ids=["q0", "q1", "q2", "q3", "q5", "q6"])
def test_dot_matches_oracle_on_hand_quivers(q):
    assert quiver_dot(q) == oracle_quiver_dot(q)


def test_quiver_copy_and_pickle():
    # Quiver stores rank codes and rebuilds through (vertices, arrows)
    m, g = cyclic_order((1, 2, 0, 3))
    for q in HAND_QUIVERS + [hasse_quiver(tilting_poset(m, g))]:
        for twin_q in (copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert twin_q == q and hash(twin_q) == hash(q)
            assert twin_q.codes == q.codes and twin_q.arrows == q.arrows


# sha256 of quiver_dot's text at large k, as the id-keyed emitter wrote it:
# two long lines of 9,999 slots each (k = 19,999), and unit weights n = 30.
DOT_SHA256 = {
    (10000, 10000): "48534439482be9935df62f93a1975f20157090d243e8a4bd2ce8464bce5719c4",
    (1,) * 30: "59c5bb709e087c696b7c5001fe1cf3f3560f6b945b72f31cefccb228070c8121",
}


@pytest.mark.parametrize("w", DOT_SHA256, ids=["two-long-lines", "unit-30"])
def test_dot_sha256_at_large_k(w):
    m, g = cyclic_order(w)
    text = quiver_dot(hasse_quiver(tilting_poset(m, g)))
    assert hashlib.sha256(text.encode()).hexdigest() == DOT_SHA256[w]


ENTRY_POOL = (0, 0, 0, 1, 2, -1, -7, 10**40, -(10**40), 10**40 + 1)


def random_vector(rng, n):
    """Length n, entries mostly small and often zero, some of size 10**40."""
    return tuple(
        rng.choice(ENTRY_POOL) if rng.random() < 0.5 else rng.randint(-30, 30)
        for _ in range(n)
    )


def random_quiver(rng, lengths):
    """Up to 12 distinct vectors with lengths from lengths, often with a zero
    vector, sorted; random distinct arrows whose ends are other objects."""
    vertices = {random_vector(rng, rng.choice(lengths)) for _ in range(rng.randint(0, 12))}
    if rng.random() < 0.6:
        vertices.add((0,) * rng.choice(lengths))
    vertices = sorted(vertices)
    pairs = {(rng.choice(vertices), rng.choice(vertices)) for _ in range(len(vertices))}
    return Quiver(tuple(vertices), tuple((twin(a), twin(b)) for a, b in sorted(pairs)))


def test_dot_matches_oracle_on_seeded_quivers():
    rng = random.Random(1718)
    for _ in range(200):  # one length each, as hasse_quiver gives
        q = random_quiver(rng, [rng.randint(0, 8)])
        assert quiver_dot(q) == oracle_quiver_dot(q), q


# Strings for the JSON differential tests: quotes, backslashes, control,
# non-ASCII and astral characters, and the escapes json writes for them.
JSON_CHARS = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
              "a", "Z", " ", "é", "\u2028", "\ufeff", "\U0001f600", "\U00010000"]
JSON_INTS = [0, 1, -1, 7, 10**18, -(2**63), 10**400, -(10**400) + 1]


def random_json_str(rng):
    return "".join(rng.choice(JSON_CHARS) for _ in range(rng.randint(0, 6)))


def random_json_value(rng, depth=0):
    """A nested value of None, bools, ints up to 10**400, strings, lists,
    tuples and str-keyed dicts."""
    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice(JSON_INTS + [rng.randint(-(10**9), 10**9)])
    if kind in (2, 3):
        return random_json_str(rng)
    items = [random_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 4:
        return tuple(items)
    if kind in (5, 6):
        return items
    return {random_json_str(rng): v for v in items}


def random_json_text(rng):
    """json.dumps of a random value (floats and the constants included), with
    random layout and whitespace around it."""
    value = random_json_value(rng)
    if rng.random() < 0.3:
        value = [value, rng.choice([1.5, -0.0, 1e300, float("nan"), float("inf")])]
    text = json.dumps(value, indent=rng.choice([None, 0, 2]), ensure_ascii=rng.random() < 0.5)
    ws = " \t\n\r"
    pad = lambda: "".join(rng.choice(ws) for _ in range(rng.randint(0, 3)))
    return pad() + text + pad()


def outcome(f, text):
    """repr of f(text)'s value (NaN-safe), or its exception's type and str."""
    try:
        return "ok", repr(f(text))
    except Exception as exc:
        return type(exc), str(exc)


class TestJson:
    """files._loads and files.json_text against the stdlib json they replace."""

    def test_loads_matches_json_on_valid_texts(self):
        rng = random.Random(2002)
        for _ in range(1500):
            text = random_json_text(rng)
            assert outcome(_loads, text) == ("ok", repr(json.loads(text))), text

    def test_loads_matches_json_on_malformed_texts(self):
        rng = random.Random(2003)
        noise = ["x", ",", "]", "}", "[", "{", ":", '"', "\\", "\x01", "\ufeff", " ", "0", "-", "NaN"]
        raised = set()
        for _ in range(3000):
            text = random_json_text(rng)
            cut = rng.randint(0, len(text))
            edit = rng.randrange(5)
            if edit == 0:
                text = text[:cut]
            elif edit == 1:
                text = text[:cut] + rng.choice(noise) + text[cut:]
            elif edit == 2:
                text = text[:cut] + text[cut + 1:]
            elif edit == 3:
                text = "\ufeff" + text
            else:
                text = text + rng.choice(noise)
            got = outcome(_loads, text)
            assert got == outcome(json.loads, text), text
            raised.add(got[0])
        assert {"ok", json.JSONDecodeError} <= raised

    @pytest.mark.parametrize(
        "text",
        ["", " ", "\ufeff", "\ufeff{}", "{} x", "[1] [2]", "[" * 100_000 + "]" * 100_000,
         "[1" + "0" * 5000 + "]", "NaN", "-Infinity", '"\\ud800"', '"a\tb"', "1 ", " \n{}\r\n"],
    )
    def test_loads_matches_json_on_edge_texts(self, text):
        assert outcome(_loads, text) == outcome(json.loads, text)

    def test_json_text_matches_dumps(self):
        rng = random.Random(2004)
        values = [random_json_value(rng) for _ in range(3000)]
        # the CLI's shapes: booleans, vectors, orbits and the nested witness
        # (i, [u, v]) of AmbiguousNakayamaError
        values += [True, False, (-3, 0, 10**400, -(10**400)), (), ((0, 2), (1,)), (4, [0, 3])]
        for value in values:
            assert json_text(value) == json.dumps(value), value

    @pytest.mark.parametrize("value", [1.5, {1: 2}, {("a",): 1}, {1, 2}, object(), [b"x"]])
    def test_json_text_refuses_other_values(self, value):
        with pytest.raises(TypeError):
            json_text(value)


class TestOrderFiles:
    def test_matrix_round_trip(self, tmp_path):
        src = OrderSource(kind="matrix", matrix=CYCLIC_1111)
        path = tmp_path / "m.json"
        write_order_file(path, src)
        back = read_order_file(path)
        assert back == src
        assert order_pair(back)[0].rows == CYCLIC_1111

    def test_cyclic_round_trip(self, tmp_path):
        src = OrderSource(kind="cyclic", weights=(2, 0, 1))
        path = tmp_path / "w.json"
        write_order_file(path, src)
        back = read_order_file(path)
        assert back == src
        assert order_pair(back) == cyclic_order((2, 0, 1))

    def test_text_is_stable(self, tmp_path):
        src = OrderSource(kind="matrix", matrix=CYCLIC_1111)
        text = order_file_text(src)
        path = tmp_path / "m.json"
        path.write_text(text)
        assert order_file_text(read_order_file(path)) == text

    def test_matrix_rows_one_per_line(self):
        text = order_file_text(OrderSource(kind="matrix", matrix=CYCLIC_1111))
        lines = text.splitlines()
        assert lines[4].strip() == "[0, 1, 2, 3],"
        assert lines[5].strip() == "[3, 0, 1, 2],"

    @pytest.mark.parametrize(
        "payload",
        [
            "not json at all",
            "[]",
            '{"kind": "matrix"}',
            '{"kind": "sparse", "m": [[0]]}',
            '{"kind": "matrix", "m": [[0, 1], [1]]}',
            '{"kind": "matrix", "m": [[0, true], [1, 0]]}',
            '{"kind": "matrix", "m": [[0, 1.5], [1, 0]]}',
            '{"kind": "cyclic", "weights": [1, -1]}',
            '{"kind": "cyclic", "weights": []}',
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(InputFileError):
            read_order_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFileError):
            read_order_file(tmp_path / "nope.json")


# A bad entry (true, 1.0, "1", null) at the first, middle or last place of a
# row of three gets the message of the per-entry oracle, in every int field.
BAD_ENTRIES = ["true", "1.0", '"1"', "null"]
ORDER_FIELDS = {  # file text, {row} standing for the row with the bad entry
    "m": '{"kind": "matrix", "m": [[0, 1, 2], {row}, [1, 2, 0]]}',
    "weights": '{"kind": "cyclic", "weights": {row}}',
}
MDATA_FIELDS = {
    "m": '{"m": [[0, 1, 2], {row}, [1, 2, 0]], "a": [0, 0, 0], "nu": [1, 2, 0]}',
    "a": '{"m": [[0, 1, 2], [2, 0, 1], [1, 2, 0]], "a": {row}, "nu": [1, 2, 0]}',
    "nu": '{"m": [[0, 1, 2], [2, 0, 1], [1, 2, 0]], "a": [0, 0, 0], "nu": {row}}',
}


def bad_row(bad, at):
    row = ["2", "0", "1"]
    row[at] = bad
    return "[" + ", ".join(row) + "]"


def oracle_message(data, field):
    reader = oracle_as_int_matrix if field == "m" else oracle_as_int_vector
    with pytest.raises(InputFileError) as ei:
        reader(data[field], f'"{field}"')
    return str(ei.value)


@pytest.mark.parametrize("bad", BAD_ENTRIES)
@pytest.mark.parametrize("at", [0, 1, 2])
class TestEntryMessages:
    @pytest.mark.parametrize("field", sorted(ORDER_FIELDS))
    def test_order_file(self, tmp_path, bad, at, field):
        path = tmp_path / "bad.json"
        path.write_text(ORDER_FIELDS[field].replace("{row}", bad_row(bad, at)))
        with pytest.raises(InputFileError) as ei:
            read_order_file(path)
        assert str(ei.value) == oracle_message(json.loads(path.read_text()), field)

    @pytest.mark.parametrize("field", sorted(MDATA_FIELDS))
    def test_equivariant_file(self, tmp_path, bad, at, field):
        path = tmp_path / "bad.json"
        path.write_text(MDATA_FIELDS[field].replace("{row}", bad_row(bad, at)))
        with pytest.raises(InputFileError) as ei:
            read_equivariant_file(path)
        assert str(ei.value) == oracle_message(json.loads(path.read_text()), field)


def test_int_rows_read_as_the_oracle(tmp_path):
    rng = random.Random(1719)
    path = tmp_path / "m.json"
    for _ in range(50):
        n = rng.randint(1, 9)
        m = [list(random_vector(rng, n)) for _ in range(n)]
        path.write_text(json.dumps({"kind": "matrix", "m": m}))
        assert read_order_file(path).matrix == oracle_as_int_matrix(m, '"m"')
        w = [abs(x) for x in random_vector(rng, n)]
        path.write_text(json.dumps({"kind": "cyclic", "weights": w}))
        assert read_order_file(path).weights == oracle_as_int_vector(w, '"weights"')


class TestEquivariantFiles:
    def test_round_trip(self, tmp_path):
        from tiledorder import detect_gorenstein, order_equivariant_data

        m, g = cyclic_order((2, 0, 0, 0))
        ed = order_equivariant_data(m, g)
        path = tmp_path / "md.json"
        write_equivariant_file(path, ed)
        back = read_equivariant_file(path)
        assert back == ed
        assert equivariant_file_text(back) == equivariant_file_text(ed)

    @pytest.mark.parametrize(
        "payload",
        [
            '{"m": [[0]], "a": [0]}',
            '{"m": [[0, 2], [2, 0]], "a": [1], "nu": [1, 0]}',
            '{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [0, 0]}',
            '{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [1, 2]}',
        ],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(InputFileError):
            read_equivariant_file(path)

    def test_inconsistent_data_is_domain_error(self, tmp_path):
        from tiledorder import EquivarianceViolationError

        path = tmp_path / "bad.json"
        path.write_text('{"m": [[0, 5], [4, 0]], "a": [0, 0], "nu": [1, 0]}')
        with pytest.raises(EquivarianceViolationError):
            read_equivariant_file(path)
