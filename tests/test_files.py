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
    quiver_dot,
    rational_str,
    read_equivariant_file,
    read_order_file,
    vector_label,
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


def twin(v):
    """A vector equal to v that is another object."""
    return tuple(list(v))


# Quivers by hand, arrow ends equal to vertices but other objects: empty, one
# non-zero vertex, length one, mixed lengths, negative and large entries.
HAND_QUIVERS = [
    Quiver((), ()),
    Quiver(((1, 2),), ()),
    Quiver(((0, 0),), ()),
    Quiver(((0,), (1,), (2,)), ((twin((1,)), twin((0,))), (twin((2,)), twin((1,))))),
    Quiver(
        ((), (0,), (0, 0), (1,), (1, 2), (3, 0, 1)),
        ((twin((1, 2)), twin((0, 0))), (twin((3, 0, 1)), twin(())), ((1,), (0,))),
    ),
    Quiver(
        ((-3, 0), (-1, 2), (0, 0), (2, -5), (10**20, -1)),
        (
            (twin((-1, 2)), twin((-3, 0))),
            (twin((2, -5)), twin((0, 0))),
            (twin((10**20, -1)), twin((2, -5))),
        ),
    ),
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
    def test_vector_label(self):
        assert vector_label((0, 0, 0)) == "0"
        assert vector_label((2, 0, 0, 1)) == "(2,0,0,1)"
        assert vector_label((5,)) == "(5)"
        assert vector_label((-1, 0)) == "(-1,0)"
        assert vector_label(()) == "0"

    def test_rational_str(self):
        assert rational_str(Fraction(-2)) == "-2"
        assert rational_str(Fraction(1, 2)) == "1/2"
        assert rational_str(Fraction(-7, 3)) == "-7/3"
        assert rational_str(Fraction(4, 2)) == "2"


def test_dot_golden():
    m, g = cyclic_order((1, 1, 1, 1))
    q = hasse_quiver(tilting_poset(m, g))
    assert quiver_dot(q) == DOT_1111


def test_dot_matches_oracle_on_hasse_corpus():
    for m, g in hasse_corpus():
        q = hasse_quiver(tilting_poset(m, g))
        assert quiver_dot(q) == oracle_quiver_dot(q), m


@pytest.mark.parametrize("q", HAND_QUIVERS)
def test_dot_matches_oracle_on_hand_quivers(q):
    assert quiver_dot(q) == oracle_quiver_dot(q)


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
