import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time

import pytest

from tiledorder import Quiver, cli, cyclic_order, files, gorenstein, orders, tilting
from tiledorder.cli import main

from test_files import DOT_1111, DOT_SHA256, oracle_quiver_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    return json.loads(err.strip().splitlines()[-1])


def only_stderr_json(err):
    """The one JSON object that is all of stderr."""
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# a Morita shift of cyclic weights (3, 3, 0) with m(2,0) = -2 < 0
NOT_GRADED = '{"kind": "matrix", "m": [[0, 5, 8], [1, 0, 3], [-2, 3, 0]]}'


@pytest.fixture
def unit_cyclic_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    code, _, _ = run(capsys, "cyclic", "--weights", "1,1,1,1", "--emit", str(path))
    assert code == 0
    return path


class TestCyclic:
    def test_prints_file_text(self, capsys):
        code, out, _ = run(capsys, "cyclic", "--weights", "1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"kind": "cyclic", "weights": [1, 1, 1, 1]}

    def test_zero_weights_is_domain_error(self, capsys):
        code, _, err = run(capsys, "cyclic", "--weights", "0,0")
        assert code == 1
        assert stderr_json(err)["code"] == "ZeroWeights"

    def test_garbage_weights_exit_2(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["cyclic", "--weights", "1,x,3"])
        assert ei.value.code == 2
        capsys.readouterr()


class TestValidate:
    def test_valid_file(self, unit_cyclic_file, capsys):
        code, out, _ = run(capsys, "validate", str(unit_cyclic_file))
        assert code == 0
        assert "triangle_ok: true" in out
        assert "basic: true" in out
        assert "n_graded: true" in out

    def test_triangle_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "matrix", "m": [[0, 1], [-2, 0]]}')
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        payload = stderr_json(err)
        assert payload["code"] == "TriangleViolation"
        assert payload["witness"] == [0, 1, 0]

    def test_ungraded_reported(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text('{"kind": "matrix", "m": [[0, 5], [-2, 0]]}')
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "n_graded: false" in out
        assert "n_graded" in stderr_json(err)["message"]

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 2
        assert stderr_json(err)["code"] == "MalformedInput"

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert stderr_json(err)["code"] == "MalformedInput"

    def test_cyclic_file_is_not_scanned(self, tmp_path, capsys, monkeypatch):
        """A cyclic order is valid, basic and N-graded by construction: it is
        neither packed nor scanned, and reports what its matrix file does."""
        calls = []
        real_scan, real_packing = orders.first_triangle_violation, orders._packing

        def scan_spy(*args):
            calls.append("scan")
            return real_scan(*args)

        def packing_spy(rows):
            calls.append("packing")
            return real_packing(rows)

        monkeypatch.setattr(orders, "first_triangle_violation", scan_spy)
        for module in (orders, gorenstein):  # bound by import in gorenstein
            monkeypatch.setattr(module, "_packing", packing_spy)
        rng = random.Random(2005)
        path, matrix_path = tmp_path / "w.json", tmp_path / "m.json"
        for weights in [[5], [1, 2, 0], [0, 0, 3]] + [
            [rng.randint(0, 3) for _ in range(rng.randint(1, 7))] for _ in range(20)
        ]:
            if not any(weights):
                continue
            path.write_text(json.dumps({"kind": "cyclic", "weights": weights}))
            calls.clear()
            code, out, err = run(capsys, "validate", str(path))
            report = "triangle_ok: true\nbasic: true\nn_graded: true\n"
            assert (code, out, err) == (0, report, "")
            assert calls == [], weights
            rows = [list(row) for row in cyclic_order(weights)[0].rows]
            matrix_path.write_text(json.dumps({"kind": "matrix", "m": rows}))
            assert run(capsys, "validate", str(matrix_path)) == (code, out, err)
            assert "scan" in calls  # the spies see a matrix file's scan
        path.write_text('{"kind": "cyclic", "weights": [0, 0]}')
        calls.clear()
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, only_stderr_json(err)["code"]) == (1, "", "ZeroWeights")
        assert calls == []

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")  # not UTF-8; not JSON in any encoding
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert only_stderr_json(err)["code"] == "MalformedInput"


class TestGorenstein:
    def test_unit_cyclic(self, unit_cyclic_file, capsys):
        code, out, _ = run(capsys, "gorenstein", str(unit_cyclic_file))
        assert code == 0
        assert "nu: [1, 2, 3, 0]" in out
        assert "ell: [3, 3, 3, 3]" in out
        assert "p: [-2, -2, -2, -2]" in out
        assert "p_av: -2" in out

    def test_fractional_average(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [1, 0]}')
        code, out, _ = run(capsys, "gorenstein", str(path))
        assert code == 0
        assert "p_av: 1/2" in out

    def test_not_gorenstein_witness(self, tmp_path, capsys):
        path = tmp_path / "sym.json"
        path.write_text(
            '{"kind": "matrix", "m": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}'
        )
        code, _, err = run(capsys, "gorenstein", str(path))
        assert code == 1
        payload = stderr_json(err)
        assert payload["code"] == "NotGorenstein"
        assert payload["witness"] == 0


# `tilting` on weights (1, 1, 1, 1): SUMMANDS_1111 of test_tilting, a line each
TILTING_1111 = """rank: 9
(0,1) -> (2,0,0,1)
(0,2) -> (1,0,0,0)
(0,3) (1,3) (2,3) (3,3) -> 0
(1,1) -> (1,2,0,0)
(1,2) -> (0,1,0,0)
(2,1) -> (0,1,2,0)
(2,2) -> (0,0,1,0)
(3,1) -> (0,0,1,2)
(3,2) -> (0,0,0,1)
"""


class TestTilting:
    def test_unit_cyclic(self, unit_cyclic_file, capsys):
        code, out, _ = run(capsys, "tilting", str(unit_cyclic_file))
        assert code == 0
        assert out == TILTING_1111

    def test_zero_summand_only(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [1, 1]}')
        code, out, _ = run(capsys, "tilting", str(path))
        assert code == 0
        assert out == "rank: 1\n(0,1) (1,1) -> 0\n"

    def test_positive_parameter(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [0, 0, 0, 1]}')
        code, _, err = run(capsys, "tilting", str(path))
        assert code == 1
        assert stderr_json(err)["code"] == "PositiveParameter"

    def test_not_n_graded(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(NOT_GRADED)
        code, out, err = run(capsys, "tilting", str(path))
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "NotNGraded"
        assert payload["witness"] == [2, 0]

    def test_too_large_rejected_before_enumerating(self, tmp_path, capsys):
        # k * n = 2 * (2 * 10**8 - 1) entries, far above TILTING_LIMIT
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "cyclic", "weights": [100000000, 100000000]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "tilting", str(path))
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "TooLarge"
        assert payload["witness"] == 399999998


class TestQuiver:
    def test_counts_and_dot(self, unit_cyclic_file, tmp_path, capsys):
        dot = tmp_path / "h.dot"
        code, out, _ = run(
            capsys, "quiver", str(unit_cyclic_file), "--dot", str(dot)
        )
        assert code == 0
        assert "vertices: 9" in out
        assert "arrows: 12" in out
        assert dot.read_text() == DOT_1111

    def test_dot_matches_oracle_at_bench_shape(self, tmp_path, capsys):
        # the largest long cycle of the benchmark's poset jobs: n = 30, sum 32
        rng = random.Random(1720)
        weights = [1] * 30
        for i in rng.sample(range(30), 2):
            weights[i] = 2
        path, dot = tmp_path / "w.json", tmp_path / "h.dot"
        path.write_text(json.dumps({"kind": "cyclic", "weights": weights}))
        code, _, _ = run(capsys, "quiver", str(path), "--dot", str(dot))
        assert code == 0
        q = tilting.hasse_quiver(tilting.tilting_poset(*gorenstein.cyclic_order(weights)))
        assert dot.read_text() == oracle_quiver_dot(q)

    def test_oracle_flag(self, unit_cyclic_file, capsys):
        code, out, _ = run(capsys, "quiver", str(unit_cyclic_file), "--oracle")
        assert code == 0
        assert "oracle: ISOMORPHIC" in out

    def test_oracle_needs_cyclic_kind(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            '{"kind": "matrix",'
            ' "m": [[0, 1, 2, 3], [3, 0, 1, 2], [2, 3, 0, 1], [1, 2, 3, 0]]}'
        )
        code, out, err = run(capsys, "quiver", str(path), "--oracle")
        assert code == 1
        assert out == ""
        assert stderr_json(err)["code"] == "NotCyclic"

    def test_not_n_graded(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(NOT_GRADED)
        code, out, err = run(capsys, "quiver", str(path))
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "NotNGraded"
        assert payload["witness"] == [2, 0]

    def test_too_large(self, tmp_path, capsys):
        # weights (w, w) give p = (1 - w, 1 - w): k = 2w - 1 elements of
        # length 2, within TILTING_LIMIT = 10**6 entries up to w = 250000
        path = tmp_path / "big.json"
        path.write_text('{"kind": "cyclic", "weights": [10001, 10001]}')
        code, out, err = run(capsys, "quiver", str(path))
        assert (code, out, err) == (0, "vertices: 20001\narrows: 20000\n", "")
        path.write_text('{"kind": "cyclic", "weights": [250001, 250001]}')
        code, out, err = run(capsys, "quiver", str(path))
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "TooLarge"
        assert payload["witness"] == 1000002

    def test_too_large_rejected_before_enumerating(self, tmp_path, capsys):
        # k * n = 2 * (2 * 10**8 - 1) entries: far too many to build
        path = tmp_path / "huge.json"
        path.write_text('{"kind": "cyclic", "weights": [100000000, 100000000]}')
        start = time.perf_counter()
        code, out, err = run(capsys, "quiver", str(path))
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "TooLarge"
        assert payload["witness"] == 399999998


def same_budget_files():
    """(order file text, expected error code or None), seeded: relabelled
    Morita shifts of weights (3c, 3c, 0) by (-3c, -3c, c), which have p <= 0,
    k = 12c - 2 and m(1,2) = -c < 0, within TILTING_LIMIT (NotNGraded) and
    over it (TooLarge); cyclic orders over it; orders with some p_i > 0,
    small and with a huge k; and orders that pass."""
    rng = random.Random(2604)
    cases = []
    for c in [rng.randint(1700, 27000) for _ in range(4)] + [rng.randint(28000, 10**9)]:
        m, _ = cyclic_order((3 * c, 3 * c, 0))
        rows = orders.morita_shift(m, (-3 * c, -3 * c, c)).rows
        perm = rng.sample(range(3), 3)
        rows = [[rows[i][j] for j in perm] for i in perm]
        code = "NotNGraded" if 3 * (12 * c - 2) <= tilting.TILTING_LIMIT else "TooLarge"
        cases.append((json.dumps({"kind": "matrix", "m": rows}), code))
    for weights, code in [
        ([250001, 250001], "TooLarge"),
        ([rng.randint(10**5, 10**9)] * rng.randint(2, 6), "TooLarge"),
        ([0, 0, 0, 1], "PositiveParameter"),
        ([0, 0, rng.randint(10**6, 10**9)], "PositiveParameter"),
        ([1, 1, 1, 1], None),
        ([rng.randint(1, 9) for _ in range(5)], None),
    ]:
        cases.append((json.dumps({"kind": "cyclic", "weights": weights}), code))
    return cases


SAME_BUDGET = same_budget_files()


@pytest.mark.parametrize(
    "text, expected", SAME_BUDGET, ids=[f"{e or 'ok'}-{i}" for i, (_, e) in enumerate(SAME_BUDGET)]
)
def test_tilting_and_quiver_share_one_budget(tmp_path, capsys, text, expected):
    """Both commands check PositiveParameter, then TooLarge (witness k * n),
    then NotNGraded before building anything, so they fail alike."""
    path = tmp_path / "in.json"
    path.write_text(text)

    def outcome(command):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 2
        assert not (out and err)  # a failure prints nothing on stdout
        payload = only_stderr_json(err) if err else {}
        return code, payload.get("code"), payload.get("witness")

    first = outcome("tilting")
    assert first == outcome("quiver")
    assert first[:2] == ((1, expected) if expected else (0, None))


@pytest.mark.parametrize("command", ["gorenstein", "tilting", "quiver"])
def test_unprintable_rank_is_too_large(tmp_path, capsys, command):
    """Twelve weights of 4,299 digits pass the reader, but k = 1 - sum(p)
    has more digits than str converts: `tilting` and `quiver` report it as
    TooLarge without printing it (witness null), and `gorenstein` runs."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "cyclic", "weights": [9 * 10**4298 + 1] * 12}))
    code, out, err = run(capsys, command, str(path))
    if command == "gorenstein":
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("p_av: -")
        return
    assert (code, out) == (1, "")
    payload = only_stderr_json(err)
    assert payload["code"] == "TooLarge"
    assert payload["witness"] is None
    assert "10**4300 or more" in payload["message"]


class TestNormalize:
    def test_already_normal(self, unit_cyclic_file, capsys):
        code, out, _ = run(capsys, "normalize", str(unit_cyclic_file))
        assert code == 0
        assert "s: [0, 0, 0, 0]" in out
        assert "p': [-2, -2, -2, -2]" in out

    def test_shifted_file(self, tmp_path, capsys):
        # cyclic(2,0,0,0): p = (1,-1,-1,-1) is spread out; the normalizing
        # shift must land every parameter within 1 of the average -1/2
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [2, 0, 0, 0]}')
        out_path = tmp_path / "shifted.json"
        code, out, _ = run(
            capsys, "normalize", str(path), "--emit", str(out_path)
        )
        assert code == 0
        assert "s: [0, -1, -1, 0]" in out
        assert "p': [0, -1, 0, -1]" in out
        assert "p_av: -1/2" in out

        emitted = json.loads(out_path.read_text())
        assert emitted["kind"] == "matrix"
        assert emitted["m"] == [
            [0, 1, 1, 2],
            [1, 0, 0, 1],
            [1, 2, 0, 1],
            [0, 1, 1, 0],
        ]

        code, out2, _ = run(capsys, "validate", str(out_path))
        assert code == 0
        assert "n_graded: true" in out2

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "cyclic", "weights": [2, 0, 0, 0]}',
            '{"kind": "cyclic", "weights": [3, 1, 0, 2, 0, 0]}',
            NOT_GRADED,
            # cyclic weights (1, 2, 0, 3), shifted and relabeled: nu = (2, 3, 1, 0)
            '{"kind": "matrix", "m": [[0, 2, -3, 0], [4, 0, 1, -2], '
            '[9, 5, 0, 3], [6, 8, 3, 0]]}',
        ],
    )
    def test_output_redetects(self, tmp_path, capsys, text):
        # cmd_normalize prints p' from the closed form without re-running
        # detect_gorenstein; the emitted order must re-detect with that p',
        # be N-graded and keep every parameter within 1 of the average
        from fractions import Fraction

        from tiledorder.files import order_pair, read_order_file

        path = tmp_path / "in.json"
        path.write_text(text)
        out_path = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "normalize", str(path), "--emit", str(out_path)
        )
        assert code == 0
        fields = dict(
            line.split(": ", 1) for line in out.splitlines() if ": " in line
        )
        printed_p = tuple(json.loads(fields["p'"]))
        p_av = Fraction(fields["p_av"])
        shifted, g = order_pair(read_order_file(out_path))
        assert orders.first_negative(shifted.rows) is None
        assert g.p == printed_p
        assert all(abs(x - p_av) < 1 for x in printed_p)


class TestMdata:
    def test_check_and_normalize(self, tmp_path, capsys):
        path = tmp_path / "md.json"
        path.write_text('{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [1, 0]}')
        code, out, _ = run(capsys, "mdata-check", str(path))
        assert code == 0
        assert "valid: true" in out
        assert "a_av: 1" in out
        assert "orbits: [[0, 1]]" in out

        out_path = tmp_path / "norm.json"
        code, out, _ = run(
            capsys, "mdata-normalize", str(path), "--emit", str(out_path)
        )
        assert code == 0
        assert "s: [0, 0]" in out

        from tiledorder.files import read_equivariant_file

        back = read_equivariant_file(out_path)
        assert back.twist == (1, 1)
        assert all(x >= 0 for row in back.matrix for x in row)

    def test_negative_cycle_reported(self, tmp_path, capsys):
        path = tmp_path / "md.json"
        path.write_text('{"m": [[0, -1], [-1, 0]], "a": [0, 0], "nu": [1, 0]}')
        code, _, err = run(capsys, "mdata-normalize", str(path))
        assert code == 1
        payload = stderr_json(err)
        assert payload["code"] == "NegativeCycle"
        assert payload["witness"] == [0, 1]

    def test_huge_entries_negative_cycle(self, tmp_path, capsys):
        big = 10**400
        path = tmp_path / "md.json"
        rows = [[0, -1, big], [-1, 0, big], [big, big, 0]]
        path.write_text(json.dumps({"m": rows, "a": [0, 0, 0], "nu": [0, 1, 2]}))
        code, out, err = run(capsys, "mdata-normalize", str(path))
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "NegativeCycle"
        assert payload["witness"] == [0, 1]

    def test_malformed_nu_exit_2(self, tmp_path, capsys):
        path = tmp_path / "md.json"
        path.write_text('{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [0, 0]}')
        code, _, err = run(capsys, "mdata-check", str(path))
        assert code == 2
        assert stderr_json(err)["code"] == "MalformedInput"


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("normalize", "{order}", "--emit", "{out}"),
            ("mdata-normalize", "{mdata}", "--emit", "{out}"),
            ("cyclic", "--weights", "1,1,1,1", "--emit", "{out}"),
            ("quiver", "{order}", "--dot", "{out}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_exit_2(self, tmp_path, capsys, argv):
        order = tmp_path / "w.json"
        order.write_text('{"kind": "cyclic", "weights": [1, 1, 1, 1]}')
        mdata = tmp_path / "md.json"
        mdata.write_text('{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [1, 0]}')
        out = tmp_path / "no_such_dir" / "x"
        args = [a.format(order=order, mdata=mdata, out=out) for a in argv]
        code, stdout, err = run(capsys, *args)
        assert code == 2
        assert stdout == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "MalformedInput"
        assert str(out) in payload["message"]
        assert not out.parent.exists()


class TestWrittenFiles:
    """Every file goes through files.write_text: `quiver --dot` the lines of
    files.dot_lines as they come, the other commands their text whole."""

    @pytest.mark.parametrize("w", DOT_SHA256, ids=["two-long-lines", "unit-30"])
    def test_dot_file_is_quiver_dot(self, tmp_path, capsys, w):
        path, dot = tmp_path / "w.json", tmp_path / "h.dot"
        path.write_text(json.dumps({"kind": "cyclic", "weights": w}))
        code, _, _ = run(capsys, "quiver", str(path), "--dot", str(dot))
        assert code == 0
        q = tilting.hasse_quiver(tilting.tilting_poset(*cyclic_order(w)))
        assert dot.read_bytes() == files.quiver_dot(q).encode()
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == DOT_SHA256[w]

    # sha256 of each --emit file, as the whole-text writer wrote it
    EMITTED = {
        "normalize-cyclic": (
            "normalize",
            '{"kind": "cyclic", "weights": [3, 1, 0, 2, 0, 0]}',
            "6f4b4cb96fff90e9f5300a1bcc3f4bb3790dda7ebdf6412a7b073c2105b9baed",
        ),
        "normalize-matrix": (
            "normalize",
            '{"kind": "matrix", "m": [[0, 2, -3, 0], [4, 0, 1, -2], [9, 5, 0, 3], '
            "[6, 8, 3, 0]]}",
            "e1e561a1856aa6ef65a111e5ed64a01f029634bd8f0f4d4077e4a54ddba7dc7a",
        ),
        "mdata-normalize": (
            "mdata-normalize",
            '{"m": [[0, 3, 2, 2, 0, 0], [3, 0, 5, 5, 3, 3], [4, 1, 0, 6, 4, 4], '
            "[4, 1, 0, 0, 4, 4], [6, 3, 2, 2, 0, 6], [6, 3, 2, 2, 0, 0]], "
            '"a": [2, 4, 5, 3, 5, 5], "nu": [1, 2, 3, 4, 5, 0]}',
            "0ad03d24310b7caaa51e9a01e7b4c7b9697ee8aea7dbf240e235665b42e25549",
        ),
        "cyclic": (
            "cyclic", None, "7c27b8b887a276e8c55e3c75a0f32ae9c7288c709fe658a96ad50a2f44867550"
        ),
    }

    @pytest.mark.parametrize("name", EMITTED)
    def test_emitted_files_are_unchanged(self, tmp_path, capsys, name):
        command, text, digest = self.EMITTED[name]
        path, out = tmp_path / "in.json", tmp_path / "out.json"
        if text is None:
            argv = [command, "--weights", "3,1,0,2,0,0"]
        else:
            path.write_text(text)
            argv = [command, str(path)]
        code, _, err = run(capsys, *argv, "--emit", str(out))
        assert (code, err) == (0, "")
        data = out.read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        if command == "mdata-normalize":
            again = files.equivariant_file_text(files.read_equivariant_file(out))
        else:
            again = files.order_file_text(files.read_order_file(out))
        assert data == again.encode()


class TestInternalFailure:
    def test_stage_exception_exit_3(self, unit_cyclic_file, capsys, monkeypatch):
        def broken(weights):
            raise RuntimeError("stage failed")

        monkeypatch.setattr(gorenstein, "cyclic_order", broken)
        code, out, err = run(capsys, "gorenstein", str(unit_cyclic_file))
        assert code == 3
        assert out == ""
        assert only_stderr_json(err) == {
            "code": "Internal",
            "message": "RuntimeError: stage failed",
            "witness": None,
        }

    def test_oracle_disagreement_exit_3(self, unit_cyclic_file, capsys, monkeypatch):
        monkeypatch.setattr(
            tilting, "cyclic_hasse_oracle", lambda w: Quiver(vertices=(), arrows=())
        )
        code, out, err = run(capsys, "quiver", str(unit_cyclic_file), "--oracle")
        assert code == 3
        assert out == ""
        assert only_stderr_json(err) == {
            "code": "Internal",
            "message": "RuntimeError: oracle and cover computation disagree",
            "witness": None,
        }

    def test_oracle_disagreement_with_zero_weight_exit_1(self, tmp_path, capsys):
        # the closed-form rules hold for strictly positive weights only
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [2, 0, 3, 1]}')
        code, out, err = run(capsys, "quiver", str(path), "--oracle")
        assert code == 1
        assert out == ""
        error = only_stderr_json(err)
        assert error["code"] == "ZeroWeights"
        assert error["witness"] == 1

    def test_oracle_agreement_with_zero_weight_exit_0(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "cyclic", "weights": [0, 1, 1]}')
        code, out, err = run(capsys, "quiver", str(path), "--oracle")
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "oracle: ISOMORPHIC"


# One order file per outcome of the (m, g) step: the pair, or each rejection.
PAIR_FILES = {
    "cyclic": '{"kind": "cyclic", "weights": [1, 2, 0]}',
    "gorenstein": '{"kind": "matrix", "m": [[0, 1, 2], [2, 0, 1], [1, 2, 0]]}',
    "not-graded": NOT_GRADED,
    "triangle": '{"kind": "matrix", "m": [[0, 1], [-2, 0]]}',
    "triangle-not-gorenstein": '{"kind": "matrix", "m": [[0, 0, 0], [0, 0, 0], [1, 0, 0]]}',
    "triangle-ambiguous": '{"kind": "matrix", "m": [[0, 0, 0], [0, 0, 0], [0, 1, 0]]}',
    "not-gorenstein": '{"kind": "matrix", "m": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}',
    "ambiguous": '{"kind": "matrix", "m": [[0, 0], [0, 0]]}',
}


@pytest.mark.parametrize("command", ["gorenstein", "normalize", "tilting", "quiver"])
def test_one_pattern_match_per_matrix_file(tmp_path, capsys, monkeypatch, command):
    """A matrix file is packed and pattern-matched once, accepted or not; a
    cyclic file never.  `quiver` also packs the poset's step matrix, through
    the binding in `tilting`, which is not spied here."""
    real, real_packing, calls, packings = orders._nakayama_fits, orders._packing, [], []

    def spy(rows, packing):
        calls.append(len(rows))
        return real(rows, packing)

    def packing_spy(rows):
        packings.append(len(rows))
        return real_packing(rows)

    monkeypatch.setattr(orders, "_nakayama_fits", spy)
    monkeypatch.setattr(gorenstein, "_nakayama_fits", spy)  # bound by import there
    for module in (orders, gorenstein):  # bound by import in gorenstein
        monkeypatch.setattr(module, "_packing", packing_spy)
    outcomes = {}
    for name, text in PAIR_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        calls.clear()
        packings.clear()
        code, _, err = run(capsys, command, str(path))
        outcomes[name] = only_stderr_json(err)["code"] if code else "ok"
        assert len(calls) == (name != "cyclic"), name
        assert len(packings) == (name != "cyclic"), name
    assert outcomes["gorenstein"] == "ok"
    assert outcomes["triangle-not-gorenstein"] == "TriangleViolation"
    assert outcomes["triangle-ambiguous"] == "TriangleViolation"
    assert outcomes["not-gorenstein"] == "NotGorenstein"
    assert outcomes["ambiguous"] == "AmbiguousNakayama"


# `python3 tests/cli_corpus.py SEED`: one sha256 over the bytes of every
# command on the seeded corpus.  A change to CLI output updates them on purpose.
CORPUS_DIGESTS = {
    16: "00064f4996347424ab135f4139f9bbc9e26adcf54475e1309b821ffd6c719bdd",
    1818: "4494d0be273ac28fe70ce238a96020657c19caf0c289e607e5e0634fac6b1883",
}


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the corpus holds argparse's help texts, which differ between versions",
)
@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_cli_corpus_digest(seed):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.py")
    res = subprocess.run([sys.executable, script, str(seed)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [CORPUS_DIGESTS[seed]], res.stderr


class TestFileLimit:
    """Files above files.FILE_LIMIT are refused before anything is built."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("validate", {"kind": "matrix", "m": [[(j - i) % 4 for j in range(4)]
                                                  for i in range(4)]}),
            ("gorenstein", {"kind": "cyclic", "weights": [1, 1, 1, 1]}),
            ("mdata-check", {"m": [[0] * 4] * 4, "a": [0] * 4, "nu": [0, 1, 2, 3]}),
        ],
        ids=["matrix", "cyclic", "mdata"],
    )
    def test_too_large(self, tmp_path, capsys, monkeypatch, command, text):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(text))
        monkeypatch.setattr(files, "FILE_LIMIT", 4)
        code, _, _ = run(capsys, command, str(path))
        assert code == 0
        monkeypatch.setattr(files, "FILE_LIMIT", 3)
        code, out, err = run(capsys, command, str(path))
        assert code == 1
        assert out == ""
        payload = only_stderr_json(err)
        assert payload["code"] == "TooLarge"
        assert payload["witness"] == 4


# Canonical argv, each with what its run must not import.  Files are written
# by the test: w.json is cyclic, m.json a matrix, md.json and mc.json
# equivariant data.
# array is not used; struct is loaded only to pack a matrix's rows or, in
# `quiver`, the tilting poset's step matrix.  json (with re) is loaded only to
# report a malformed file, and fractions only when a caller reads p_av or
# twist_avg.
NEVER = {
    "argparse", "dataclasses", "typing", "inspect", "pathlib", "array",
    "json", "re", "fractions",
}
CANONICAL = {
    "validate-matrix": (
        ["validate", "m.json"],
        {"tiledorder.gorenstein", "tiledorder.conjugation", "tiledorder.tilting"},
    ),
    "validate-cyclic": (["validate", "w.json"], {"tiledorder.conjugation", "tiledorder.tilting"}),
    "gorenstein": (["gorenstein", "m.json"], {"tiledorder.conjugation", "tiledorder.tilting"}),
    "normalize": (["normalize", "w.json", "--emit", "out.json"], {"tiledorder.tilting"}),
    "tilting": (["tilting", "w.json"], {"tiledorder.conjugation"}),
    "quiver": (["quiver", "--oracle", "w.json", "--dot", "out.dot"], {"tiledorder.conjugation"}),
    "mdata-check": (["mdata-check", "md.json"], {"tiledorder.tilting", "tiledorder.gorenstein"}),
    "mdata-normalize": (
        ["mdata-normalize", "md.json", "--emit", "out.json"],
        {"tiledorder.tilting", "tiledorder.gorenstein"},
    ),
    "cyclic": (["cyclic", "--weights", "1,1,1,1"], {"tiledorder.conjugation", "tiledorder.tilting"}),
    "cyclic-emit": (["cyclic", "--emit", "out.json", "--weights", "2,0"], {"tiledorder.tilting"}),
}


def loaded_modules(tmp_path, argv):
    """Exit status and sys.modules after `tiledorder <argv>` in a fresh `python -S`."""
    (tmp_path / "w.json").write_text('{"kind": "cyclic", "weights": [1, 1, 1, 1]}')
    (tmp_path / "m.json").write_text('{"kind": "matrix", "m": [[0, 1], [1, 0]]}')
    (tmp_path / "md.json").write_text('{"m": [[0, 2], [2, 0]], "a": [1, 1], "nu": [1, 0]}')
    # a descending chain of 40 points, m(i+1, i) = -1, under the identity:
    # Bellman-Ford on its 40 x 40 block minima packs its later passes
    chain = [[-1 if i == j + 1 else 40 * (i != j) for j in range(40)] for i in range(40)]
    (tmp_path / "mc.json").write_text(
        json.dumps({"m": chain, "a": [0] * 40, "nu": list(range(40))})
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from tiledorder.cli import main\n"
        "try:\n"
        "    status = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(repr((status, sorted(sys.modules))))\n"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    status, loaded = ast.literal_eval(res.stdout.splitlines()[-1])
    return status, set(loaded)


def test_import_path_skips_heavy_modules():
    """`import tiledorder.cli` loads none of the modules slow to import."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, tiledorder.cli; print(sorted(sys.modules))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    loaded = set(ast.literal_eval(res.stdout))
    assert "tiledorder.cli" in loaded
    assert loaded.isdisjoint(NEVER)
    assert {m for m in loaded if m.startswith("tiledorder.")} == {
        "tiledorder.cli", "tiledorder.files", "tiledorder.orders", "tiledorder.errors"
    }


@pytest.mark.parametrize("argv, absent", CANONICAL.values(), ids=CANONICAL)
def test_command_import_path(tmp_path, argv, absent):
    """A canonical run imports neither argparse nor what its command does not use."""
    status, loaded = loaded_modules(tmp_path, argv)
    assert status == 0
    assert loaded.isdisjoint(NEVER | absent), loaded & (NEVER | absent)


@pytest.mark.parametrize(
    "argv, packs",
    [
        (["validate", "m.json"], True),
        (["gorenstein", "m.json"], True),
        (["validate", "w.json"], False),
        (["tilting", "w.json"], False),
        (["quiver", "w.json"], True),
        (["cyclic", "--weights", "1,1,1,1"], False),
        (["mdata-normalize", "md.json"], False),
        (["mdata-normalize", "mc.json"], False),
    ],
    ids=[
        "validate-matrix", "gorenstein-matrix", "validate-cyclic", "tilting-cyclic",
        "quiver-cyclic", "cyclic", "mdata-normalize", "mdata-normalize-packed",
    ],
)
def test_struct_loads_to_pack_a_matrix_only(tmp_path, argv, packs):
    """Packing a matrix's rows, or the step matrix whose dominance counts
    hasse_quiver reads, pays struct's import; a run that packs none does not,
    nor does Bellman-Ford, which packs through int.to_bytes."""
    status, loaded = loaded_modules(tmp_path, argv)
    assert status == 0
    assert ("struct" in loaded) == packs


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["validate", "-h"], ["validate", "m.json", "--bogus"]],
    ids=["help", "command-help", "bad-flag"],
)
def test_help_and_usage_errors_load_argparse(tmp_path, argv):
    status, loaded = loaded_modules(tmp_path, argv)
    assert status in (0, 2)
    assert "argparse" in loaded


def test_scanner_accepts_canonical_forms():
    for argv, _ in CANONICAL.values():
        assert cli._scan(argv) is not None, argv


# Tokens for the scanner's differential test: values, every flag, and forms
# only argparse may read (abbreviations, "=", "--", "-", negative numbers,
# the empty string, help, bad weights).  Repeats come from the combinations.
TOKENS = [
    "f", "", "1,2", "1,x", "-1", "-", "--", "-h",
    "--emit", "--emit=x", "--em", "--dot", "--oracle", "--weights", "validate",
]


def test_scanner_agrees_with_argparse():
    """Whenever the scanner accepts an argv, argparse accepts it with equal vars()."""
    parser = cli.build_parser()
    accepted = set()
    for command in cli.COMMANDS:
        for k in range(4):
            for tail in itertools.product(TOKENS, repeat=k):
                argv = [command, *tail]
                values = cli._scan(argv)
                if values is None:
                    continue
                accepted.add(command)
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    try:
                        expected = vars(parser.parse_args(argv))
                    except SystemExit:
                        pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
                assert values == expected, argv
    assert accepted == set(cli.COMMANDS)


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", '{"kind": "matrix", "m": ' + DEEP + "}"),
        ("mdata-normalize", '{"m": ' + DEEP + ', "a": [0], "nu": [0]}'),
    ],
    ids=["order", "mdata"],
)
def test_deeply_nested_file_exit_2(tmp_path, capsys, command, text):
    """json.loads' RecursionError is malformed input, not an internal failure."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    payload = only_stderr_json(err)
    assert payload["code"] == "MalformedInput"
    assert "nests too deeply" in payload["message"]


LONG = "1" + "0" * 4300  # 4,301 digits


@pytest.mark.parametrize(
    "command, text",
    [
        ("validate", '{"kind": "matrix", "m": [[0, ' + LONG + "], [1, 0]]}"),
        ("gorenstein", '{"kind": "cyclic", "weights": [1, ' + LONG + "]}"),
        ("mdata-check", '{"m": [[0, ' + LONG + '], [1, 0]], "a": [0, 0], "nu": [0, 1]}'),
    ],
    ids=["matrix", "cyclic", "mdata"],
)
def test_overlong_integer_exit_2(tmp_path, capsys, command, text):
    """An integer over CPython's default 4,300-digit limit is malformed input."""
    path = tmp_path / "long.json"
    path.write_text(text)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, command, str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert out == ""
    payload = only_stderr_json(err)
    assert payload["code"] == "MalformedInput"
    assert "integer too long to parse" in payload["message"]


# Malformed order files for a fresh interpreter, where json.decoder is not
# loaded until the scanner's error sends the text to json.loads: each exits
# 2 with the message json.loads gives (or, for NaN, the integer check's).
FRESH_MALFORMED = {
    "open-brace": "{",
    "trailing-data": "{} x",
    "bom": '\ufeff{"kind": "cyclic", "weights": [1]}',
    "deep": '{"kind": "matrix", "m": ' + DEEP + "}",
    "long-int": '{"kind": "cyclic", "weights": [1, 1' + "0" * 4999 + "]}",
    "nan": '{"kind": "cyclic", "weights": [NaN]}',
}


@pytest.mark.parametrize("text", FRESH_MALFORMED.values(), ids=FRESH_MALFORMED)
def test_malformed_file_in_fresh_interpreter(tmp_path, text):
    (tmp_path / "f.json").write_text(text, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONUTF8="1", PYTHONINTMAXSTRDIGITS="4300")
    res = subprocess.run(
        [sys.executable, "-S", "-m", "tiledorder", "gorenstein", "f.json"],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        value = json.loads(text)
    except RecursionError as exc:
        message = f"f.json nests too deeply to parse: {exc}"
    except json.JSONDecodeError as exc:
        message = f"f.json is not valid JSON: {exc}"
    except ValueError as exc:
        message = f"f.json holds an integer too long to parse: {exc}"
    else:
        message = f'"weights" must be an integer, got {value["weights"][0]!r}'
    finally:
        sys.set_int_max_str_digits(limit)
    assert (res.returncode, res.stdout) == (2, ""), res.stderr
    expected = {"code": "MalformedInput", "message": message, "witness": None}
    assert only_stderr_json(res.stderr) == expected


def test_rejections_do_not_depend_on_assert(tmp_path):
    """`python -O` strips asserts; every check must still reject the same way."""
    cases = {
        "tri.json": ("validate", '{"kind": "matrix", "m": [[0, 1, 5], [1, 0, 1], [1, 1, 0]]}'),
        "notg.json": ("gorenstein", '{"kind": "matrix", "m": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}'),
        "neg.json": ("mdata-normalize", '{"m": [[0, -1], [-1, 0]], "a": [0, 0], "nu": [1, 0]}'),
    }
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    codes = []
    for name, (command, text) in cases.items():
        (tmp_path / name).write_text(text)
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-S", "-m", "tiledorder", command, name],
                env=env, cwd=tmp_path, capture_output=True, text=True,
            )
            for flags in ([], ["-O"])
        ]
        plain, optimized = ((r.returncode, r.stdout, r.stderr) for r in runs)
        assert optimized == plain
        assert plain[0] == 1
        codes.append(only_stderr_json(plain[2])["code"])
    assert codes == ["TriangleViolation", "NotGorenstein", "NegativeCycle"]
